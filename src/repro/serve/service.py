"""The serving loop: an engine driven by a churn event stream.

:class:`ServingLayer` is the operational shell around
:class:`~repro.core.incremental.DeploymentEngine`: it replays
arrival/departure events in time order, admits each arrival with the
engine's warm-start kernels (measuring the wall-clock re-embedding
latency), retracts departures, and optionally re-optimizes every
``rebalance_every`` admitted arrivals — the admit-online /
rebalance-periodically policy over whole chains, with capacity and
bandwidth admission control.

Faults (PR 9): a ``faults=`` stream of
:class:`~repro.faults.events.FaultEvent` is merged into the timeline —
crashes mass-evict through the engine, a pluggable
:class:`~repro.faults.recovery.RecoveryPolicy` repairs the embedding
within an optional :class:`~repro.faults.recovery.MigrationBudget`,
and an ``sla=`` :class:`~repro.faults.sla.SLASpec` integrates
availability and violation-minutes into a
:class:`~repro.faults.sla.ResilienceReport`.  With ``faults=None`` and
``sla=None`` (the defaults) every code path, count and latency list is
byte-identical to the pre-fault serving layer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.core.incremental import DeploymentEngine
from repro.exceptions import ValidationError
from repro.nfv.request import Request
from repro.serve.events import ChurnEvent

__all__ = ["ServeReport", "ServingLayer"]

_FAULT_KINDS = ("node_down", "node_up", "instance_down", "instance_up")


@dataclass
class ServeReport:
    """Aggregated outcome of one event-stream replay."""

    arrivals: int = 0
    admitted: int = 0
    rejected_capacity: int = 0
    rejected_bandwidth: int = 0
    departures: int = 0
    rebalances: int = 0
    #: Placement moves + schedule migrations over all rebalances, plus
    #: recovery-time VNF relocations.
    migrations: int = 0
    #: Wall-clock seconds per admit decision (admitted or rejected).
    admit_latencies: List[float] = field(default_factory=list)
    #: Wall-clock seconds per rebalance.
    rebalance_latencies: List[float] = field(default_factory=list)
    #: Requests still active after the last event.
    final_active: int = 0
    #: Arrivals rejected because a chain VNF was unavailable (failed
    #: node / all instances down).  Zero without fault injection.
    rejected_unavailable: int = 0
    #: Crash events processed (node + instance).
    crashes: int = 0
    #: Chains evicted by crashes.
    evictions: int = 0
    #: Evicted chains brought back into service (by a recovery policy
    #: or a post-rebalance retry).
    readmissions: int = 0
    #: Evicted chains that departed while still pending.
    lost: int = 0
    #: Rebalances skipped — over the migration budget or infeasible.
    rebalances_skipped: int = 0
    #: Wall-clock seconds per recovery-policy invocation.
    recovery_latencies: List[float] = field(default_factory=list)
    #: Integrated SLA metrics (only with an ``sla=`` spec).
    resilience: Optional[object] = None

    @property
    def rejected(self) -> int:
        return (
            self.rejected_capacity
            + self.rejected_bandwidth
            + self.rejected_unavailable
        )

    @property
    def rejection_rate(self) -> float:
        """Rejected arrivals / all arrivals (0 when there were none)."""
        return self.rejected / self.arrivals if self.arrivals else 0.0


class ServingLayer:
    """Drive a :class:`DeploymentEngine` through churn events.

    Parameters
    ----------
    engine:
        The deployment engine (its admission policy — utilization
        target, bandwidth gate — is configured there).
    rebalance_every:
        Full re-optimization every this many *admitted* arrivals;
        ``0`` disables periodic rebalancing (pure warm-start serving).
    faults:
        Optional :class:`~repro.faults.events.FaultEvent` stream,
        merged with the churn trace under
        :func:`~repro.faults.events.merge_timeline`'s total order.
        ``None`` keeps the fault-free path byte-identical.
    recovery:
        Crash-recovery policy re-admitting evicted chains
        (:mod:`repro.faults.recovery`); defaults to
        ``LeastLoadedReadmit()`` when ``faults`` is given.
    budget:
        Optional :class:`~repro.faults.recovery.MigrationBudget`.  It
        is reset at the start of every recovery invocation and every
        periodic rebalance, so the caps bound each episode's moves; an
        over-budget rebalance is skipped entirely
        (``rebalances_skipped``).
    sla:
        Optional :class:`~repro.faults.sla.SLASpec`; when given, the
        report's ``resilience`` field carries the integrated
        :class:`~repro.faults.sla.ResilienceReport`.
    """

    def __init__(
        self,
        engine: DeploymentEngine,
        rebalance_every: int = 0,
        *,
        faults: Optional[Iterable] = None,
        recovery=None,
        budget=None,
        sla=None,
    ) -> None:
        if rebalance_every < 0:
            raise ValidationError(
                f"rebalance_every must be >= 0, got {rebalance_every!r}"
            )
        self._engine = engine
        self._rebalance_every = rebalance_every
        self._admits_since_rebalance = 0
        #: Arrivals the engine turned away — their later departure
        #: events must be skipped, not retracted.
        self._rejected_ids: Set[str] = set()
        self._faults = None if faults is None else list(faults)
        if recovery is None and self._faults is not None:
            from repro.faults.recovery import LeastLoadedReadmit

            recovery = LeastLoadedReadmit()
        self._recovery = recovery
        self._budget = budget
        self._sla = sla
        #: Evicted-but-not-yet-readmitted requests, in eviction order.
        self._pending: Dict[str, Request] = {}

    @property
    def engine(self) -> DeploymentEngine:
        return self._engine

    @property
    def pending(self) -> tuple:
        """Ids of evicted chains awaiting re-admission."""
        return tuple(self._pending)

    def process(self, events: Iterable[ChurnEvent]) -> ServeReport:
        """Replay ``events`` (already time-ordered) through the engine."""
        report = ServeReport()
        tracker = None
        if self._sla is not None:
            from repro.faults.sla import SLATracker

            tracker = SLATracker(self._sla)
        if self._faults is not None:
            from repro.faults.events import merge_timeline

            events = merge_timeline(events, self._faults)
        last_time = 0.0
        for event in events:
            if event.time > last_time:
                last_time = event.time
            if event.kind == "arrival":
                if event.request is None:
                    raise ValidationError(
                        f"arrival {event.request_id!r} carries no request"
                    )
                report.arrivals += 1
                if tracker is not None:
                    tracker.on_arrival(event.request_id, event.time)
                start = time.perf_counter()
                outcome = self._engine.admit(event.request)
                report.admit_latencies.append(time.perf_counter() - start)
                if outcome.admitted:
                    report.admitted += 1
                    self._admits_since_rebalance += 1
                    if (
                        self._rebalance_every
                        and self._admits_since_rebalance
                        >= self._rebalance_every
                    ):
                        self._run_rebalance(event.time, report, tracker)
                        self._admits_since_rebalance = 0
                elif outcome.reason == "bandwidth":
                    report.rejected_bandwidth += 1
                    self._rejected_ids.add(event.request_id)
                    if tracker is not None:
                        tracker.on_reject(event.request_id, event.time)
                elif outcome.reason == "unavailable":
                    report.rejected_unavailable += 1
                    self._rejected_ids.add(event.request_id)
                    if tracker is not None:
                        tracker.on_reject(event.request_id, event.time)
                else:
                    report.rejected_capacity += 1
                    self._rejected_ids.add(event.request_id)
                    if tracker is not None:
                        tracker.on_reject(event.request_id, event.time)
            elif event.kind == "departure":
                if tracker is not None:
                    tracker.on_departure(event.request_id, event.time)
                if event.request_id in self._pending:
                    del self._pending[event.request_id]
                    report.lost += 1
                    continue
                if event.request_id in self._rejected_ids:
                    self._rejected_ids.discard(event.request_id)
                    continue
                self._engine.depart(event.request_id)
                report.departures += 1
            elif event.kind in _FAULT_KINDS:
                self._on_fault(event, report, tracker)
            else:
                raise ValidationError(
                    f"unknown churn event kind {event.kind!r}"
                )
            if tracker is not None:
                tracker.sample_latency(
                    event.time,
                    self._engine,
                    force=event.kind in _FAULT_KINDS,
                )
        report.final_active = self._engine.num_active
        if tracker is not None:
            report.resilience = tracker.finish(last_time, self._engine)
        return report

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _run_rebalance(self, now: float, report, tracker) -> None:
        """One periodic rebalance, budget-gated, plus pending retries."""
        if self._budget is not None:
            self._budget.reset()
        start = time.perf_counter()
        rb = self._engine.rebalance(budget=self._budget)
        report.rebalance_latencies.append(time.perf_counter() - start)
        if not rb.committed:
            report.rebalances_skipped += 1
            return
        report.rebalances += 1
        report.migrations += rb.total_migrations
        # A committed re-solve is the deferred recovery opportunity:
        # retry every pending chain through the fresh embedding.
        pending = list(self._pending.values())
        for outcome in self._engine.admit_many(pending):
            if outcome.admitted:
                rid = outcome.request_id
                del self._pending[rid]
                report.readmissions += 1
                if tracker is not None:
                    tracker.on_readmit(rid, now)

    def _on_fault(self, event, report, tracker) -> None:
        """Apply one fault event and run the recovery policy."""
        engine = self._engine
        evicted: List[Request] = []
        if event.kind == "node_down":
            evicted = engine.fail_node(event.node)
        elif event.kind == "node_up":
            engine.recover_node(event.node)
        elif event.kind == "instance_down":
            evicted = engine.fail_instance(event.vnf, event.instance)
        else:
            engine.recover_instance(event.vnf, event.instance)
        if event.kind.endswith("_down"):
            report.crashes += 1
            if tracker is not None:
                tracker.on_crash(event.time)
            report.evictions += len(evicted)
            for request in evicted:
                self._pending[request.request_id] = request
                if tracker is not None:
                    tracker.on_evict(request.request_id, event.time)
        if self._pending and self._recovery is not None:
            self._try_recover(event.time, report, tracker)

    def _try_recover(self, now: float, report, tracker) -> None:
        """One recovery-policy episode over everything pending."""
        if self._budget is not None:
            self._budget.reset()
        start = time.perf_counter()
        outcome = self._recovery.recover(
            self._engine, list(self._pending.values()), budget=self._budget
        )
        report.recovery_latencies.append(time.perf_counter() - start)
        report.migrations += outcome.vnf_moves
        for rid in outcome.readmitted:
            self._pending.pop(rid, None)
            report.readmissions += 1
            if tracker is not None:
                tracker.on_readmit(rid, now)
