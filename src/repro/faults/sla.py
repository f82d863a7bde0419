"""SLA accounting over the serving timeline — availability & violations.

The serving layer counts admits and rejections; an operator's SLA is
about *time*: what fraction of the seconds a customer wanted service
did they actually get (availability), and for how many minutes did the
served latency exceed its bound (violation-minutes).
:class:`SLATracker` integrates three spell types over the replayed
event timeline:

* **downtime spells** — a chain evicted by a crash is down from the
  eviction until its re-admission (or its departure, when it is lost);
* **rejection spells** — a rejected arrival is down for its entire
  would-be lifetime (arrival to departure);
* **latency excursions** — step-integration of how many active chains
  exceed ``latency_threshold`` under the live Eq. (14/16) response
  times (:meth:`~repro.core.incremental.DeploymentEngine
  .request_response_times`).

Demanded seconds are every request's arrival-to-departure interval
(requests alive at the end of the trace are clipped to the horizon);
availability is ``1 - downtime / demanded``.  All integration is in
*simulated* time; the recovery wall-clock latencies live on
:class:`~repro.serve.service.ServeReport` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.exceptions import ValidationError

__all__ = ["ResilienceReport", "SLASpec", "SLATracker"]


@dataclass(frozen=True)
class SLASpec:
    """What the operator promised."""

    #: Per-chain response-time bound in seconds (Eq. 14/16 terms);
    #: ``None`` disables latency tracking.
    latency_threshold: Optional[float] = None
    #: Availability objective in ``(0, 1]`` (``0.999`` = "three nines").
    availability_target: float = 0.999
    #: Per-hop link latency fed to the Eq. (16) communication term when
    #: sampling response times.
    link_latency: float = 0.0
    #: Sample latencies every this many processed events (``1`` = every
    #: event); fault boundaries and the end of the trace always sample.
    check_every: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.availability_target <= 1.0:
            raise ValidationError(
                "availability_target must be in (0, 1], got "
                f"{self.availability_target!r}"
            )
        if self.latency_threshold is not None and self.latency_threshold <= 0:
            raise ValidationError(
                f"latency_threshold must be > 0, got "
                f"{self.latency_threshold!r}"
            )
        if self.check_every < 1:
            raise ValidationError(
                f"check_every must be >= 1, got {self.check_every!r}"
            )


@dataclass
class ResilienceReport:
    """Integrated SLA outcome of one serving run."""

    #: Seconds of service demanded (sum of request lifetimes).
    demanded_seconds: float = 0.0
    #: Seconds of demanded service not delivered (rejection + eviction
    #: spells).
    downtime_seconds: float = 0.0
    #: Chain-seconds spent above the latency threshold.
    violation_seconds: float = 0.0
    #: Crash events processed (node + instance).
    crashes: int = 0
    #: Chains evicted by crashes.
    evictions: int = 0
    #: Evicted chains brought back into service.
    readmissions: int = 0
    #: Evicted chains that departed while still pending.
    lost: int = 0
    #: Simulated seconds from each eviction to its re-admission.
    recovery_spells: List[float] = field(default_factory=list)
    #: The spec this run was tracked against.
    availability_target: float = 0.999

    @property
    def served_seconds(self) -> float:
        return max(self.demanded_seconds - self.downtime_seconds, 0.0)

    @property
    def availability(self) -> float:
        """Served over demanded seconds (1.0 when nothing was demanded)."""
        if self.demanded_seconds <= 0.0:
            return 1.0
        return self.served_seconds / self.demanded_seconds

    @property
    def availability_met(self) -> bool:
        return self.availability >= self.availability_target

    @property
    def violation_minutes(self) -> float:
        """Chain-minutes above the latency threshold."""
        return self.violation_seconds / 60.0

    @property
    def mean_recovery_spell(self) -> float:
        if not self.recovery_spells:
            return 0.0
        return float(np.mean(self.recovery_spells))


class SLATracker:
    """Integrate SLA spells while the serving layer replays events.

    The layer calls the ``on_*`` hooks as it processes the timeline
    (times must be non-decreasing) and :meth:`finish` once at the end;
    :attr:`report` then holds the integrated metrics.  The tracker is
    deterministic — pure bookkeeping, no randomness, no wall clock.
    """

    def __init__(self, spec: SLASpec) -> None:
        self.spec = spec
        self.report = ResilienceReport(
            availability_target=spec.availability_target
        )
        #: Arrival time per request still owed demanded-seconds.
        self._arrived: Dict[str, float] = {}
        #: Open downtime spell start per request (rejection or eviction).
        self._down_since: Dict[str, float] = {}
        #: Requests whose open spell is an eviction (recovery spell on
        #: close); the others are rejection spells.
        self._evicted: set = set()
        # Latency step-integration state.
        self._last_sample_time: Optional[float] = None
        self._violating = 0
        self._events_since_sample = 0

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------
    def on_arrival(self, request_id: str, time: float) -> None:
        self._arrived[request_id] = time

    def on_reject(self, request_id: str, time: float) -> None:
        """A rejected arrival: down for its entire would-be lifetime."""
        self._down_since[request_id] = time

    def on_evict(self, request_id: str, time: float) -> None:
        self.report.evictions += 1
        self._down_since[request_id] = time
        self._evicted.add(request_id)

    def on_readmit(self, request_id: str, time: float) -> None:
        start = self._down_since.pop(request_id, None)
        if start is None:
            return
        self.report.downtime_seconds += time - start
        if request_id in self._evicted:
            self._evicted.discard(request_id)
            self.report.recovery_spells.append(time - start)
            self.report.readmissions += 1

    def on_crash(self, time: float) -> None:
        self.report.crashes += 1

    def on_departure(self, request_id: str, time: float) -> None:
        """Close the request: demanded seconds and any open spell."""
        arrived = self._arrived.pop(request_id, None)
        if arrived is not None:
            self.report.demanded_seconds += time - arrived
        start = self._down_since.pop(request_id, None)
        if start is not None:
            self.report.downtime_seconds += time - start
            if request_id in self._evicted:
                self._evicted.discard(request_id)
                self.report.lost += 1

    # ------------------------------------------------------------------
    # Latency integration
    # ------------------------------------------------------------------
    def sample_latency(self, time: float, engine, force: bool = False) -> None:
        """Step-integrate the latency-violation count up to ``time``.

        Between samples the previous violation count is held constant
        (the step convention); a sample is taken every
        ``spec.check_every`` calls, or always with ``force=True``.
        No-op when the spec has no latency threshold.
        """
        threshold = self.spec.latency_threshold
        if threshold is None:
            return
        self._events_since_sample += 1
        if not force and self._events_since_sample < self.spec.check_every:
            return
        self._events_since_sample = 0
        if self._last_sample_time is not None:
            self.report.violation_seconds += self._violating * (
                time - self._last_sample_time
            )
        _, latencies = engine.request_response_times(
            link_latency=self.spec.link_latency
        )
        self._violating = int(np.count_nonzero(latencies > threshold))
        self._last_sample_time = time

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def finish(self, end_time: float, engine=None) -> ResilienceReport:
        """Close every open spell at the horizon and return the report."""
        if engine is not None:
            self.sample_latency(end_time, engine, force=True)
        elif self._last_sample_time is not None:
            self.report.violation_seconds += self._violating * (
                end_time - self._last_sample_time
            )
            self._last_sample_time = end_time
        for request_id, arrived in self._arrived.items():
            self.report.demanded_seconds += end_time - arrived
        self._arrived.clear()
        for request_id, start in self._down_since.items():
            self.report.downtime_seconds += end_time - start
        self._down_since.clear()
        self._evicted.clear()
        return self.report
