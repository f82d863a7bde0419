"""Fault injection, crash recovery and SLA-tracked resilience.

The serving layer (:mod:`repro.serve`) assumes a healthy fleet; this
package adds the failure dimension of ROADMAP item 5 — and the
robustness leftovers of item 1 — on top of the incremental
:class:`~repro.core.incremental.DeploymentEngine`:

* :mod:`repro.faults.events` — seeded failure-event streams: node
  crash/repair windows from exponential MTBF/MTTR draws, optional
  correlated rack failures, and
  :func:`~repro.faults.events.merge_timeline` to fold them into a
  churn trace under one total order.
* :mod:`repro.faults.recovery` — pluggable crash-recovery policies
  (least-loaded re-admit, warm-start relocate on the batch delta
  kernels, deferred-until-rebalance) and the
  :class:`~repro.faults.recovery.MigrationBudget` that prices every
  repair move.
* :mod:`repro.faults.sla` — :class:`~repro.faults.sla.SLATracker`,
  integrating downtime, rejection spells and latency excursions into
  availability / violation-minutes on a
  :class:`~repro.faults.sla.ResilienceReport`.

Wire a stream and a spec into
:class:`~repro.serve.service.ServingLayer` (``faults=`` / ``sla=``);
with both left ``None`` every pre-fault result is byte-identical.
See ``docs/RESILIENCE.md``.
"""

from repro.faults.events import (
    FaultEvent,
    failure_events,
    merge_timeline,
)
from repro.faults.recovery import (
    DeferredRecovery,
    LeastLoadedReadmit,
    MigrationBudget,
    RecoveryOutcome,
    RecoveryPolicy,
    WarmStartRelocate,
)
from repro.faults.sla import ResilienceReport, SLASpec, SLATracker

__all__ = [
    "DeferredRecovery",
    "FaultEvent",
    "failure_events",
    "LeastLoadedReadmit",
    "merge_timeline",
    "MigrationBudget",
    "RecoveryOutcome",
    "RecoveryPolicy",
    "ResilienceReport",
    "SLASpec",
    "SLATracker",
    "WarmStartRelocate",
]
