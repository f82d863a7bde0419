"""Crash recovery — repair the surviving embedding, don't re-solve it.

When :meth:`~repro.core.incremental.DeploymentEngine.fail_node` crashes
a node, every chain touching it is evicted with the exact inverse
retraction and the node leaves the candidate set.  A
:class:`RecoveryPolicy` then *repairs* the embedding — the
re-embedding-over-a-previous-solution workflow of B-JointSP and the
online joint-placement regime of Xu et al. (PAPERS.md) — instead of
re-solving from scratch:

* :class:`LeastLoadedReadmit` re-homes each stranded VNF on the
  healthy node with the most residual capacity, then re-admits the
  evicted chains in one engine call
  (:meth:`~repro.core.incremental.DeploymentEngine.admit_many`, the
  O(chain) admit rule per chain).
* :class:`WarmStartRelocate` picks relocation targets with the batch
  solvers' own :func:`~repro.core.deltas.relocate_scores` kernel
  (hop-count-aware, capacity-gated) masked to healthy nodes.
* :class:`DeferredRecovery` does nothing — evicted chains stay pending
  until the next periodic rebalance re-solves over the survivors.

Every move and re-admission is priced against a
:class:`MigrationBudget` (``max_migrations`` / ``max_moved_load``):
what does not fit stays pending.  The same budget object gates
:meth:`DeploymentEngine.rebalance`, so recovery and periodic
re-optimization share one migration-cost vocabulary (see
``docs/RESILIENCE.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.deltas import FIT_EPS, best_allowed_target, relocate_scores
from repro.core.incremental import DeploymentEngine
from repro.nfv.request import Request

__all__ = [
    "DeferredRecovery",
    "LeastLoadedReadmit",
    "MigrationBudget",
    "RecoveryOutcome",
    "RecoveryPolicy",
    "WarmStartRelocate",
]


class MigrationBudget:
    """A migration-cost ledger: move only what the budget pays for.

    Two independent caps, both optional: ``max_migrations`` bounds the
    *count* of moved entities (VNF relocations, chain re-admissions,
    rebalance migrations), ``max_moved_load`` bounds their aggregate
    load (``M_f D_f`` per moved VNF, the effective rate per moved
    chain).  Charging is all-or-nothing: :meth:`try_charge` either
    books the full cost or leaves the ledger untouched.

    The ledger is cumulative until :meth:`reset`; the serving layer
    resets it at the start of each recovery or rebalance episode so the
    caps are per-episode, not per-run.
    """

    def __init__(
        self,
        max_migrations: Optional[int] = None,
        max_moved_load: Optional[float] = None,
    ) -> None:
        self.max_migrations = max_migrations
        self.max_moved_load = max_moved_load
        self.spent_migrations = 0
        self.spent_load = 0.0

    def can_charge(self, migrations: int, moved_load: float) -> bool:
        """Would :meth:`try_charge` succeed for this cost?"""
        if (
            self.max_migrations is not None
            and self.spent_migrations + migrations > self.max_migrations
        ):
            return False
        if (
            self.max_moved_load is not None
            and self.spent_load + moved_load > self.max_moved_load
        ):
            return False
        return True

    def try_charge(self, migrations: int, moved_load: float) -> bool:
        """Book the cost if it fits both caps; False leaves it unbooked."""
        if not self.can_charge(migrations, moved_load):
            return False
        self.spent_migrations += int(migrations)
        self.spent_load += float(moved_load)
        return True

    def reset(self) -> None:
        """Open a fresh episode window (spent counters back to zero)."""
        self.spent_migrations = 0
        self.spent_load = 0.0


@dataclass
class RecoveryOutcome:
    """What one :meth:`RecoveryPolicy.recover` invocation achieved."""

    #: Request ids re-admitted, in attempt (arrival) order.
    readmitted: List[str] = field(default_factory=list)
    #: Request ids still pending (no fit, or over budget).
    pending: List[str] = field(default_factory=list)
    #: VNF relocations committed.
    vnf_moves: int = 0
    #: Aggregate load moved (relocated ``M_f D_f`` + re-admitted rates).
    moved_load: float = 0.0


class RecoveryPolicy:
    """Contract: repair the engine after evictions, within budget.

    ``recover(engine, evicted, budget=None)`` attempts to bring the
    ``evicted`` requests (arrival order) back into service, possibly
    relocating stranded VNFs first, charging every move against
    ``budget`` when one is given.  It must never raise on an
    unrecoverable request — unrecoverable means *pending*, and the
    caller retries on the next repair opportunity.
    """

    name = "abstract"

    def recover(
        self,
        engine: DeploymentEngine,
        evicted: List[Request],
        budget: Optional[MigrationBudget] = None,
    ) -> RecoveryOutcome:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _stranded(engine: DeploymentEngine) -> List[str]:
        """VNFs still placed on failed nodes, in VNF-column order."""
        failed = engine.failed_nodes
        if not failed:
            return []
        index = engine.arrays.vnf_index
        return sorted(
            (
                name
                for name, node in engine.placement.items()
                if node in failed
            ),
            key=index.get,
        )

    @staticmethod
    def _healthy_mask(engine: DeploymentEngine) -> np.ndarray:
        arrays = engine.arrays
        healthy = np.ones(len(arrays.node_keys), dtype=bool)
        for node in engine.failed_nodes:
            healthy[arrays.node_index[node]] = False
        return healthy

    @staticmethod
    def _readmit(
        engine: DeploymentEngine,
        evicted: List[Request],
        budget: Optional[MigrationBudget],
        outcome: RecoveryOutcome,
    ) -> None:
        """Re-admit evicted chains in order, charging the budget, in
        one :meth:`DeploymentEngine.admit_many` call."""
        reports = engine.admit_many(evicted, budget=budget)
        for request, report in zip(evicted, reports):
            if report.admitted:
                outcome.readmitted.append(request.request_id)
                outcome.moved_load += float(request.effective_rate)
            else:
                outcome.pending.append(request.request_id)

    def _relocate(
        self,
        engine: DeploymentEngine,
        budget: Optional[MigrationBudget],
        outcome: RecoveryOutcome,
    ) -> None:
        """Move stranded VNFs to targets chosen by :meth:`_target_for`."""
        stranded = self._stranded(engine)
        if not stranded:
            return
        arrays = engine.arrays
        healthy = self._healthy_mask(engine)
        if not healthy.any():
            return
        for name in stranded:
            fi = arrays.vnf_index[name]
            demand = float(arrays.total_demand_f[fi])
            pvec = engine.placement_vector()
            loads = arrays.node_loads(pvec)
            target = self._target_for(
                engine, fi, demand, pvec, loads, healthy
            )
            if target < 0:
                continue
            if budget is not None and not budget.can_charge(1, demand):
                continue
            if engine.move_vnf(name, arrays.node_keys[target]):
                if budget is not None:
                    budget.try_charge(1, demand)
                outcome.vnf_moves += 1
                outcome.moved_load += demand

    def _target_for(
        self,
        engine: DeploymentEngine,
        fi: int,
        demand: float,
        pvec: np.ndarray,
        loads: np.ndarray,
        healthy: np.ndarray,
    ) -> int:  # pragma: no cover - overridden
        raise NotImplementedError


class LeastLoadedReadmit(RecoveryPolicy):
    """Re-home stranded VNFs on the emptiest healthy node, re-admit.

    The target is the healthy node with the largest residual capacity
    that still fits the VNF's ``M_f D_f`` (first index on ties); the
    evicted chains then go back through the engine's warm-start admit
    in arrival order, as one batch.
    """

    name = "least-loaded"

    def _target_for(self, engine, fi, demand, pvec, loads, healthy):
        arrays = engine.arrays
        residual = arrays.A_v - loads
        feasible = healthy & (residual + FIT_EPS >= demand)
        if not feasible.any():
            return -1
        return int(np.argmax(np.where(feasible, residual, -np.inf)))

    def recover(self, engine, evicted, budget=None):
        outcome = RecoveryOutcome()
        self._relocate(engine, budget, outcome)
        self._readmit(engine, evicted, budget, outcome)
        return outcome


class WarmStartRelocate(RecoveryPolicy):
    """Relocate with the batch solvers' hop-count delta kernel.

    Targets come from :func:`~repro.core.deltas.relocate_scores` — the
    same bincount kernel the local-search refiner runs — masked to
    healthy nodes via :func:`~repro.core.deltas.best_allowed_target`,
    so the repaired embedding minimizes the Eq. (16) communication
    delta of each move instead of just balancing load.  Falls back to
    the least-loaded target when no chain neighbor survives (the kernel
    is then score-blind).
    """

    name = "warm-start"

    def _target_for(self, engine, fi, demand, pvec, loads, healthy):
        arrays = engine.arrays
        ptr, nbr = arrays.vnf_chain_neighbors()
        source = int(pvec[fi])
        _, scores = relocate_scores(
            pvec,
            nbr[ptr[fi] : ptr[fi + 1]],
            demand,
            loads,
            arrays.A_v + FIT_EPS,
            len(arrays.node_keys),
            source,
        )
        return best_allowed_target(scores, healthy)

    def recover(self, engine, evicted, budget=None):
        outcome = RecoveryOutcome()
        self._relocate(engine, budget, outcome)
        self._readmit(engine, evicted, budget, outcome)
        return outcome


class DeferredRecovery(RecoveryPolicy):
    """Do nothing now; the next periodic rebalance repairs everything.

    Every evicted chain stays pending — the cheapest possible crash
    response (zero immediate migrations), at the cost of downtime until
    the next :meth:`~repro.core.incremental.DeploymentEngine.rebalance`
    re-solves over the survivors and the serving layer re-admits the
    pending chains.
    """

    name = "deferred"

    def recover(self, engine, evicted, budget=None):
        return RecoveryOutcome(
            pending=[request.request_id for request in evicted]
        )
