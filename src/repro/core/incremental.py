"""Incremental deployment engine — admit/depart/rebalance over churn.

The paper's two-phase optimizer solves placement and scheduling for a
*known* request set; in operation requests arrive and depart
continuously (the online joint placement regime of Xu et al. and the
incremental-embedding loop of B-JointSP).  :class:`DeploymentEngine`
turns the batch machinery into a long-running service:

* **admit(request)** — O(chain) warm-start join: each chain VNF picks
  its least-loaded instance (:func:`~repro.scheduling.least_loaded
  .least_loaded_admit`), gated by the Eq. (9) utilization cap and, with
  a fabric attached, by the per-link bandwidth residuals
  (:meth:`~repro.topology.network.NetworkModel.chain_fits`).  A
  rejected admit leaves every residual untouched.
  **admit_many(requests, budget=None)** applies the same rule to a
  batch in order (optionally charging a migration budget) and is what
  ``admit`` and crash recovery call.
* **depart(request_id)** — exact inverse: instance loads and routed
  chain flows are retracted and the request row is queued to leave the
  columnar scenario.
* **rebalance()** — periodic re-optimization: a from-scratch two-phase
  solve (BFDSU + the configured scheduler) over the *surviving*
  requests with a fresh seeded RNG, reporting how many VNFs moved and
  how many schedule entries migrated.

Determinism contract
--------------------
``rebalance()`` re-solves with ``np.random.default_rng(seed)`` — the
same seed every time — over the survivors in arrival order.  The state
after any admit/depart sequence followed by ``rebalance()`` is
therefore *identical* to :func:`solve_joint` on the surviving request
set, with and without ``bandwidth=`` (pinned by
``tests/core/test_incremental.py``).  Between rebalances the engine's
residual bookkeeping (instance loads, link loads) matches a
from-scratch recompute to float accumulation error.

The solvers underneath run the exact kernels of the batch path
(:mod:`repro.core.deltas`); see ``docs/SERVING.md`` for the full
contract (what is O(chain), what triggers a rebuild).

Every write costs O(chain) Python work per touched request plus
C-level array moves.  One admission plan per chain — its instance
offsets, each hop's instance range, cap and down mask, whether it is
blocked by a failed node or an all-down VNF, and its route on the
fabric — is kept until the placement or the failed/down state of one
of its VNFs changes (every plan goes when the fabric model or the
whole placement does).  :meth:`DeploymentEngine.admit_many`
decides a batch request by request on those plans, and retractions of
several requests are one ``subtract.at`` per residual vector.

Request rows are written once per epoch, not once per event.  An admit
records its request as pending and a depart drops a pending request or
queues the id of its row; everything that reads request rows — a
rebalance, :meth:`~DeploymentEngine.fail_node`,
:meth:`~DeploymentEngine.fail_instance`,
:meth:`~DeploymentEngine.move_vnf`,
:meth:`~DeploymentEngine.request_response_times` and the public
:attr:`~DeploymentEngine.arrays` — first applies the queue: one
:meth:`~repro.core.arrays.ScenarioArrays.remove_requests` of the queued
ids, then one :meth:`~repro.core.arrays.ScenarioArrays.append_requests`
of the pending requests in admission order.  The columns then equal
:meth:`~repro.core.arrays.ScenarioArrays.build` over the active
requests in arrival order.  A crash's evictions are applied at once.

Failure support
---------------
:meth:`fail_node` / :meth:`fail_instance` mass-evict every chain
touching the failed component with the exact :meth:`depart` retraction
and mark it unschedulable; :meth:`recover_node` /
:meth:`recover_instance` restore it.  :meth:`move_vnf` relocates one
VNF's instances (the repair primitive of :mod:`repro.faults.recovery`),
and :meth:`rebalance` accepts a migration-cost ``budget``.  With no
failures injected and no budget, every code path is byte-identical to
the pre-fault engine — see ``docs/RESILIENCE.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import (
    Dict,
    Hashable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.admission import (
    DEFAULT_TARGET_UTILIZATION,
    power_of_two_admit,
)
from repro.core.arrays import ScenarioArrays
from repro.core.deltas import FIT_EPS
from repro.core.joint import JointOptimizer
from repro.exceptions import InfeasiblePlacementError, SchedulingError
from repro.nfv.request import Request
from repro.nfv.state import DeploymentState
from repro.nfv.vnf import VNF
from repro.placement.base import PlacementProblem
from repro.placement.bfdsu import BFDSUPlacement
from repro.scheduling.base import SchedulingAlgorithm
from repro.scheduling.kernels import schedule_columns
from repro.scheduling.least_loaded import least_loaded_admit
from repro.scheduling.rckk import RCKKScheduler
from repro.seeding import DEFAULT_SEED, RngLike, resolve_rng
from repro.topology.network import BANDWIDTH_EPS

#: Admission policies :class:`DeploymentEngine` knows how to run.
ADMISSION_POLICIES = ("least-loaded", "power-of-two")

__all__ = [
    "ADMISSION_POLICIES",
    "AdmitReport",
    "DeploymentEngine",
    "RebalanceReport",
    "solve_joint",
]


def _fresh_rng(seed: Optional[int]) -> np.random.Generator:
    """The engine's seed policy: one fixed seed, fresh stream per solve."""
    return np.random.default_rng(DEFAULT_SEED if seed is None else int(seed))


def solve_joint(
    vnfs: Sequence[VNF],
    requests: Sequence[Request],
    node_capacities: Mapping[Hashable, float],
    *,
    seed: Optional[int] = None,
    scheduler: Optional[SchedulingAlgorithm] = None,
    topology=None,
    bandwidth=None,
) -> DeploymentState:
    """One from-scratch two-phase solve under the engine's seed policy.

    This is exactly what :meth:`DeploymentEngine.rebalance` runs over
    the surviving request set: BFDSU with ``default_rng(seed)`` (with a
    bandwidth-constrained candidate filter when ``topology`` is given)
    followed by the scheduler over the requests *in the given order*.
    Exposed so the identity between the engine under churn and a batch
    re-solve is checkable — and so callers can price that re-solve.
    """
    from repro.topology.network import NetworkModel

    network = None
    if topology is not None:
        network = NetworkModel.for_problem(
            PlacementProblem(vnfs, node_capacities),
            topology,
            requests=requests,
            bandwidth=bandwidth,
        )
    placement = BFDSUPlacement(rng=_fresh_rng(seed), network=network)
    return JointOptimizer(placement, scheduler).optimize(
        vnfs, requests, node_capacities
    ).state


#: The assignment of every rejected request: empty and read-only, so
#: one instance serves them all.
_NO_ASSIGNMENT: Mapping[str, int] = MappingProxyType({})


class AdmitReport(NamedTuple):
    """Outcome of one :meth:`DeploymentEngine.admit` call.

    A named tuple: ``admit_many`` builds one per request, and a tuple
    is built at about half the cost of a frozen dataclass.
    """

    request_id: str
    admitted: bool
    #: ``vnf_name -> instance k`` for an admitted request; empty else.
    assignment: Mapping[str, int] = _NO_ASSIGNMENT
    #: ``None`` when admitted; ``"capacity"`` / ``"bandwidth"`` /
    #: ``"unavailable"`` (a chain VNF sits on a failed node or has all
    #: instances down) / ``"budget"`` (the migration budget of
    #: :meth:`DeploymentEngine.admit_many` could not pay for it) else.
    reason: Optional[str] = None


class _ChainPlan:
    """What admitting, retracting or re-routing one chain needs under
    the engine's current placement, failures and fabric.

    ``vnfs`` holds the chain's VNF indices and ``offsets`` each one's
    first global instance;
    ``hops`` the ``(offset, count, cap, down)`` of every hop an admit
    tries, in chain order — all of them, or those before the first VNF
    whose instances are all down (``dead``), where ``down`` is ``None``
    or the VNF's down mask when some instance is down.  ``blocked``
    marks a chain with a VNF on a failed node; ``route`` is the
    chain's ``(ids, touched, inverse, limit)`` under the current
    placement (see :meth:`DeploymentEngine._route_fits`; ``None``
    without a fabric).
    """

    __slots__ = (
        "names", "vnfs", "offsets", "hops", "dead", "blocked", "route"
    )

    def __init__(
        self, names, vnfs, offsets, hops, dead, blocked, route
    ) -> None:
        self.names = names
        self.vnfs = vnfs
        self.offsets = offsets
        self.hops = hops
        self.dead = dead
        self.blocked = blocked
        self.route = route


@dataclass(frozen=True)
class RebalanceReport:
    """Outcome of one :meth:`DeploymentEngine.rebalance` call."""

    #: VNFs whose hosting node changed.
    placement_moves: int
    #: Surviving ``(request, vnf)`` entries whose instance changed.
    schedule_migrations: int
    #: Requests active at rebalance time.
    active_requests: int
    #: False when the solve was skipped — over the migration budget or
    #: infeasible on the surviving (non-failed) nodes; engine state is
    #: then unchanged.
    committed: bool = True

    @property
    def total_migrations(self) -> int:
        return self.placement_moves + self.schedule_migrations


class DeploymentEngine:
    """Mutable joint deployment under request churn.

    Owns the placement vector, per-instance load residuals, the
    ``(request_id, vnf_name) -> k`` schedule and (with a fabric) the
    per-link routed-flow residuals, all kept incrementally consistent
    by :meth:`admit` / :meth:`depart` and reset to the batch optimum by
    :meth:`rebalance`.

    Parameters
    ----------
    vnfs, node_capacities:
        The static infrastructure (``F`` and ``A_v``); immutable for
        the engine's lifetime — only requests churn.
    requests:
        Initially active requests; the engine starts from a full
        re-solve over them.
    seed:
        The rebalance seed policy (default
        :data:`~repro.seeding.DEFAULT_SEED`); every rebalance re-solves
        with a fresh ``default_rng(seed)``.
    scheduler:
        Rebalance-time scheduling algorithm (default RCKK).  Admits
        use the warm-start least-loaded rule regardless.
    topology, bandwidth:
        Optional fabric: admits gain a link-bandwidth gate and
        rebalances run bandwidth-constrained BFDSU.  ``bandwidth``
        follows :meth:`NetworkModel.build`'s convention.
    target_utilization:
        Admission cap per instance: a chain VNF join is rejected when
        its least-loaded instance would exceed
        ``mu_f * target_utilization`` (the Eq. (9) stability margin of
        :mod:`repro.core.admission`).  ``None`` disables the cap.
    admission:
        Instance-selection rule for admits: ``"least-loaded"``
        (default; :func:`~repro.scheduling.least_loaded
        .least_loaded_admit`) or ``"power-of-two"``
        (:func:`~repro.core.admission.power_of_two_admit` — two seeded
        uniform probes per chain VNF, lower load wins).
    admission_rng:
        Seed policy for the ``"power-of-two"`` sampler, resolved via
        :func:`repro.seeding.resolve_rng` (``None`` gives the
        documented default stream).  Unused by ``"least-loaded"``.
    """

    def __init__(
        self,
        vnfs: Sequence[VNF],
        node_capacities: Mapping[Hashable, float],
        requests: Sequence[Request] = (),
        *,
        seed: Optional[int] = None,
        scheduler: Optional[SchedulingAlgorithm] = None,
        topology=None,
        bandwidth=None,
        target_utilization: Optional[float] = DEFAULT_TARGET_UTILIZATION,
        admission: str = "least-loaded",
        admission_rng: RngLike = None,
    ) -> None:
        self._vnfs = tuple(vnfs)
        self._capacities = dict(node_capacities)
        self._seed = DEFAULT_SEED if seed is None else int(seed)
        self._scheduler = scheduler if scheduler is not None else RCKKScheduler()
        self._topology = topology
        self._bandwidth = bandwidth
        self._target = target_utilization
        self._arrays = ScenarioArrays.build(
            self._vnfs, requests, self._capacities
        )
        #: Admitted requests without a row yet, in admission order, and
        #: the ids of retracted requests whose rows are still in
        #: ``_arrays`` (:meth:`_write_rows` applies both).
        self._row_appends: Dict[str, Request] = {}
        self._row_removals: List[str] = []
        #: Active requests in arrival order (dicts preserve insertion).
        self._requests: Dict[str, Request] = {
            r.request_id: r for r in requests
        }
        if len(self._requests) != len(tuple(requests)):
            raise SchedulingError("duplicate request ids in initial set")
        self._placement: Dict[str, Hashable] = {}
        self._placement_vec = np.full(len(self._vnfs), -1, dtype=np.int64)
        self._schedule: Dict[Tuple[str, str], int] = {}
        self._inst_loads = np.zeros(self._arrays.num_instances)
        self._network = None
        self._link_loads: Optional[np.ndarray] = None
        #: VNF-name tuple -> :class:`_ChainPlan` under the current
        #: state; a chain's plan is dropped whenever the placement or
        #: the failed/down state of one of its VNFs changes, every plan
        #: when ``_network`` does (:meth:`_drop_plans`).
        self._plans: Dict[Tuple[str, ...], _ChainPlan] = {}
        #: Per VNF: first global instance, instance count and the
        #: admission cap ``mu_f * target_utilization`` (``None``: off).
        self._inst_offset = self._arrays.instance_offset.tolist()
        self._inst_count = self._arrays.M_f.tolist()
        self._inst_cap = [
            None if target_utilization is None else mu * target_utilization
            for mu in self._arrays.mu_f.tolist()
        ]
        if admission not in ADMISSION_POLICIES:
            raise SchedulingError(
                f"unknown admission policy {admission!r}; "
                f"expected one of {ADMISSION_POLICIES}"
            )
        self._admission = admission
        self._admission_rng = (
            resolve_rng(admission_rng)
            if admission == "power-of-two"
            else None
        )
        #: Node keys currently marked failed (unschedulable).
        self._failed_nodes: set = set()
        #: Per-global-instance down mask; ``None`` until the first
        #: instance fault so the fault-free path costs nothing.
        self._down_inst: Optional[np.ndarray] = None
        self._resolve()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_active(self) -> int:
        return len(self._requests)

    @property
    def target_utilization(self) -> Optional[float]:
        """The admission cap (``None`` when disabled)."""
        return self._target

    @property
    def active_requests(self) -> Tuple[str, ...]:
        """Active request ids, in arrival order."""
        return tuple(self._requests)

    @property
    def arrays(self) -> ScenarioArrays:
        """The engine's columnar view (read-only by convention).

        Reading it applies the queued row writes, so its request
        columns are those of the active requests in arrival order; a
        reference kept across later admits or departs goes stale until
        the next read.
        """
        self._write_rows()
        return self._arrays

    @property
    def failed_nodes(self) -> frozenset:
        """Node keys currently marked failed."""
        return frozenset(self._failed_nodes)

    def placement_vector(self) -> np.ndarray:
        """VNF index -> node index under the current placement (copy)."""
        return self._placement_vec.copy()

    @property
    def placement(self) -> Dict[str, Hashable]:
        """``vnf_name -> node`` (copy)."""
        return dict(self._placement)

    def instance_loads(self) -> np.ndarray:
        """Equivalent arrival rate per global instance (copy)."""
        return self._inst_loads.copy()

    def assignment_of(self, request_id: str) -> Dict[str, int]:
        """``vnf_name -> instance k`` of one active request."""
        request = self._requests.get(request_id)
        if request is None:
            raise SchedulingError(f"unknown request {request_id!r}")
        return {
            name: self._schedule[(request_id, name)]
            for name in request.chain
        }

    def state(self) -> DeploymentState:
        """The current deployment as a validated batch-layer object."""
        state = DeploymentState(
            vnfs=list(self._vnfs),
            requests=list(self._requests.values()),
            node_capacities=dict(self._capacities),
            placement=dict(self._placement),
            schedule=dict(self._schedule),
        )
        state.validate()
        return state

    # ------------------------------------------------------------------
    # Churn operations
    # ------------------------------------------------------------------
    def admit(self, request: Request) -> AdmitReport:
        """Warm-start join of one arriving request (O(chain) kernels).

        The one-request case of :meth:`admit_many`: each chain VNF
        joins its least-loaded instance if that keeps the instance
        within ``mu_f * target_utilization``; with a fabric, the chain's
        routed flow must also fit every link's residual bandwidth.  On
        rejection nothing changes.

        Raises
        ------
        SchedulingError
            If the id is already active or the chain references a VNF
            unknown to the engine (caller errors, not admission
            outcomes).
        """
        return self.admit_many((request,))[0]

    def admit_many(self, requests, budget=None) -> List[AdmitReport]:
        """Admit ``requests`` one after another; one report each.

        Each request is decided by the :meth:`admit` rule against the
        loads its predecessors in the batch left, so the engine ends
        exactly as a loop of single admits would leave it; the admitted
        requests wait for their rows until the next read of them (see
        the module docstring).

        ``budget`` is an optional migration-cost budget (see
        :meth:`rebalance`): a request whose ``(1, effective rate)``
        cost it cannot pay is reported ``reason="budget"`` and left
        untried, and each admitted request is charged that cost.

        Raises
        ------
        SchedulingError
            As :meth:`admit`, for the first offending request; the
            requests before it stay admitted.
        """
        reports: List[AdmitReport] = []
        appends = self._row_appends
        active = self._requests
        schedule = self._schedule
        plans = self._plans
        inst_loads = self._inst_loads
        link_loads = self._link_loads
        rng = self._admission_rng
        for request in requests:
            rid = request.request_id
            eff = float(request.effective_rate)
            if budget is not None and not budget.can_charge(1, eff):
                reports.append(AdmitReport(rid, False, reason="budget"))
                continue
            if rid in active:
                raise SchedulingError(f"request {rid!r} is already active")
            names = request.chain.vnf_names
            plan = plans.get(names)
            if plan is None:
                plan = self._plan(names, rid)
            if plan.blocked:
                reports.append(AdmitReport(rid, False, reason="unavailable"))
                continue
            ks: List[int] = []
            for off, m, cap, down in plan.hops:
                loads = inst_loads[off : off + m]
                if down is not None:
                    # Masked copy: down instances can never win the
                    # argmin / probe, the live loads are untouched.
                    loads = np.where(down, np.inf, loads)
                if rng is not None:
                    k = power_of_two_admit(loads, eff, rng, capacity=cap)
                else:
                    k = least_loaded_admit(loads, eff, capacity=cap)
                if k < 0 or not math.isfinite(loads[k]):
                    reason = "capacity"
                    break
                ks.append(k)
            else:
                reason = None
                route = plan.route
                if plan.dead:
                    reason = "unavailable"
                elif route is not None and not self._route_fits(route, eff):
                    reason = "bandwidth"
            if reason is not None:
                reports.append(AdmitReport(rid, False, reason=reason))
                continue

            active[rid] = request
            for name, off, k in zip(names, plan.offsets, ks):
                schedule[(rid, name)] = k
                inst_loads[off + k] += eff
            if route is not None and len(route[0]):
                np.add.at(link_loads, route[0], eff)
            appends[rid] = request
            if budget is not None:
                budget.try_charge(1, eff)
            reports.append(
                AdmitReport(rid, True, assignment=dict(zip(names, ks)))
            )
        return reports

    def depart(self, request_id: str) -> None:
        """Retract one active request — the exact inverse of its admit.

        Raises
        ------
        SchedulingError
            If ``request_id`` is not active.
        """
        request = self._requests.get(request_id)
        if request is None:
            raise SchedulingError(f"unknown request {request_id!r}")
        self._retract([request])

    # ------------------------------------------------------------------
    # Failure operations (repro.faults)
    # ------------------------------------------------------------------
    def _evict_rows(self, rows) -> List[Request]:
        """Evict the active requests at ascending ``rows`` of the
        written scenario (row order is arrival order) and remove their
        rows at once."""
        ids = self._arrays.request_ids
        victims = [self._requests[ids[row]] for row in rows]
        if victims:
            self._retract(victims)
            self._write_rows()
        return victims

    def _retract(self, victims: List[Request]) -> None:
        """Remove active ``victims`` (arrival order) and their loads.

        Each residual vector gets one ufunc ``at`` call whose entries
        run victim by victim in the given order, chain order within a
        victim — the exact float sequence of departing them one at a
        time.  A victim still pending leaves the pending map; the row
        of any other is queued for removal.
        """
        schedule = self._schedule
        appends = self._row_appends
        inst: List[int] = []
        rates: List[float] = []
        chains = []
        for request in victims:
            rid = request.request_id
            del self._requests[rid]
            if appends.pop(rid, None) is None:
                self._row_removals.append(rid)
            eff = float(request.effective_rate)
            names = request.chain.vnf_names
            plan = self._plan(names, rid)
            for name, off in zip(names, plan.offsets):
                inst.append(off + schedule.pop((rid, name)))
                rates.append(eff)
            chains.append((plan, eff))
        np.subtract.at(self._inst_loads, inst, rates)
        if self._network is not None:
            self._shift_flows(chains, -1.0)

    def _write_rows(self) -> None:
        """Apply the queued row writes to ``_arrays``: one removal of
        the queued ids, then one append of the pending requests."""
        if self._row_removals:
            self._arrays.remove_requests(self._row_removals)
            self._row_removals = []
        if self._row_appends:
            self._arrays.append_requests(self._row_appends.values())
            self._row_appends = {}

    def fail_node(self, node) -> List[Request]:
        """Crash one compute node: evict every chain it touches and
        mark it unschedulable.

        Every active request whose chain includes a VNF placed on
        ``node`` is evicted (exact retraction, arrival order) and
        returned so a recovery policy can re-admit it; subsequent
        admits of such chains are rejected ``"unavailable"`` and
        re-solves exclude the node until :meth:`recover_node`.
        Failing an already-failed node is a no-op returning ``[]``.
        """
        if node not in self._capacities:
            raise SchedulingError(f"unknown node {node!r}")
        if node in self._failed_nodes:
            return []
        self._failed_nodes.add(node)
        arrays = self._arrays
        down = self._placement_vec == arrays.node_index[node]
        if not down.any():
            return []
        self._write_rows()
        hit = down[arrays.chain_vnf]
        victims = self._evict_rows(np.unique(arrays.chain_req[hit]).tolist())
        # The crash blocks the chains through the node; the retraction
        # above ran on routes it leaves valid.
        self._drop_plans(np.flatnonzero(down).tolist())
        return victims

    def recover_node(self, node) -> None:
        """Mark a failed node schedulable again (state is otherwise
        untouched; re-placing VNFs onto it is the recovery policy's or
        the next rebalance's job)."""
        if node not in self._capacities:
            raise SchedulingError(f"unknown node {node!r}")
        if node in self._failed_nodes:
            self._failed_nodes.discard(node)
            hosted = self._placement_vec == self._arrays.node_index[node]
            self._drop_plans(np.flatnonzero(hosted).tolist())

    def fail_instance(self, vnf_name: str, k: int) -> List[Request]:
        """Crash one service instance: evict its requests and mask it.

        Active requests scheduled on instance ``k`` of ``vnf_name``
        are evicted and returned; the instance is excluded from
        admission until :meth:`recover_instance`.  Failing a
        down instance again is a no-op returning ``[]``.
        """
        fi = self._arrays.vnf_index.get(vnf_name)
        if fi is None:
            raise SchedulingError(f"unknown VNF {vnf_name!r}")
        if not 0 <= k < int(self._arrays.M_f[fi]):
            raise SchedulingError(
                f"VNF {vnf_name!r} has no instance {k!r}"
            )
        if self._down_inst is None:
            self._down_inst = np.zeros(
                self._arrays.num_instances, dtype=bool
            )
        gi = int(self._arrays.instance_offset[fi]) + k
        if self._down_inst[gi]:
            return []
        self._down_inst[gi] = True
        self._write_rows()
        arrays = self._arrays
        ids = arrays.request_ids
        users = arrays.chain_req[arrays.chain_vnf == fi].tolist()
        victims = self._evict_rows(
            [
                row
                for row in users
                if self._schedule[(ids[row], vnf_name)] == k
            ]
        )
        self._drop_plans((fi,))
        return victims

    def recover_instance(self, vnf_name: str, k: int) -> None:
        """Clear the down mask of one instance."""
        fi = self._arrays.vnf_index.get(vnf_name)
        if fi is None:
            raise SchedulingError(f"unknown VNF {vnf_name!r}")
        if not 0 <= k < int(self._arrays.M_f[fi]):
            raise SchedulingError(
                f"VNF {vnf_name!r} has no instance {k!r}"
            )
        if self._down_inst is not None:
            self._down_inst[int(self._arrays.instance_offset[fi]) + k] = False
            self._drop_plans((fi,))

    def move_vnf(self, vnf_name: str, node) -> bool:
        """Relocate one VNF (all its instances) to another node.

        The repair primitive behind :mod:`repro.faults.recovery`:
        checks the target is healthy and has capacity headroom for the
        VNF's ``M_f D_f``, then re-routes the chain flows of every
        active request using the VNF (retract at the old node, re-add
        at the new one, gated by the per-link residuals).  Returns
        ``False`` — state untouched — when the move does not fit;
        moving onto the current node is a trivial ``True``.
        """
        self._write_rows()
        arrays = self._arrays
        fi = arrays.vnf_index.get(vnf_name)
        if fi is None:
            raise SchedulingError(f"unknown VNF {vnf_name!r}")
        ni = arrays.node_index.get(node)
        if ni is None:
            raise SchedulingError(f"unknown node {node!r}")
        node = arrays.node_keys[ni]
        if node in self._failed_nodes:
            return False
        source = int(self._placement_vec[fi])
        if source == ni:
            return True
        loads = arrays.node_loads(self._placement_vec)
        demand = float(arrays.total_demand_f[fi])
        if loads[ni] + demand > float(arrays.A_v[ni]) + FIT_EPS:
            return False

        network = self._network
        if network is None:
            self._placement_vec[fi] = ni
            self._placement[vnf_name] = node
            self._drop_plans((fi,))
            return True
        ids = arrays.request_ids
        users = arrays.chain_req[arrays.chain_vnf == fi].tolist()
        affected = []
        for row in users:
            request = self._requests[ids[row]]
            affected.append(
                (
                    self._plan(request.chain.vnf_names),
                    float(request.effective_rate),
                )
            )
        # A revert restores this copy: retracting and re-adding the
        # flows would round the float link loads.
        saved_link_loads = self._link_loads.copy()
        self._shift_flows(affected, -1.0)
        self._placement_vec[fi] = ni
        self._drop_plans((fi,))
        for old, eff in affected:
            route = self._plan(old.names).route
            if not self._route_fits(route, eff):
                self._link_loads[:] = saved_link_loads
                self._placement_vec[fi] = source
                self._drop_plans((fi,))
                return False
            np.add.at(self._link_loads, route[0], eff)
        self._placement[vnf_name] = node
        return True

    def request_response_times(
        self, link_latency: float = 0.0
    ) -> Tuple[Tuple[str, ...], np.ndarray]:
        """Live Eq. (14/16)-style latency per active request.

        Each chain VNF contributes the M/M/1 sojourn of its assigned
        instance under the *current* equivalent loads,
        ``1 / (mu_f - Lambda_k^f)`` (``inf`` when saturated), and with
        ``link_latency > 0`` every inter-node hop of the placed chain
        adds that many seconds (the Eq. (16) communication term on a
        hop-count fabric).  Returns ``(request_ids, latencies)`` in the
        engine's columnar order — the SLA tracker's sampling hook.
        """
        self._write_rows()
        arrays = self._arrays
        ids = arrays.request_ids
        if not self._schedule or not len(ids):
            return tuple(ids), np.zeros(len(ids))
        sched = arrays.schedule_arrays(self._schedule)
        inst = arrays.chain_instances(sched)
        with np.errstate(divide="ignore"):
            sojourn = np.where(
                self._inst_loads < arrays.mu_inst,
                1.0 / (arrays.mu_inst - self._inst_loads),
                np.inf,
            )
        latency = np.bincount(
            arrays.chain_req,
            weights=sojourn[inst],
            minlength=len(ids),
        )
        if link_latency:
            latency = latency + link_latency * arrays.hops_per_request(
                self._placement_vec
            )
        return tuple(ids), latency

    def rebalance(self, budget=None) -> RebalanceReport:
        """Re-solve both phases over the survivors (fresh seeded RNG).

        The resulting state is byte-identical to :func:`solve_joint`
        over the surviving requests in arrival order — warm-start
        drift from admits/departs is fully reset.  Failed nodes are
        excluded from the re-solve's candidate set.

        ``budget`` is an optional migration-cost budget (anything with
        ``try_charge(migrations, moved_load) -> bool``, e.g.
        :class:`repro.faults.recovery.MigrationBudget`): the solve is
        computed as a dry run first, its cost — one migration per
        placement move / schedule migration, moved load ``M_f D_f`` per
        moved VNF plus the effective rate per migrated request — is
        charged against the budget, and the whole rebalance is skipped
        (``committed=False``, state unchanged) when it does not fit.
        An infeasible solve (survivor demand exceeding the healthy
        nodes, or a used VNF with every instance down) is likewise
        reported uncommitted rather than raised.  Down instances get no
        requests: each VNF is scheduled over its live instances.
        """
        # _solve is pure, so the live dicts are the "before" state.
        old_placement = self._placement
        old_schedule = self._schedule
        try:
            solved = self._solve()
        except (InfeasiblePlacementError, SchedulingError):
            return RebalanceReport(
                placement_moves=0,
                schedule_migrations=0,
                active_requests=len(self._requests),
                committed=False,
            )
        placement, schedule = solved[0], solved[2]
        moved_names = [
            name
            for name, node in placement.items()
            if old_placement.get(name) != node
        ]
        # A key the old schedule lacks reads as unmoved.
        old_k = old_schedule.get
        migrated_keys = [
            key for key, k in schedule.items() if old_k(key, k) != k
        ]
        committed = True
        if budget is not None:
            arrays = self._arrays
            moved_load = sum(
                float(arrays.total_demand_f[arrays.vnf_index[name]])
                for name in moved_names
            ) + sum(
                float(self._requests[rid].effective_rate)
                for rid, _ in migrated_keys
            )
            committed = budget.try_charge(
                len(moved_names) + len(migrated_keys), moved_load
            )
        if committed:
            self._commit(*solved)
        return RebalanceReport(
            placement_moves=len(moved_names),
            schedule_migrations=len(migrated_keys),
            active_requests=len(self._requests),
            committed=committed,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _solve(self) -> tuple:
        """Dry-run two-phase solve over the active set.

        Pure: computes the batch solution without touching engine
        state, so :meth:`rebalance` can price it against a migration
        budget before (or instead of) committing.  Failed nodes are
        excluded from the placement candidates and down instances
        from the schedule, which runs on the engine's own columns
        (:func:`~repro.scheduling.kernels.schedule_columns`); with no
        failures the solve is :func:`solve_joint`'s, byte for byte.

        Raises
        ------
        InfeasiblePlacementError
            When the surviving demand does not fit the healthy nodes
            (also raised for the degenerate all-nodes-failed case).
        SchedulingError
            When a used VNF has every instance down.
        """
        from repro.topology.network import NetworkModel

        capacities = self._capacities
        if self._failed_nodes:
            capacities = {
                node: cap
                for node, cap in self._capacities.items()
                if node not in self._failed_nodes
            }
            if not capacities:
                raise InfeasiblePlacementError(
                    "every compute node is marked failed"
                )
        self._write_rows()
        # BFDSU packs VNFs by demand; it reads no chains.
        problem = PlacementProblem(self._vnfs, capacities)
        solve_network = None
        if self._topology is not None:
            solve_network = NetworkModel.for_problem(
                problem,
                self._topology,
                requests=list(self._requests.values()),
                bandwidth=self._bandwidth,
            )
        placement_result = BFDSUPlacement(
            rng=_fresh_rng(self._seed), network=solve_network
        ).place(problem)
        placement = dict(placement_result.placement)
        arrays = self._arrays
        placement_vec = arrays.placement_vector(placement)
        sched = schedule_columns(arrays, self._scheduler, down=self._down_inst)
        inst_loads, _, _ = arrays.instance_rates(sched)
        schedule = arrays.schedule_dict(sched)
        network = solve_network
        if solve_network is not None and self._failed_nodes:
            # The solve ran on the reduced node set, so its node
            # indexing differs from the engine's full-fleet arrays;
            # rebuild the bookkeeping model over every node key so the
            # incremental paths keep indexing ``placement_vec`` into it.
            network = NetworkModel.build(
                self._topology,
                self._arrays.vnf_names,
                self._arrays.node_keys,
                (
                    (list(r.chain), float(r.effective_rate))
                    for r in self._requests.values()
                ),
                bandwidth=self._bandwidth,
            )
        link_loads = (
            network.link_loads(placement_vec)
            if network is not None
            else None
        )
        return (
            placement,
            placement_vec,
            schedule,
            inst_loads,
            network,
            link_loads,
        )

    def _commit(
        self, placement, placement_vec, schedule, inst_loads, network, link_loads
    ) -> None:
        """Install one :meth:`_solve` result as the engine state."""
        self._placement = placement
        self._placement_vec = placement_vec
        self._schedule = schedule
        self._inst_loads = inst_loads
        self._network = network
        self._link_loads = link_loads
        self._drop_plans()

    def _drop_plans(self, vnfs=None) -> None:
        """Drop the cached plans of the chains through any VNF index in
        ``vnfs``, or every plan (``None``)."""
        plans = self._plans
        if vnfs is None:
            plans.clear()
            return
        hit = set(vnfs)
        stale = [
            names
            for names, plan in plans.items()
            if not hit.isdisjoint(plan.vnfs)
        ]
        for names in stale:
            del plans[names]

    def _plan(self, names: Tuple[str, ...], rid=None) -> _ChainPlan:
        """The :class:`_ChainPlan` of the chain ``names`` (cached).

        Raises
        ------
        SchedulingError
            If the chain names a VNF unknown to the engine.
        """
        plan = self._plans.get(names)
        if plan is not None:
            return plan
        vnf_index = self._arrays.vnf_index
        for name in names:
            if name not in vnf_index:
                raise SchedulingError(
                    f"request {rid!r} uses unknown VNF {name!r}"
                )
        vnfs = [vnf_index[name] for name in names]
        offsets = [self._inst_offset[fi] for fi in vnfs]
        hops = []
        dead = False
        for fi, off in zip(vnfs, offsets):
            m = self._inst_count[fi]
            down = None
            if self._down_inst is not None:
                down = self._down_inst[off : off + m]
                if down.all():
                    dead = True
                    break
                down = down.copy() if down.any() else None
            hops.append((off, m, self._inst_cap[fi], down))
        blocked = False
        if self._failed_nodes:
            keys = self._arrays.node_keys
            blocked = any(
                ni >= 0 and keys[ni] in self._failed_nodes
                for ni in self._placement_vec[vnfs].tolist()
            )
        route = None
        if self._network is not None:
            ids, _ = self._network.chain_link_flows(
                np.asarray(vnfs, dtype=np.int64), self._placement_vec, 0.0
            )
            touched, inverse = np.unique(ids, return_inverse=True)
            limit = self._network.bandwidth[touched] + BANDWIDTH_EPS
            route = (ids, touched, inverse, limit)
        plan = _ChainPlan(
            names, vnfs, offsets, tuple(hops), dead, blocked, route
        )
        self._plans[names] = plan
        return plan

    def _route_fits(self, route: tuple, eff: float) -> bool:
        """:meth:`NetworkModel.chain_fits` on a plan's route: the same
        per-link sums, so the same verdict bit for bit.

        ``route`` is ``(ids, touched, inverse, limit)``: the link id of
        every routed hop (:meth:`NetworkModel.chain_link_flows` order),
        the distinct links, each hop's position among them, and each
        distinct link's bandwidth plus :data:`BANDWIDTH_EPS`.
        """
        ids, touched, inverse, limit = route
        if not len(ids):
            return True
        if len(touched) == len(ids):
            # No link twice: each one's sum is ``eff`` itself.
            return bool((self._link_loads[touched] + eff <= limit).all())
        add = np.bincount(
            inverse, weights=np.full(len(ids), eff), minlength=len(touched)
        )
        return bool((self._link_loads[touched] + add <= limit).all())

    def _shift_flows(self, chains, sign: float) -> None:
        """Add (``sign=1``) or retract (``sign=-1``) the routed flows of
        ``(plan, eff)`` chains in order, in one ``add.at`` (the float
        sequence of one call per chain)."""
        if not chains:
            return
        ids = [plan.route[0] for plan, _ in chains]
        flows = np.repeat(
            [sign * eff for _, eff in chains], [len(x) for x in ids]
        )
        np.add.at(self._link_loads, np.concatenate(ids), flows)

    def _resolve(self) -> None:
        """Full two-phase solve over the active set; resets residuals."""
        self._commit(*self._solve())
