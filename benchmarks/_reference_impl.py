"""Pre-refactor scalar metric paths, preserved for benchmarking.

These are the object-graph implementations exactly as they stood before
the columnar :mod:`repro.core.arrays` refactor (see the git history of
``src/repro/core/evaluation.py``), including the linear duplicate scan
the old ``ServiceInstance.assign`` performed.  ``bench_core.py`` times
them against the vectorized replacements and cross-checks parity; the
property tests in ``tests/core/test_metric_parity.py`` hold the two
paths within 1e-12 relative error.  ``total_latency_on_topology_scalar``
(the per-request Router walk) plays the same role for the fabric-aware
Eq. (16): ``bench_topo.py`` gates on it and
``tests/core/test_topology_parity.py`` holds the two within 1e-9.

The second half of the module preserves the pre-kernel *solver* paths
(legacy BFDSU, full-recount local search, per-candidate swap refine and
its per-VNF loop over a column schedule; the tuple-based
``karmarkar_karp_multiway`` stays in the library and is aliased here).
``bench_solvers.py`` times them against the array kernels and
``tests/core/test_solver_kernel_parity.py`` pins seed-for-seed
byte-identical outputs.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Tuple

import numpy as np

from repro.core.evaluation import EvaluationReport
from repro.core.objectives import per_request_response_time
from repro.core.topology_eval import _check_nodes, request_path_latency
from repro.exceptions import SchedulingError, ValidationError
from repro.nfv.instance import ServiceInstance
from repro.nfv.state import DeploymentState
from repro.scheduling.base import SchedulingProblem
from repro.topology.graph import DEFAULT_LINK_LATENCY
from repro.topology.routing import Router


def reference_instances(state: DeploymentState) -> List[ServiceInstance]:
    """Materialize instances the pre-refactor way (linear duplicate scan)."""
    table: Dict[Tuple[str, int], ServiceInstance] = {}
    for vnf in state.vnfs:
        for k in range(vnf.num_instances):
            table[(vnf.name, k)] = ServiceInstance(vnf=vnf, index=k)
    by_id = {r.request_id: r for r in state.requests}
    for (request_id, vnf_name), k in state.schedule.items():
        request = by_id.get(request_id)
        if request is None:
            raise ValidationError(
                f"schedule references unknown request {request_id!r}"
            )
        instance = table.get((vnf_name, k))
        if instance is None:
            raise ValidationError(
                f"schedule references unknown instance ({vnf_name!r}, {k})"
            )
        if not request.uses(vnf_name):
            raise SchedulingError(
                f"request {request_id!r} does not use VNF {vnf_name!r}; "
                "cannot schedule it here"
            )
        if any(r.request_id == request_id for r in instance.requests):
            raise SchedulingError(
                f"request {request_id!r} already scheduled on "
                f"instance {instance.key!r}"
            )
        instance.requests.append(request)
    return list(table.values())


def reference_average_node_utilization(state: DeploymentState) -> float:
    """Pre-refactor Eq. (13): python loop over nodes in service."""
    used = state.nodes_in_service()
    if not used:
        return 0.0
    return sum(state.node_utilization(v) for v in used) / len(used)


def reference_per_request_response_time(
    state: DeploymentState, instances: List[ServiceInstance]
) -> Dict[str, float]:
    """Pre-refactor first term of Eq. (16): dict walk per chain entry."""
    instance_w: Dict[Tuple[str, int], float] = {}
    for inst in instances:
        if inst.requests:
            instance_w[inst.key] = (
                inst.mean_response_time if inst.is_stable else math.inf
            )
    totals: Dict[str, float] = {}
    for request in state.requests:
        total = 0.0
        for vnf_name in request.chain:
            k = state.schedule.get((request.request_id, vnf_name))
            if k is None:
                raise SchedulingError(
                    f"request {request.request_id!r} unscheduled on "
                    f"VNF {vnf_name!r}"
                )
            total += instance_w[(vnf_name, k)]
        totals[request.request_id] = total
    return totals


def reference_total_latency(
    state: DeploymentState,
    link_latency: float,
    instances: List[ServiceInstance] = None,
) -> float:
    """Pre-refactor Eq. (16): per-request python accumulation."""
    if instances is None:
        instances = reference_instances(state)
    response = reference_per_request_response_time(state, instances)
    total = 0.0
    for request in state.requests:
        hops = state.inter_node_hops(request.request_id)
        total += response[request.request_id] + hops * link_latency
    return total


def total_latency_on_topology_scalar(state: DeploymentState, topology) -> float:
    """The per-request Router walk — the parity reference for
    :func:`repro.core.topology_eval.total_latency_on_topology`
    (identical contract)."""
    _check_nodes(state, topology)
    response = per_request_response_time(state)
    router = Router(topology)
    total = 0.0
    for request in state.requests:
        w = response[request.request_id]
        if math.isinf(w):
            return math.inf
        total += w + request_path_latency(state, router, request.request_id)
    return total


def reference_total_inter_node_hops(state: DeploymentState) -> int:
    """Pre-refactor hop count: one chain walk per request."""
    return sum(state.inter_node_hops(r.request_id) for r in state.requests)


def reference_evaluate_deployment(
    state: DeploymentState,
    link_latency: float = DEFAULT_LINK_LATENCY,
) -> EvaluationReport:
    """The pre-refactor object-path ``evaluate_deployment`` of a stable
    deployment, where admission control rejects nothing.

    The parity scenarios are sized to stay stable; were one overloaded,
    ``evaluate_deployment`` would report rejections this path does not,
    and ``bench_core.check_parity`` fails on the differing counts.
    """
    state.validate()
    instances = reference_instances(state)
    serving = [inst for inst in instances if inst.requests]

    if serving and all(i.is_stable for i in serving):
        avg_w = sum(i.mean_response_time for i in serving) / len(serving)
    else:
        avg_w = math.inf

    max_util = max((i.utilization for i in serving), default=0.0)

    if math.isfinite(avg_w):
        total = reference_total_latency(state, link_latency, instances)
        avg_total = total / len(state.requests) if state.requests else 0.0
    else:
        total = math.inf
        avg_total = math.inf

    return EvaluationReport(
        average_node_utilization=reference_average_node_utilization(state),
        nodes_in_service=len(state.nodes_in_service()),
        resource_occupation=sum(
            state.node_capacities[v] for v in state.nodes_in_service()
        ),
        average_response_latency=avg_w,
        max_instance_utilization=max_util,
        total_latency=total,
        average_total_latency=avg_total,
        num_rejected=0,
        rejection_rate=0.0,
    )


def reference_node_loads(result) -> Dict[Hashable, float]:
    """Pre-refactor ``PlacementResult.node_loads``: per-VNF dict loop."""
    loads: Dict[Hashable, float] = {}
    for vnf in result.problem.vnfs:
        node = result.placement.get(vnf.name)
        if node is None:
            continue
        loads[node] = loads.get(node, 0.0) + vnf.total_demand
    return loads


def reference_average_utilization(result) -> float:
    """Pre-refactor ``PlacementResult.average_utilization``."""
    loads = reference_node_loads(result)
    if not loads:
        return 0.0
    total = 0.0
    for node, load in loads.items():
        capacity = result.problem.capacities[node]
        total += load / capacity if capacity > 0 else 0.0
    return total / len(loads)


def reference_instance_rates(result) -> List[float]:
    """Pre-refactor ``ScheduleResult.instance_rates``: object aggregation."""
    instances = [
        ServiceInstance(vnf=result.problem.vnf, index=k)
        for k in range(result.problem.vnf.num_instances)
    ]
    for request in result.problem.requests:
        k = result.assignment.get(request.request_id)
        if k is None or not 0 <= k < len(instances):
            raise SchedulingError(
                f"request {request.request_id!r} has no valid instance"
            )
        instances[k].requests.append(request)
    return [inst.equivalent_arrival_rate for inst in instances]


def reference_schedule_all_vnfs(vnfs, requests, algorithm):
    """The object route of the joint ``z`` map: one ``SchedulingProblem``
    per used VNF (a quadratic user scan), one dict entry per (request,
    VNF) pair.  ``schedule_columns`` + ``ScenarioArrays.schedule_dict``
    must give the same items in the same order."""
    joint: Dict[Tuple[str, str], int] = {}
    for vnf in vnfs:
        users = [r for r in requests if r.uses(vnf.name)]
        if not users:
            continue
        result = algorithm.schedule(SchedulingProblem(vnf=vnf, requests=users))
        result.validate()
        for request_id, k in result.assignment.items():
            joint[(request_id, vnf.name)] = k
    return joint


# ----------------------------------------------------------------------
# Pre-kernel solver paths (PR 3), preserved verbatim from git history:
# the per-object BFDSU construction loop, the full-recount local-search
# hill climb, and the per-candidate swap-refine scan.  The multi-way KK
# legacy reference needs no copy — the tuple-based
# ``repro.partition.karmarkar_karp.karmarkar_karp_multiway`` stays in
# the library unchanged and is aliased here for symmetry.
# ----------------------------------------------------------------------

from typing import Optional  # noqa: E402

from repro.core.local_search import (  # noqa: E402
    RefinementReport,
    total_inter_node_hops,
)
from repro.exceptions import MaxRestartsExceededError  # noqa: E402
from repro.partition.karmarkar_karp import karmarkar_karp_multiway  # noqa: E402
from repro.placement.base import (  # noqa: E402
    PlacementProblem,
    PlacementResult,
    demand_sorted_vnfs,
)
from repro.placement.bfdsu import WEIGHT_OFFSET, placement_weights  # noqa: E402
from repro.seeding import RngLike, resolve_rng  # noqa: E402

#: The tuple-based multi-way KK differencing is the RCKK legacy path.
reference_kk_multiway = karmarkar_karp_multiway


class ReferenceBFDSU:
    """Pre-kernel BFDSU: dict residuals, used/spare lists, per-draw sort."""

    name = "BFDSU"

    def __init__(
        self,
        rng: Optional[RngLike] = None,
        max_restarts: int = 200,
        weight_offset: float = WEIGHT_OFFSET,
    ) -> None:
        self._rng = resolve_rng(rng)
        self._max_restarts = max_restarts
        self._weight_offset = weight_offset

    def place(self, problem: PlacementProblem) -> PlacementResult:
        problem.check_necessary_feasibility()
        vnfs = demand_sorted_vnfs(problem)
        attempts = 0
        draws = 0
        while attempts <= self._max_restarts:
            attempts += 1
            placement, attempt_draws = self._attempt(problem, vnfs)
            draws += attempt_draws
            if placement is not None:
                result = PlacementResult(
                    placement=placement,
                    problem=problem,
                    iterations=draws,
                    algorithm=self.name,
                )
                result.validate()
                return result
        raise MaxRestartsExceededError(
            f"BFDSU failed to find a feasible placement within "
            f"{self._max_restarts} restarts"
        )

    def _attempt(self, problem, vnfs):
        residual = dict(problem.capacities)
        used = []
        used_set = set()
        spare = list(problem.capacities.keys())
        placement = {}
        draws = 0

        for vnf in vnfs:
            demand = vnf.total_demand
            candidates = [v for v in used if residual[v] >= demand - 1e-9]
            if not candidates:
                candidates = [v for v in spare if residual[v] >= demand - 1e-9]
            if not candidates:
                return None, draws
            draws += 1
            target = self._weighted_draw(candidates, residual, demand)
            placement[vnf.name] = target
            residual[target] -= demand
            if target not in used_set:
                used_set.add(target)
                used.append(target)
                spare.remove(target)
        return placement, draws

    def _weighted_draw(self, candidates, residual, demand):
        ordered = sorted(candidates, key=lambda v: (residual[v], str(v)))
        weights = placement_weights(
            [residual[v] for v in ordered], demand, self._weight_offset
        )
        prob_sum = sum(weights)
        xi = self._rng.uniform(0.0, prob_sum)
        cumulative = 0.0
        for node, weight in zip(ordered, weights):
            cumulative += weight
            if xi < cumulative:
                return node
        return ordered[-1]


def reference_bfdsu_place(
    problem: PlacementProblem,
    rng: Optional[RngLike] = None,
    max_restarts: int = 200,
    weight_offset: float = WEIGHT_OFFSET,
) -> PlacementResult:
    """One legacy BFDSU run (convenience wrapper over the class)."""
    return ReferenceBFDSU(
        rng=rng, max_restarts=max_restarts, weight_offset=weight_offset
    ).place(problem)


def reference_refine_placement(
    state: DeploymentState,
    max_rounds: int = 10,
    trace=None,
) -> RefinementReport:
    """Pre-kernel relocate hill climb: full hop recount per candidate.

    Verbatim legacy loop (including the linear-scan fit check) plus the
    same optional ``trace`` hook the kernel exposes, so the parity tests
    can compare move sequences.
    """
    if max_rounds < 1:
        raise ValidationError(f"max_rounds must be >= 1, got {max_rounds!r}")
    state.validate()

    initial_hops = total_inter_node_hops(state)
    current_hops = initial_hops
    moves = 0

    nodes = list(state.node_capacities.keys())
    for _ in range(max_rounds):
        improved_this_round = False
        for vnf in state.vnfs:
            source = state.placement[vnf.name]
            best_target = None
            best_hops = current_hops
            for target in nodes:
                if target == source:
                    continue
                if not _reference_fits_after_move(state, vnf.name, target):
                    continue
                state.placement[vnf.name] = target
                hops = total_inter_node_hops(state)
                if hops < best_hops:
                    best_hops = hops
                    best_target = target
                state.placement[vnf.name] = source
            if best_target is not None:
                state.placement[vnf.name] = best_target
                current_hops = best_hops
                moves += 1
                improved_this_round = True
                if trace is not None:
                    trace.append((vnf.name, source, best_target))
        if not improved_this_round:
            break

    state.validate()
    return RefinementReport(
        moves_applied=moves,
        initial_hops=initial_hops,
        final_hops=current_hops,
        hops_saved=initial_hops - current_hops,
    )


def _reference_fits_after_move(
    state: DeploymentState, vnf_name: str, target: Hashable
) -> bool:
    vnf = next(f for f in state.vnfs if f.name == vnf_name)
    capacity = state.node_capacities.get(target)
    if capacity is None:
        return False
    load = sum(
        f.total_demand
        for f in state.vnfs
        if f.name != vnf_name and state.placement.get(f.name) == target
    )
    return load + vnf.total_demand <= capacity + 1e-9


def reference_refine_assignment(
    rates: List[float],
    assignment: List[int],
    num_ways: int,
    max_rounds: int = 20,
) -> Tuple[List[int], int]:
    """Pre-kernel move/swap scan: per-candidate makespan recomputation."""
    if max_rounds < 1:
        raise ValidationError(f"max_rounds must be >= 1, got {max_rounds!r}")
    current = list(assignment)
    sums = [0.0] * num_ways
    members = [[] for _ in range(num_ways)]
    for idx, way in enumerate(current):
        sums[way] += rates[idx]
        members[way].append(idx)

    def makespan_with(changes):
        return max(
            sums[w] + changes.get(w, 0.0) for w in range(num_ways)
        )

    moves = 0
    for _ in range(max_rounds):
        worst = max(range(num_ways), key=lambda w: sums[w])
        makespan = sums[worst]
        best_delta = 0.0
        best_action = None

        for idx in members[worst]:
            r = rates[idx]
            for target in range(num_ways):
                if target == worst:
                    continue
                delta = makespan - makespan_with({worst: -r, target: +r})
                if delta > best_delta + 1e-12:
                    best_delta = delta
                    best_action = ("move", idx, -1, target)
                for jdx in members[target]:
                    s = rates[jdx]
                    if s >= r:
                        continue
                    delta = makespan - makespan_with(
                        {worst: s - r, target: r - s}
                    )
                    if delta > best_delta + 1e-12:
                        best_delta = delta
                        best_action = ("swap", idx, jdx, target)

        if best_action is None:
            break
        kind, idx, jdx, target = best_action
        if kind == "move":
            members[worst].remove(idx)
            members[target].append(idx)
            sums[worst] -= rates[idx]
            sums[target] += rates[idx]
            current[idx] = target
        else:
            members[worst].remove(idx)
            members[target].remove(jdx)
            members[worst].append(jdx)
            members[target].append(idx)
            sums[worst] += rates[jdx] - rates[idx]
            sums[target] += rates[idx] - rates[jdx]
            current[idx], current[jdx] = target, worst
        moves += 1
    return current, moves


def reference_swap_refine_columns(arrays, sched, max_rounds: int = 20):
    """Per-VNF column refinement: one ``reference_refine_assignment`` per
    VNF with ``M_f > 1`` over its rows in schedule order.

    Returns the refined slot column (int64, in row order) and the total
    number of accepted moves.
    """
    rates = arrays.eff_rate.astype(np.float64)
    k = sched.k.astype(np.int64)
    moves = 0
    for f, m in enumerate(arrays.M_f.tolist()):
        rows = np.flatnonzero(sched.vnf == f)
        if m > 1 and len(rows):
            ways, applied = reference_refine_assignment(
                rates[sched.req[rows]].tolist(), k[rows].tolist(), m, max_rounds
            )
            k[rows] = ways
            moves += applied
    return k, moves
