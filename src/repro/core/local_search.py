"""Local-search refinement of the coordinated objective (Eq. 16).

The two-phase pipeline optimizes its phases separately; the paper's
"coordination" insight (Section III-C) is that the *total* latency —
instance response times plus ``L`` per inter-node chain hop — is what
operators actually pay.  This module post-optimizes a joint solution
with hill climbing over **relocate** moves:

    move one VNF (all its instances, per Eq. 2) to another node with
    room, keeping the schedule fixed, if that strictly lowers the
    Eq. (16) total.

Relocation changes only the communication term (response times depend
on the schedule, not the placement), so move evaluation is O(requests
touching the VNF) and the search converges quickly.  This realizes the
paper's Fig. 1 motivation — converting inter-server chains into
intra-server chains — as an explicit optimization step.

Incremental delta evaluation
----------------------------
The hill-climbing kernel never recounts hops globally.  Moving VNF
``f`` from node ``s`` to node ``t`` changes only the chain transitions
adjacent to ``f``'s entries, so with ``nbr`` = the chain-neighbor
multiset of ``f`` (``ScenarioArrays.vnf_chain_neighbors``), the total
hop delta is::

    hops(t) - hops(s) = count(placement[nbr] == s) - count(placement[nbr] == t)

One ``np.bincount`` over ``placement[nbr]`` therefore scores *every*
candidate target at once, and a per-node load vector (recomputed from
the placement after each applied move, in VNF order, so its float
accumulation matches the legacy per-candidate sum bit for bit) makes
the Eq. (6) fit check O(1) per candidate.  The move sequence and final
report are identical to the full-recount hill climb, which is preserved
as ``reference_refine_placement`` in ``benchmarks/_reference_impl.py``
and pinned by ``tests/core/test_solver_kernel_parity.py``.

The primitives themselves — the relocate score kernel, the
bandwidth-feasible target scan, the trial-commit swap — live in
:mod:`repro.core.deltas`, shared with the incremental
:class:`~repro.core.incremental.DeploymentEngine`; this module wires
them into the batch hill climbs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Optional, Tuple

import numpy as np

from repro.core.arrays import ScenarioArrays
from repro.core.deltas import (
    FIT_EPS,
    best_bandwidth_feasible,
    relocate_scores,
    try_swap_bandwidth,
)
from repro.core.dtypes import ensure_index_capacity
from repro.exceptions import ValidationError
from repro.nfv.state import DeploymentState


@dataclass(frozen=True)
class RefinementReport:
    """Outcome of a local-search refinement run."""

    moves_applied: int
    initial_hops: int
    final_hops: int
    #: Link-latency savings per request set traversal, in units of L.
    hops_saved: int


def total_inter_node_hops(state: DeploymentState) -> int:
    """Sum of Eq. (16)'s hop counts over all requests.

    One vectorized pass over the chain CSR; an unplaced chain VNF or a
    node missing from the capacity map raises ``ValidationError``.
    """
    arrays = state.arrays()
    placement_vec = arrays.checked_placement_vector(state.placement)
    return int(arrays.hops_per_request(placement_vec).sum())


def refine_placement(
    state: DeploymentState,
    max_rounds: int = 10,
    trace: Optional[List[Tuple[str, Hashable, Hashable]]] = None,
    network=None,
) -> RefinementReport:
    """Hill-climb relocate moves reducing total inter-node hops.

    The state's ``placement`` is modified in place; the schedule is
    untouched (so per-instance response times are invariant and the
    Eq. (16) delta is exactly ``hops_delta * L < 0``).

    Parameters
    ----------
    state:
        A validated joint deployment.
    max_rounds:
        Full passes over the VNF list; the search also stops at the
        first pass with no improving move.
    trace:
        Optional list receiving one ``(vnf_name, source, target)`` tuple
        per applied move, in order — the hook the kernel-parity tests
        use to pin the move sequence.
    network:
        Optional :class:`~repro.topology.network.NetworkModel`.  When
        given, every candidate target must additionally keep all routed
        link loads within bandwidth (:meth:`NetworkModel.fits
        <repro.topology.network.NetworkModel.fits>`): the climb scans
        targets in score order and takes the best bandwidth-feasible
        one.  ``None`` (the default) leaves the search byte-identical to
        the unconstrained kernel.

    Returns
    -------
    RefinementReport
        Move and hop accounting.
    """
    if max_rounds < 1:
        raise ValidationError(f"max_rounds must be >= 1, got {max_rounds!r}")
    state.validate()
    # validate() guarantees every VNF is placed on a known node and
    # every chain entry names a known VNF, so the delta kernel applies.
    placement_vec = state.arrays().placement_vector(state.placement)
    return _refine_delta(state, placement_vec, max_rounds, trace, network)


def refine_placement_columns(
    arrays: ScenarioArrays,
    placement_vec: np.ndarray,
    max_rounds: int = 10,
    trace: Optional[List[Tuple[int, int, int]]] = None,
    network=None,
) -> RefinementReport:
    """The incremental kernel on bare columns: no state object needed.

    ``placement_vec`` (node index per VNF, mutated in place) is refined
    with the same neighbor-count deltas and O(1) fit checks as
    :func:`refine_placement`; ``trace`` receives ``(vnf_index,
    source_node_index, target_node_index)`` tuples.  This is the entry
    point the million-request pipeline calls directly on streamed
    scenarios — including :data:`~repro.core.dtypes.LEAN_POLICY`
    columns, where the capacity and demand operands are widened to
    float64 before the ``FIT_EPS`` slack is applied (adding ``1e-9`` to
    a float32 capacity would round it away entirely), so the move
    sequence is byte-identical to the default policy whenever the lean
    columns hold the same values.
    """
    if max_rounds < 1:
        raise ValidationError(f"max_rounds must be >= 1, got {max_rounds!r}")
    if arrays.chain_has_unknown:
        raise ValidationError(
            "refine_placement_columns requires chains over known VNFs"
        )
    if bool((placement_vec < 0).any()):
        raise ValidationError(
            "refine_placement_columns requires a full placement"
        )
    num_nodes = len(arrays.node_keys)
    # Relocation targets are written back into placement_vec; a dtype
    # too narrow for the node axis would wrap them silently.
    ensure_index_capacity(
        num_nodes, placement_vec.dtype, "relocate target nodes"
    )
    nbr_ptr, nbr = arrays.vnf_chain_neighbors()
    # Legacy fit check: load(target) + D_f^sum <= A_v + FIT_EPS, with
    # float64 accumulators (node_loads is float64 by construction; the
    # capacity column is widened before the slack is added).
    capacity_slack = arrays.A_v.astype(np.float64, copy=False) + FIT_EPS

    initial_hops = int(arrays.hops_per_request(placement_vec).sum())
    current_hops = initial_hops
    moves = 0
    loads = arrays.node_loads(placement_vec)
    link_loads = (
        network.link_loads(placement_vec) if network is not None else None
    )

    for _ in range(max_rounds):
        improved_this_round = False
        for fi in range(len(arrays.vnf_names)):
            lo, hi = int(nbr_ptr[fi]), int(nbr_ptr[fi + 1])
            if lo == hi:
                # No chain transition touches this VNF: every relocate
                # is hop-neutral, and the climb accepts only strict
                # improvements.
                continue
            source = int(placement_vec[fi])
            neighbor_counts, scores = relocate_scores(
                placement_vec,
                nbr[lo:hi],
                float(arrays.total_demand_f[fi]),
                loads,
                capacity_slack,
                num_nodes,
                source,
            )
            if network is None:
                # First-best target in node order == the legacy scan
                # that kept the first strict improvement over the
                # running best.
                target = int(np.argmax(scores))
                if scores[target] <= neighbor_counts[source]:
                    continue
            else:
                target = best_bandwidth_feasible(
                    network,
                    fi,
                    source,
                    placement_vec,
                    link_loads,
                    scores,
                    int(neighbor_counts[source]),
                )
                if target is None:
                    continue
            placement_vec[fi] = target
            current_hops += int(neighbor_counts[source]) - int(scores[target])
            loads = arrays.node_loads(placement_vec)
            moves += 1
            improved_this_round = True
            if trace is not None:
                trace.append((fi, source, int(target)))
        if not improved_this_round:
            break

    return RefinementReport(
        moves_applied=moves,
        initial_hops=initial_hops,
        final_hops=current_hops,
        hops_saved=initial_hops - current_hops,
    )


def _refine_delta(
    state: DeploymentState,
    placement_vec: np.ndarray,
    max_rounds: int,
    trace: Optional[List[Tuple[str, Hashable, Hashable]]],
    network=None,
) -> RefinementReport:
    """Object-state wrapper around :func:`refine_placement_columns`."""
    arrays = state.arrays()
    idx_trace: List[Tuple[int, int, int]] = []
    report = refine_placement_columns(
        arrays, placement_vec, max_rounds, idx_trace, network
    )
    for fi, source, target in idx_trace:
        state.placement[arrays.vnf_names[fi]] = arrays.node_keys[target]
        if trace is not None:
            trace.append(
                (
                    arrays.vnf_names[fi],
                    arrays.node_keys[source],
                    arrays.node_keys[target],
                )
            )
    state.validate()
    return report


@dataclass(frozen=True)
class SwapReport:
    """Outcome of a placement-level swap pass."""

    swaps_applied: int
    #: Eq. (16) communication totals before/after, in seconds.
    initial_latency: float
    final_latency: float
    latency_saved: float


def swap_placement(
    state: DeploymentState,
    max_rounds: int = 10,
    topology=None,
    link_latency: float = 1e-4,
    network=None,
    trace: Optional[List[Tuple[str, str, Hashable, Hashable]]] = None,
) -> SwapReport:
    """Best-improvement pairwise **exchange** of VNF placements.

    Relocation (:func:`refine_placement`) needs spare capacity on the
    target node; on tightly packed fabrics no single move fits and the
    climb stalls.  Exchanging the nodes of two VNFs sidesteps that: the
    swap is feasible whenever each node can absorb the *difference* of
    the two demand bundles, and on a real fabric it can trade a pair of
    long cross-fabric adjacencies for short ones.

    The objective is Eq. (16)'s communication term — flat ``L`` per
    inter-node transition when ``topology`` is ``None``, the fabric's
    measured shortest-path latencies otherwise.  Swapping ``f`` (node
    ``s``) with ``g`` (node ``t``) changes it by::

        delta = A_f(t) + A_g(s) - A_f(s) - A_g(t) + 2 m_fg lat[s, t]

    where ``A_f(x)`` sums ``lat[x, placement[n]]`` over ``f``'s chain
    neighbors ``n`` and ``m_fg`` is the ``f``-``g`` adjacency
    multiplicity (the correction removes the pair's own double-counted
    terms; their mutual latency is ``lat[t, s] = lat[s, t]`` either
    way).  All ``O(F^2)`` deltas are evaluated as one matrix expression
    per applied swap; the best strictly improving, capacity- and
    bandwidth-feasible exchange is applied until none remains (or
    ``max_rounds * F`` swaps, a safety bound).

    Parameters
    ----------
    state:
        A validated, fully placed joint deployment; mutated in place.
        The schedule is untouched.
    max_rounds:
        Swap budget multiplier (the pass stops at the first iteration
        with no improving feasible exchange).
    topology:
        Optional fabric (``DatacenterTopology`` or its arrays) supplying
        measured latencies.
    link_latency:
        The flat per-hop ``L`` used when ``topology`` is ``None``.
    network:
        Optional :class:`~repro.topology.network.NetworkModel`; when
        given, a swap must also keep every routed link within bandwidth.
    trace:
        Optional list receiving ``(vnf_f, vnf_g, node_s, node_t)`` per
        applied swap.
    """
    if max_rounds < 1:
        raise ValidationError(f"max_rounds must be >= 1, got {max_rounds!r}")
    state.validate()
    # validate() guarantees a full placement on known nodes and chains
    # over known VNFs.
    arrays = state.arrays()
    placement_vec = arrays.placement_vector(state.placement)

    num_vnfs = len(arrays.vnf_names)
    num_nodes = len(arrays.node_keys)
    if topology is not None:
        topo, node_compute = arrays.topology_view(topology)
        lat = topo.latency[np.ix_(node_compute, node_compute)]
    else:
        lat = link_latency * (1.0 - np.eye(num_nodes))

    def comm_total(vec: np.ndarray) -> float:
        if topology is not None:
            return float(
                arrays.topology_latency_per_request(vec, topology).sum()
            )
        return float(arrays.hops_per_request(vec).sum()) * link_latency

    nbr_ptr, nbr = arrays.vnf_chain_neighbors()
    owners = np.repeat(
        np.arange(num_vnfs, dtype=np.int64), np.diff(nbr_ptr)
    )
    multiplicity = np.zeros((num_vnfs, num_vnfs), dtype=np.float64)
    if len(owners):
        np.add.at(multiplicity, (owners, nbr), 1.0)
    # Widen lean columns before the slack/difference arithmetic: the
    # fit comparison must see float64 on both sides regardless of the
    # scenario's DtypePolicy (float32 + 1e-9 rounds the slack away).
    demands = arrays.total_demand_f.astype(np.float64, copy=False)
    capacity_slack = arrays.A_v.astype(np.float64, copy=False) + FIT_EPS
    loads = arrays.node_loads(placement_vec)
    link_loads = (
        network.link_loads(placement_vec) if network is not None else None
    )

    initial = comm_total(placement_vec)
    swaps = 0
    budget = max_rounds * max(num_vnfs, 1)
    upper = np.triu_indices(num_vnfs, k=1)

    while swaps < budget:
        pl = placement_vec
        # A[f, x] = sum over f's chain neighbors n of lat[x, pl[n]].
        A = np.zeros((num_vnfs, num_nodes), dtype=np.float64)
        if len(owners):
            np.add.at(A, owners, lat[:, pl[nbr]].T)
        B = A[:, pl]  # B[f, g] = A_f(pl[g])
        diag = np.diagonal(B).copy()
        delta = (
            B
            + B.T
            - diag[:, None]
            - diag[None, :]
            + 2.0 * multiplicity * lat[pl][:, pl]
        )
        # Capacity: node pl[f] must absorb swapping f's bundle for g's.
        fit_f = (
            loads[pl][:, None] - demands[:, None] + demands[None, :]
            <= capacity_slack[pl][:, None]
        )
        feasible = fit_f & fit_f.T & (pl[:, None] != pl[None, :])
        candidate = np.zeros_like(feasible)
        candidate[upper] = feasible[upper] & (delta[upper] < -1e-12)
        if not candidate.any():
            break

        pairs = np.argwhere(candidate)
        applied = False
        for k in np.argsort(delta[candidate], kind="stable"):
            f, g = (int(x) for x in pairs[k])
            s, t = int(pl[f]), int(pl[g])
            if network is not None and not try_swap_bandwidth(
                network, f, g, s, t, pl, link_loads
            ):
                continue
            pl[f], pl[g] = t, s
            state.placement[arrays.vnf_names[f]] = arrays.node_keys[t]
            state.placement[arrays.vnf_names[g]] = arrays.node_keys[s]
            loads = arrays.node_loads(pl)
            swaps += 1
            applied = True
            if trace is not None:
                trace.append(
                    (
                        arrays.vnf_names[f],
                        arrays.vnf_names[g],
                        arrays.node_keys[s],
                        arrays.node_keys[t],
                    )
                )
            break
        if not applied:
            break

    state.validate()
    final = comm_total(placement_vec)
    return SwapReport(
        swaps_applied=swaps,
        initial_latency=initial,
        final_latency=final,
        latency_saved=initial - final,
    )
