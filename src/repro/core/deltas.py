"""Shared solver delta kernels — the incremental-update building blocks.

PR 3's array-native solvers all reduce to the same handful of
incremental primitives: a bincount over chain-neighbor placements that
scores every relocate target at once, an O(1) capacity fit check
against a running load vector, and trial-commit/revert bookkeeping
against per-link bandwidth residuals.  They used to live as private
helpers inside :mod:`repro.core.local_search`; this module promotes
them to a public, shared surface so the batch solvers and the incremental
:class:`~repro.core.incremental.DeploymentEngine` run the *same* code.

Byte-identity contract
----------------------
Every function here was moved verbatim (same numpy op sequence, same
accumulation order, same tie-breaking) from its original call site.
The batch solvers wired on top — ``refine_placement``,
``swap_placement``, BFDSU — therefore remain byte-identical per seed
to the pre-refactor implementations, which is
pinned by ``tests/core/test_solver_kernel_parity.py`` against the
legacy loops in ``benchmarks/_reference_impl.py``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

#: Capacity slack absorbing float accumulation error (the Eq. (6)
#: convention).  BFDSU and the relocate/swap passes all compare against
#: ``capacity + FIT_EPS``; :mod:`repro.placement.bfdsu` re-exports this
#: for backward compatibility.
FIT_EPS = 1e-9


def relocate_scores(
    placement_vec: np.ndarray,
    nbr: np.ndarray,
    demand: float,
    loads: np.ndarray,
    capacity_slack: np.ndarray,
    num_nodes: int,
    source: int,
) -> tuple:
    """Score every relocate target of one VNF in two bincount-style ops.

    ``nbr`` is the VNF's chain-neighbor multiset slice
    (:meth:`ScenarioArrays.vnf_chain_neighbors`); the hop delta of
    moving the VNF from ``source`` to node ``t`` is
    ``count(placement[nbr] == source) - count(placement[nbr] == t)``,
    so ``neighbor_counts`` ranks all targets at once.  Targets without
    capacity room (``loads + demand > capacity + FIT_EPS``) and the
    source itself score ``-1``.

    Returns ``(neighbor_counts, scores)``; a move to ``t`` improves the
    Eq. (16) total iff ``scores[t] > neighbor_counts[source]``.
    """
    neighbor_counts = np.bincount(
        placement_vec[nbr], minlength=num_nodes
    )
    fits = loads + demand <= capacity_slack
    scores = np.where(fits, neighbor_counts, -1)
    scores[source] = -1
    return neighbor_counts, scores


def best_allowed_target(
    scores: np.ndarray, allowed: Optional[np.ndarray] = None
) -> int:
    """Best-scoring feasible target under an optional allow-mask.

    The selection half of a masked relocate: ``scores`` follows the
    :func:`relocate_scores` convention (``-1`` marks an infeasible
    target), ``allowed`` is a boolean node mask (e.g. the non-failed
    nodes during crash recovery — :mod:`repro.faults.recovery`).
    Returns the argmax over the allowed feasible targets, first index
    on ties (the deterministic ``np.argmax`` rule), or ``-1`` when no
    target survives the mask.
    """
    if allowed is not None:
        scores = np.where(allowed, scores, -1)
    t = int(np.argmax(scores))
    return t if scores[t] >= 0 else -1


def best_bandwidth_feasible(
    network,
    fi: int,
    source: int,
    placement_vec: np.ndarray,
    link_loads: np.ndarray,
    scores: np.ndarray,
    source_score: int,
) -> Optional[int]:
    """Best improving target that also passes the link-bandwidth check.

    Scans candidates in descending score (ties in node order — the same
    ranking the unconstrained argmax applies) and returns the first that
    fits, with ``link_loads`` updated to the committed move; returns
    ``None`` (state untouched) when no improving target fits.
    """
    # Retract f's routed flows so the residuals describe "f unplaced".
    network.add_flows(fi, source, placement_vec, link_loads, -1.0)
    placement_vec[fi] = -1
    chosen: Optional[int] = None
    for t in np.argsort(-scores, kind="stable"):
        t = int(t)
        if scores[t] <= source_score:
            break
        if network.fits(fi, t, placement_vec, link_loads):
            chosen = t
            break
    if chosen is None:
        placement_vec[fi] = source
        network.add_flows(fi, source, placement_vec, link_loads, 1.0)
        return None
    network.add_flows(fi, chosen, placement_vec, link_loads, 1.0)
    return chosen


def try_swap_bandwidth(
    network, f: int, g: int, s: int, t: int, pl: np.ndarray, link_loads
) -> bool:
    """Trial-commit the swap against link bandwidth; False reverts all.

    On True, ``link_loads`` reflects the swapped flows and ``pl`` holds
    the swapped nodes (the caller's subsequent assignment is a no-op).
    """
    network.add_flows(f, s, pl, link_loads, -1.0)
    pl[f] = -1
    network.add_flows(g, t, pl, link_loads, -1.0)
    pl[g] = -1
    if not network.fits(f, t, pl, link_loads):
        network.add_flows(g, t, pl, link_loads, 1.0)
        pl[g] = t
        network.add_flows(f, s, pl, link_loads, 1.0)
        pl[f] = s
        return False
    network.add_flows(f, t, pl, link_loads, 1.0)
    pl[f] = t
    if not network.fits(g, s, pl, link_loads):
        network.add_flows(f, t, pl, link_loads, -1.0)
        pl[f] = -1
        network.add_flows(g, t, pl, link_loads, 1.0)
        pl[g] = t
        network.add_flows(f, s, pl, link_loads, 1.0)
        pl[f] = s
        return False
    network.add_flows(g, s, pl, link_loads, 1.0)
    pl[g] = s
    return True


class UniformBlock:
    """Batched ``uniform(0, 1)`` draws, bit-identical to scalar draws.

    ``Generator.uniform(0.0, s)`` computes ``s * random()`` — one double
    off the bit stream — and ``Generator.random(n)`` fills ``n`` doubles
    from the *same* stream in the same order as ``n`` scalar calls.
    Pre-drawing a block and scaling each value by the per-draw weight
    sum therefore reproduces every legacy ``xi`` exactly, while
    amortizing the per-call Generator dispatch over ``block`` draws —
    which dominates the BFDSU hot loop at million-draw scale.

    The block may over-consume the underlying stream by up to
    ``block - 1`` doubles relative to scalar drawing; callers that
    share an RNG with non-block consumers must route *every* draw
    through the block (as :class:`~repro.placement.bfdsu.BFDSUPlacement`
    does) so the k-th draw always reads the k-th stream double.
    """

    __slots__ = ("_rng", "_block", "_buf", "_pos")

    def __init__(self, rng: np.random.Generator, block: int = 4096) -> None:
        if block < 1:
            raise ValueError(f"block must be >= 1, got {block!r}")
        self._rng = rng
        self._block = int(block)
        self._buf = np.empty(0)
        self._pos = 0

    def next(self) -> float:
        """The next uniform(0, 1) double of the underlying stream."""
        if self._pos >= len(self._buf):
            self._buf = self._rng.random(self._block)
            self._pos = 0
        u = self._buf[self._pos]
        self._pos += 1
        return float(u)


def weighted_draw_index(
    residuals: np.ndarray,
    demand: float,
    rng: Optional[np.random.Generator] = None,
    offset: float = 1.0,
    u01: Optional[float] = None,
) -> int:
    """Draw a position from ``residuals`` (ascending-RST candidate order).

    The kernel form of BFDSU Algorithm 1's lines 12-16: weights
    ``1 / (offset + RST(v) - D_f^sum)``, one ``uniform(0, sum(weights))``
    RNG consumption, selection by ``searchsorted`` over the cumulative
    weights.  The cumulative sum accumulates left-to-right exactly like
    the legacy running total, so the same ``xi`` selects the same
    position.  The floating-point edge ``xi == sum(weights)`` returns
    the last candidate, as the legacy loop's fall-through did.

    ``u01`` supplies a pre-drawn uniform(0, 1) double (see
    :class:`UniformBlock`) instead of consuming ``rng``;
    ``sum(weights) * u01`` is bitwise what ``uniform(0, sum)`` computes,
    so both forms select identical positions.
    """
    weights = 1.0 / (offset + residuals - demand)
    cumulative = weights.cumsum()
    if u01 is None:
        xi = rng.uniform(0.0, float(cumulative[-1]))
    else:
        xi = float(cumulative[-1]) * u01
    pos = int(cumulative.searchsorted(xi, side="right"))
    return min(pos, len(weights) - 1)
