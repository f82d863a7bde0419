"""Swap/move refinement of a schedule — local search after RCKK.

One-pass differencing leaves residual imbalance; the classic cleanup is
local search over two move types:

* **move** — reassign one request from the most-loaded instance to a
  lighter one,
* **swap** — exchange two requests between the most-loaded instance and
  another,

accepting only moves that reduce the *makespan* (the largest instance
rate — the quantity Eq. (12) says dominates the worst ``W(f,k)``).
:class:`SwapRefinedScheduler` wraps any base scheduler with this
refinement, giving an anytime upgrade path between RCKK and the exact
search.

Sorted-partner candidate scan
-----------------------------
The legacy scan enumerates, for each item ``r`` of the worst way (in
member order) and each other way ``t`` (ascending), a *block* of
candidates: the move of ``r`` to ``t``, then the swaps of ``r`` with
each ``s < r`` of ``t`` (member order).  It accepts ``delta > best +
1e-12`` with ``best`` updated on accept; a candidate's delta is
``makespan - new``, where with ``o(t)`` = the largest sum over ways
other than ``worst`` and ``t`` a swap yields ``new = max(o(t),
makespan + (s - r), sums[t] + (r - s))``.  A move is exactly a swap
with ``s = 0.0`` (``s - r`` is ``-r`` and ``r - s`` is ``r`` in IEEE
arithmetic), so every way carries one zero-rate phantom partner that
stands for the move.  Instead of evaluating the O(n_worst * n)
candidate grid, the kernel argues in three steps:

1. **Single-peaked in the partner rate.**  ``makespan + (s - r)`` is
   nondecreasing and ``sums[t] + (r - s)`` nonincreasing in ``s``,
   since every rounded ``+``/``-`` is monotone in each operand, so the
   delta is quasi-concave in ``s``.  Over ``t``'s partner rates sorted
   ascending, the best swap is the first partner at which the
   worst-side sum reaches the target side, or the one just below it.
   All ways' partners sit in one array sorted by (way, rate), so two
   ``searchsorted`` calls per round find that position for every
   ``(r, t)`` from the key ``r - (makespan - sums[t]) / 2``; the exact
   float predicate (itself monotone) confirms it, and an exact
   bisection repairs the rare position that rounding put off.
   Every partner ``s >= r`` leaves the worst way at ``>= makespan``, so
   the crossing never lies past the valid partners, and letting an
   invalid partner's delta (``<= 0``) into a block's best cannot change
   which blocks clear the margin.
2. **Only record-breaking blocks can hold the winner.**  Every accepted
   candidate is a strict prefix-max record breaker (see
   :func:`~repro.core.deltas.select_improving_record_breaker`), so its
   block's best beats every earlier block's best, and the margin.
3. **Replay only those blocks.**  They are expanded with the legacy
   expressions in enumeration order and the margin rule is replayed on
   their concatenation.  Skipped candidates were never accepted, so
   the replay's state matches the full scan's at every kept candidate.

The kernel therefore selects the identical candidate, hence the
identical move sequence and final assignment, in O(n_worst * ways *
log n) per round plus a sort of the O(n) partner keys.  The legacy
scan survives as ``reference_refine_assignment`` in
``benchmarks/_reference_impl.py``, pinned by
``tests/core/test_solver_kernel_parity.py``.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.arrays import ScenarioArrays, ScheduleArrays
from repro.core.deltas import select_improving_record_breaker
from repro.core.dtypes import ensure_index_capacity
from repro.exceptions import ValidationError
from repro.scheduling.base import Assignment, SchedulingAlgorithm
from repro.scheduling.rckk import RCKKScheduler

#: Acceptance margin of the legacy scan: a candidate is taken only when
#: its delta beats the best so far by more than this.
_MARGIN = 1e-12


def refine_assignment(
    rates: List[float],
    assignment: List[int],
    num_ways: int,
    max_rounds: int = 20,
) -> Tuple[List[int], int]:
    """Hill-climb move/swap until the makespan stops improving.

    Parameters
    ----------
    rates:
        Per-item values (request effective rates).
    assignment:
        Item -> way indices; modified copies are returned, the input is
        untouched.
    num_ways:
        Number of ways (instances).
    max_rounds:
        Bound on improvement rounds.

    Returns
    -------
    (assignment, moves)
        The refined assignment and the number of accepted moves.
    """
    if max_rounds < 1:
        raise ValidationError(f"max_rounds must be >= 1, got {max_rounds!r}")
    current = list(assignment)
    n = len(current)
    members: List[List[int]] = [[] for _ in range(num_ways)]
    for idx, way in enumerate(current):
        members[way].append(idx)
    # A move of r to t is exactly a swap with a zero-rate partner
    # (s - r = -r and r - s = r in IEEE arithmetic), so every way gets
    # one phantom partner of rate 0.0, at index n + way; it comes first
    # in the way's enumeration order, as the move came first in the
    # legacy scan.  For r <= 0 neither can win: both deltas are <= 0.
    ext = np.zeros(n + num_ways)
    ext[:n] = rates
    ways = np.asarray(current + list(range(num_ways)), dtype=np.int64)
    # Way sums accumulate item by item in index order, as the legacy +=
    # loop did (bincount adds its weights sequentially), and are then
    # updated with the legacy expressions, so all rounding is identical.
    sums = np.bincount(ways[:n], weights=ext[:n], minlength=num_ways).tolist()

    # Every way's partner rates, ascending, in one array: partner i sorts
    # on way * stride + rank(i), rank ordering all rates (ties by index),
    # and each way's run is fenced by a -inf and a +inf sentinel.
    size = n + num_ways
    stride = size + 2
    order = np.argsort(ext, kind="stable")
    sorted_ext = ext[order]
    fenced = np.concatenate(([-np.inf], sorted_ext, [np.inf]))
    rank = np.empty(size, dtype=np.int64)
    rank[order] = np.arange(1, size + 1)
    fences = np.arange(num_ways, dtype=np.int64) * stride
    keys = np.concatenate((ways * stride + rank, fences, fences + stride - 1))

    moves = 0
    for _ in range(max_rounds):
        worst = max(range(num_ways), key=lambda w: sums[w])
        makespan = sums[worst]
        row_items = members[worst]
        tlist = [t for t in range(num_ways) if t != worst]
        if not row_items or not tlist:
            break

        # Per target t: its sum, o[t] = the max sum over ways other than
        # worst and t (top two), and half the gap to the makespan.
        t_sums = [sums[t] for t in tlist]
        i1 = max(range(len(tlist)), key=t_sums.__getitem__)
        others = [t_sums[i1]] * len(tlist)
        others[i1] = max(t_sums[:i1] + t_sums[i1 + 1 :], default=-np.inf)
        per_target = np.array(
            [others, t_sums, [(makespan - v) * 0.5 for v in t_sums]],
            dtype=np.float64,
        )
        o, St, half = per_target[..., None]

        # One row per target t, one column per worst-way item r, items by
        # ascending rate so the searches below get sorted keys.  The best
        # partner of (r, t) is the first s of t (ascending) whose
        # worst-side sum reaches t's sum, or the one before: approximately
        # at the key r - (makespan - sums[t]) / 2, then confirmed exactly.
        Rv = ext[row_items]
        by_rate = np.argsort(Rv, kind="stable")
        R = Rv[by_rate]
        sorted_keys = np.sort(keys)
        partner = fenced[sorted_keys % stride]
        base = fences[tlist][:, None]
        pos = sorted_keys.searchsorted(
            base + sorted_ext.searchsorted(R - half) + 1
        )
        best_new, ok = _partner_pair(partner, pos, R, St, makespan)
        if not ok.all():
            for t, i in zip(*np.nonzero(~ok)):
                fence = base[t, 0]
                lo, hi = sorted_keys.searchsorted((fence, fence + stride - 1))
                pos[t, i] = _first_crossing(
                    partner, lo, hi, R[i], St[t, 0], makespan
                )
            best_new, ok = _partner_pair(partner, pos, R, St, makespan)

        # Block (r, t) = r's candidates with t in enumeration order, rows
        # back in member order; only blocks whose best beats every earlier
        # block's and the margin can hold an accepted candidate.
        block_best = np.empty((len(row_items), len(tlist)))
        block_best[by_rate] = (makespan - np.maximum(o, best_new)).T
        record = np.maximum.accumulate(
            np.concatenate(([_MARGIN], block_best.ravel()))
        )
        blocks = np.flatnonzero(record[1:] > record[:-1])
        if not len(blocks):
            break

        # Replay the legacy rule on just those blocks, expanded in the
        # legacy enumeration order with the legacy expressions.
        rows, cols = np.divmod(blocks, len(tlist))
        parts = [
            [n + tlist[c], *members[tlist[c]]] for c in cols.tolist()
        ]
        lens = [len(q) for q in parts]
        r = np.repeat(Rv[rows], lens)
        s = ext[np.fromiter(chain.from_iterable(parts), np.int64, sum(lens))]
        o_t, s_t = np.repeat(per_target[:2, cols], lens, axis=1)
        new = np.maximum(o_t, np.maximum(makespan + (s - r), s_t + (r - s)))
        sel = select_improving_record_breaker(
            np.where(s < r, makespan - new, -np.inf), _MARGIN
        )

        b = bisect_right(list(accumulate(lens)), sel)
        idx = row_items[int(rows[b])]
        target = tlist[int(cols[b])]
        jdx = parts[b][sel - sum(lens[:b])]
        if jdx >= n:
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
            keys[jdx] = worst * stride + rank[jdx]
        keys[idx] = target * stride + rank[idx]
        moves += 1
    return current, moves


#: Gather offsets of the partner pair around a crossing position.
_PAIR = np.array([1, 0]).reshape(2, 1, 1)


def _partner_pair(partner, pos, R, St, makespan):
    """Best new sum of the swaps with the partners at ``pos - 1``, ``pos``.

    Below the crossing the swap's new sum is the target side
    ``sums[t] + (r - s)``, at and past it the worst side
    ``makespan + (s - r)``; the best of the two, floored by ``o``
    outside, is the block's best swap.  ``ok`` says that ``pos`` is
    exactly the first partner whose worst side reaches its target side.
    Sentinels make a missing partner's side ``inf``.
    """
    s = partner[pos - _PAIR]
    worst_side = makespan + (s - R)
    target_side = St + (R - s)
    reached = worst_side >= target_side
    ok = reached[1] > reached[0]
    return np.minimum(target_side[0], worst_side[1]), ok


def _first_crossing(partner, lo, hi, r, s_t, makespan):
    """Exact bisection for the crossing in the run fenced at ``lo``, ``hi``."""
    a, b = lo + 1, hi
    while a < b:
        mid = (a + b) // 2
        s = partner[mid]
        if makespan + (s - r) >= s_t + (r - s):
            b = mid
        else:
            a = mid + 1
    return a


def swap_refine_columns(
    arrays: ScenarioArrays,
    sched: ScheduleArrays,
    max_rounds: int = 20,
) -> Tuple[ScheduleArrays, int]:
    """Move/swap makespan refinement straight on an index-form schedule.

    Runs :func:`refine_assignment` once per VNF over the schedule's
    rows, grouped with a stable sort so each VNF's users keep their
    schedule order — the object path's enumeration order for schedules
    built by :func:`~repro.scheduling.kernels.schedule_columns`.  The
    effective rates are widened to float64 *before* any way sum
    accumulates, so :data:`~repro.core.dtypes.LEAN_POLICY` columns
    (int32 indices, float32 rates) produce the byte-identical move
    sequence to the default policy whenever both hold the same values.

    Returns a new :class:`ScheduleArrays` preserving row order and the
    input's dtypes, plus the total number of accepted moves.  The
    refinement can assign a request to *any* of a VNF's ``M_f`` slots —
    not just slots already used — so the slot-index dtype must be able
    to hold the largest ``M_f``, guarded here via
    :func:`~repro.core.dtypes.ensure_index_capacity`.
    """
    if max_rounds < 1:
        raise ValidationError(f"max_rounds must be >= 1, got {max_rounds!r}")
    ensure_index_capacity(
        int(arrays.M_f.max(initial=0)),
        sched.k.dtype,
        "swap-refined instance slots",
    )
    new_k = sched.k.copy()
    moves = 0
    if len(sched):
        eff64 = arrays.eff_rate.astype(np.float64, copy=False)
        order = np.argsort(sched.vnf, kind="stable")
        vs = sched.vnf[order]
        starts = np.flatnonzero(np.r_[True, vs[1:] != vs[:-1]])
        bounds = np.r_[starts, len(vs)]
        for gi in range(len(starts)):
            lo, hi = int(bounds[gi]), int(bounds[gi + 1])
            m = int(arrays.M_f[int(vs[lo])])
            if m <= 1:
                continue
            rows = order[lo:hi]
            refined, applied = refine_assignment(
                eff64[sched.req[rows]],
                sched.k[rows].tolist(),
                m,
                max_rounds,
            )
            new_k[rows] = np.asarray(refined, dtype=new_k.dtype)
            moves += applied
    inst = (arrays.instance_offset[sched.vnf] + new_k).astype(
        sched.inst.dtype, copy=False
    )
    return (
        ScheduleArrays(
            req=sched.req.copy(), vnf=sched.vnf.copy(), k=new_k, inst=inst
        ),
        moves,
    )


class SwapRefinedScheduler(SchedulingAlgorithm):
    """A base scheduler followed by move/swap makespan refinement.

    Parameters
    ----------
    base:
        The scheduler producing the starting assignment (default RCKK).
    max_rounds:
        Refinement rounds per VNF.
    """

    name = "SwapRefined"

    def __init__(
        self,
        base: Optional[SchedulingAlgorithm] = None,
        max_rounds: int = 20,
    ) -> None:
        self._base = base if base is not None else RCKKScheduler()
        self._max_rounds = max_rounds
        self.name = f"SwapRefined({self._base.name})"

    def assign(self, rates: Sequence[float], m: int) -> Assignment:
        base = self._base.assign(rates, m)
        start = list(base.ways)
        if base.order is not None:
            # Back to user order: refinement works per user.
            for i, way in zip(base.order, base.ways):
                start[i] = way
        refined, moves = refine_assignment(
            rates, start, m, self._max_rounds
        )
        return Assignment(ways=refined, iterations=base.iterations + moves)
