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
candidate grid, the kernel argues in four steps:

1. **Single-peaked in the partner rate.**  ``makespan + (s - r)`` is
   nondecreasing and ``sums[t] + (r - s)`` nonincreasing in ``s``,
   since every rounded ``+``/``-`` is monotone in each operand, so the
   delta is quasi-concave in ``s``.  Over ``t``'s partner rates sorted
   ascending, the best swap is the first partner at which the
   worst-side sum reaches the target side, or the one just below it.
   All ways' partners sit in one array sorted by (way, rate), so two
   ``searchsorted`` calls find that position for every ``(r, t)`` from
   the key ``r - (makespan - sums[t]) / 2``; the exact float predicate
   (itself monotone) confirms it, and an exact bisection repairs the
   rare position that rounding put off.  Every partner ``s >= r``
   leaves the worst way at ``>= makespan``, so the crossing never lies
   past the valid partners, and letting an invalid partner's delta
   (``<= 0``) into a block's best cannot change which blocks clear the
   margin.
2. **Only record-breaking blocks can hold the winner.**  Every accepted
   candidate beats every earlier candidate (one that did not would have
   been accepted itself), so its block's best beats every earlier
   block's best, and the margin.
3. **No block beats the cap.**  ``r - s`` rounds to exactly ``-(s -
   r)``, so of the two sides one is at least the real midpoint of
   ``makespan`` and ``sums[t]`` before rounding, hence at least its
   rounding ``mid(t)`` (taken as ``-inf`` where the sum overflows or
   halving could round): no block with target ``t`` beats ``makespan -
   max(o(t), mid(t))``, and no block of the grid beats the largest of
   these, the *cap*.  Once a block reaches the cap, no later block
   breaks a record, so the grid is evaluated a few rows (worst items)
   at a time, 1, 1, 2, 4, ... rows, until a block reaches the cap or
   the rows run out; a grid of at most 64 blocks is evaluated whole.
   The cap is usually reached: the best block typically makes the
   second-largest way the largest.
4. **Replay only the record-breaking blocks.**  They are expanded with
   the legacy expressions in enumeration order and the margin rule is
   replayed on the record breakers of their concatenation.  Skipped
   candidates were never accepted, so the replay's state matches the
   full scan's at every kept candidate.

Segments
--------
The kernel refines many independent problems at once, one *segment*
per VNF: segment ``f`` owns the contiguous global ways
``[ptr[f], ptr[f + 1])`` (its instances), and an item belongs to the
segment of its way for good.  Round ``j`` runs for every segment still
active in one pass of array operations, with no loop over segments:

* way sums are one ``bincount`` over the items' global ways, which adds
  its weights in item order, so each way accumulates exactly as a
  per-segment loop would;
* a partner's key is ``way * stride + rank``, the rank coming from one
  sort of all rates; how equal rates are ranked does not matter, since
  equal partners give equal sides.  The keys are sorted once, and a
  moved item is re-keyed by one delete and one insert per round;
* member order is a per-item stamp: items start stamped by index, and
  a moved item takes the next fresh stamp, so it sorts last in its new
  way as the legacy ``append`` put it; members are kept sorted by
  ``way * span + stamp`` the same way;
* the worst-way maxima, top-two sums and caps are ``reduceat`` over
  the segments' runs of ways; a stage of the grid holds the cells of
  every segment still evaluating, in search order (target, then rate,
  so the search keys ascend), and scatters their blocks' bests back to
  block order;
* the prefix maximum that finds record breakers runs over all segments
  at once on exact integer keys: every value above the margin is
  replaced by its dense rank among them, offset by ``segment * count``,
  so a segment's keys all exceed every earlier segment's and ordering
  within a segment is the float ordering;
* the margin rule then replays on each segment's record breakers.

A segment drops out when its worst way has no items or its round finds
no improving candidate, as the legacy loop's ``break`` does; the rounds
end when no segment is left or after ``max_rounds``.  The kernel
therefore selects, per segment, the identical candidate, hence the
identical move sequence and final assignment.  :func:`refine_assignment`
is its one-segment case, and :func:`swap_refine_columns` runs every VNF
of a schedule as one call.  The legacy scan survives as
``reference_refine_assignment`` in ``benchmarks/_reference_impl.py``,
pinned by ``tests/core/test_solver_kernel_parity.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.arrays import ScenarioArrays, ScheduleArrays
from repro.core.dtypes import ensure_index_capacity
from repro.exceptions import ValidationError
from repro.scheduling.base import Assignment, SchedulingAlgorithm
from repro.scheduling.rckk import RCKKScheduler

#: Acceptance margin of the legacy scan: a candidate is taken only when
#: its delta beats the best so far by more than this.
_MARGIN = 1e-12

#: A grid of at most this many blocks is evaluated in one stage: below
#: it, the fixed cost of another stage outweighs the blocks it skips.
_ONE_STAGE_CELLS = 64

#: Below this magnitude halving a float may round.
_TINY = 2.0**-1020


def refine_assignment(
    rates: Sequence[float],
    assignment: Sequence[int],
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

    Raises
    ------
    ValidationError
        If ``max_rounds`` or ``num_ways`` is below 1, ``rates`` and
        ``assignment`` differ in length, or a way lies outside
        ``[0, num_ways)``.
    """
    if max_rounds < 1:
        raise ValidationError(f"max_rounds must be >= 1, got {max_rounds!r}")
    if num_ways < 1:
        raise ValidationError(f"num_ways must be >= 1, got {num_ways!r}")
    values = np.asarray(rates, dtype=np.float64)
    ways = np.array(assignment, dtype=np.int64)
    if values.ndim != 1 or values.shape != ways.shape:
        raise ValidationError(
            f"rates must give one value per assigned item: "
            f"{values.shape} rates for {ways.shape} ways"
        )
    outside = (ways < 0) | (ways >= num_ways)
    if outside.any():
        raise ValidationError(
            f"assignment ways must lie in [0, {num_ways}), got "
            f"{int(ways[outside][0])} at item {int(np.argmax(outside))}"
        )
    refined, moves = _refine_segments(
        values, ways, np.array([0, num_ways]), max_rounds
    )
    return refined.tolist(), moves


def _refine_segments(
    rates: np.ndarray,
    way: np.ndarray,
    ptr: np.ndarray,
    max_rounds: int,
) -> Tuple[np.ndarray, int]:
    """The segmented kernel: refine every segment's ways at once.

    ``rates`` (float64) and ``way`` (int64 global ways) describe the
    items; segment ``f`` owns ways ``[ptr[f], ptr[f + 1])``.  Refines
    ``way`` in place and returns it with the number of accepted moves
    over all segments.
    """
    n = len(rates)
    num_ways = int(ptr[-1])
    width = np.diff(ptr)
    # A move of r to t is exactly a swap with a zero-rate partner
    # (s - r = -r and r - s = r in IEEE arithmetic), so every way gets
    # one phantom partner of rate 0.0, at index n + way; it comes first
    # in the way's enumeration order, as the move came first in the
    # legacy scan.  For r <= 0 neither can win: both deltas are <= 0.
    ext = np.concatenate((rates, np.zeros(num_ways)))
    # Way sums accumulate item by item in index order, as the legacy +=
    # loop did (bincount adds its weights sequentially), and are then
    # updated with the legacy expressions, so all rounding is identical.
    sums = np.bincount(way, weights=rates, minlength=num_ways)

    # Every way's partners, ascending, in one array: partner i sorts on
    # way * stride + rank(i), rank ordering all rates, and each way's run
    # is fenced by a -inf and a +inf sentinel (ranks 0 and size + 1).
    # How equal rates are ranked does not matter: equal partners give
    # equal sides.
    size = n + num_ways
    stride = size + 2
    order = np.argsort(ext)
    rank = np.empty(size, dtype=np.int64)
    rank[order] = np.arange(1, size + 1)
    fenced = np.concatenate(([-np.inf], ext[order], [np.inf]))
    sorted_ext = fenced[1:-1]
    fences = np.arange(num_ways, dtype=np.int64) * stride
    pkeys = np.sort(
        np.concatenate(
            (
                np.concatenate((way, np.arange(num_ways))) * stride + rank,
                fences,
                fences + stride - 1,
            )
        )
    )

    # Members of every way in member order: item i sorts on
    # way * span + stamp[i], and stamp_item inverts the stamps.
    active = np.flatnonzero(width > 1)
    span = n + 2 * max_rounds * len(active)
    stamp = np.arange(n, dtype=np.int64)
    stamp_item = np.empty(span, dtype=np.int64)
    stamp_item[:n] = stamp
    mkeys = np.sort(way * span + stamp)
    fresh = n

    moves = 0
    for _ in range(max_rounds):
        if not len(active):
            break
        # Each segment's worst way (the first largest sum) and its items;
        # a segment whose worst way is empty has nothing to move.
        ways, wseg = _ranges(ptr[active], width[active])
        worst = ways[_first_max(sums[ways], wseg, width[active])]
        lo = mkeys.searchsorted(worst * span)
        count = mkeys.searchsorted((worst + 1) * span) - lo
        keep = count > 0
        if not keep.all():
            active, worst, lo, count = (
                a[keep] for a in (active, worst, lo, count)
            )
            ways, wseg = _ranges(ptr[active], width[active])
        if not len(active):
            break
        makespan = sums[worst]
        m = width[active] - 1

        # Per target t: its sum, o[t] = the max sum over ways other than
        # worst and t (top two), and half the gap to the makespan.
        is_target = ways != worst[wseg]
        targets, tseg = ways[is_target], wseg[is_target]
        t_sums = sums[targets]
        t_first = _starts(m)
        top = _first_max(t_sums, tseg, m)
        rest = t_sums.copy()
        rest[top] = -np.inf
        o = t_sums[top][tseg]
        o[top] = np.maximum.reduceat(rest, t_first)
        half = (makespan[tseg] - t_sums) * 0.5
        # No block with target t beats makespan - max(o[t], mid[t]), mid
        # the rounded midpoint of makespan and sums[t]: every partner's
        # new sum is at least mid.  So no block beats its segment's cap.
        cap = np.maximum.reduceat(
            makespan[tseg] - np.maximum(o, _midpoint(makespan[tseg], t_sums)),
            t_first,
        )

        # Each segment's grid of blocks, one per (worst item, target) in
        # block order (items in member order, then targets), evaluated a
        # few rows at a time, doubling, until a block reaches the cap --
        # no later block can then beat every earlier one -- or the rows
        # run out; a small grid is evaluated whole.  Only blocks whose
        # best beats every earlier block's of their segment and the
        # margin can hold an accepted candidate.
        pos, _ = _ranges(lo, count)
        items = stamp_item[mkeys[pos] % span]
        first = _starts(count)
        cells = count * m
        cell_first = _starts(cells)
        blocks, bests = [], []
        done = np.zeros(len(active), dtype=np.int64)
        peak = np.full(len(active), -np.inf)
        live = np.flatnonzero(cap > _MARGIN)
        step = np.where(cells <= _ONE_STAGE_CELLS, count, 1)
        while len(live):
            # The stage's cells in search order: per segment one row per
            # target, each row the stage's worst items by ascending rate,
            # so the search keys ascend.  The best partner of (r, t) is
            # the first s of t (ascending) whose worst-side sum reaches
            # t's sum, or the one before: approximately at the key
            # r - (makespan - sums[t]) / 2, then confirmed exactly.
            rows = np.minimum(step[live], count[live] - done[live])
            pick, iseg = _ranges(first[live] + done[live], rows)
            pick = pick[np.argsort(iseg * stride + rank[items[pick]])]
            tgt, slot = _ranges(t_first[live], m[live])
            cell, row_of = _ranges(_starts(rows)[slot], rows[slot])
            at = pick[cell]
            c_t = tgt[row_of]
            cseg = live[slot[row_of]]
            R = ext[items[at]]
            St = t_sums[c_t]
            top_sum = makespan[cseg]
            fence = targets[c_t] * stride
            pos = pkeys.searchsorted(
                fence + sorted_ext.searchsorted(R - half[c_t]) + 1
            )
            best_new, ok = _partner_pair(
                fenced, pkeys, stride, pos, R, St, top_sum
            )
            if not ok.all():
                partner = fenced[pkeys % stride]
                for i in np.flatnonzero(~ok):
                    lo_i, hi_i = pkeys.searchsorted(
                        (fence[i], fence[i] + stride - 1)
                    )
                    pos[i] = _first_crossing(
                        partner, lo_i, hi_i, R[i], St[i], top_sum[i]
                    )
                best_new, ok = _partner_pair(
                    fenced, pkeys, stride, pos, R, St, top_sum
                )
            best = top_sum - np.maximum(o[c_t], best_new)
            blocks.append(
                cell_first[cseg]
                + (at - first[cseg]) * m[cseg]
                + (c_t - t_first[cseg])
            )
            bests.append(best)
            peak[live] = np.maximum(
                peak[live], np.maximum.reduceat(best, _starts(rows * m[live]))
            )
            done[live] += rows
            live = live[(peak[live] < cap[live]) & (done[live] < count[live])]
            step *= 2
        if not blocks:
            break
        blocks = np.concatenate(blocks)
        by_block = np.argsort(blocks)
        blocks = blocks[by_block]
        seg = np.searchsorted(np.cumsum(cells), blocks, side="right")
        kept = _records(np.concatenate(bests)[by_block], seg)
        if not len(kept):
            break
        blocks, seg = blocks[kept], seg[kept]
        row, col = np.divmod(blocks - cell_first[seg], m[seg])
        b_item = items[first[seg] + row]
        b_t = t_first[seg] + col
        b_way = targets[b_t]

        # Replay the legacy rule on just those blocks, expanded in the
        # legacy enumeration order with the legacy expressions: t's
        # phantom, then t's members (position lo - 1 stands for the
        # phantom).
        lo = mkeys.searchsorted(b_way * span)
        size_b = mkeys.searchsorted((b_way + 1) * span) - lo + 1
        pos, owner = _ranges(lo - 1, size_b)
        cand = stamp_item[mkeys[pos] % span]
        cand[_starts(size_b)] = n + b_way
        r = ext[b_item][owner]
        s = ext[cand]
        M = makespan[seg][owner]
        new = np.maximum(
            o[b_t][owner],
            np.maximum(M + (s - r), t_sums[b_t][owner] + (r - s)),
        )
        delta = np.where(s < r, M - new, -np.inf)
        win = _margin_winners(delta, seg[owner])

        # Apply each segment's winner with the legacy expressions.
        block_w = owner[win]
        idx = b_item[block_w]
        jdx = cand[win]
        seg = seg[block_w]
        src, dst = worst[seg], b_way[block_w]
        r, s = ext[idx], ext[jdx]
        sums[src] += s - r
        sums[dst] += r - s
        swap = jdx < n
        moved = np.concatenate((idx, jdx[swap]))
        old = np.concatenate((src, dst[swap]))
        into = np.concatenate((dst, src[swap]))
        pkeys = _rekey(
            pkeys, old * stride + rank[moved], into * stride + rank[moved]
        )
        new_stamp = np.arange(fresh, fresh + len(moved))
        fresh += len(moved)
        stamp_item[new_stamp] = moved
        mkeys = _rekey(
            mkeys, old * span + stamp[moved], into * span + new_stamp
        )
        stamp[moved] = new_stamp
        way[moved] = into
        moves += len(win)
        active = active[seg]
    return way, moves


def _midpoint(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(a + b) * 0.5``, the rounded real midpoint, or ``-inf`` where it
    might not be: the sum overflows, or is so small that halving
    rounds."""
    total = a + b
    exact = np.isfinite(total) & (np.abs(total) >= _TINY)
    return np.where(exact, total * 0.5, -np.inf)


def _starts(counts: np.ndarray) -> np.ndarray:
    """Where each of consecutive runs of ``counts`` begins."""
    return np.cumsum(counts) - counts


def _ranges(lo: np.ndarray, counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The concatenated ranges ``[lo[i], lo[i] + counts[i])`` and, for
    each entry, the range ``i`` it came from."""
    owner = np.repeat(np.arange(len(counts)), counts)
    at = np.arange(len(owner)) - _starts(counts)[owner]
    return lo[owner] + at, owner


def _first_max(values: np.ndarray, seg: np.ndarray, counts: np.ndarray):
    """Index of the first largest value of each nonempty run of
    ``counts``, as Python's ``max`` picks it (``seg`` = run of each
    value)."""
    starts = _starts(counts)
    top = np.maximum.reduceat(values, starts)
    at = np.where(values == top[seg], np.arange(len(values)), len(values))
    return np.minimum.reduceat(at, starts)


def _records(values: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """Indices of the values above the margin that beat every earlier
    value of their segment (``seg`` nondecreasing).

    The segmented prefix maximum runs on exact integer keys: each kept
    value's dense rank among the kept values, offset by ``seg`` times
    their count, so every key of a segment exceeds every earlier
    segment's, and within a segment keys order as the floats do.
    """
    kept = np.flatnonzero(values > _MARGIN)
    if not len(kept):
        return kept
    distinct, dense = np.unique(values[kept], return_inverse=True)
    key = seg[kept] * len(distinct) + dense
    beats = np.empty(len(kept), dtype=bool)
    beats[0] = True
    np.greater(key[1:], np.maximum.accumulate(key)[:-1], out=beats[1:])
    return kept[beats]


def _margin_winners(delta: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """The candidate each segment's legacy rule accepts last.

    The rule accepts ``delta > best + margin`` with ``best`` (from 0.0)
    updated on accept, so every accepted candidate is a record breaker
    above the margin; the rule is replayed on just those.  Every
    segment in ``seg`` has one, since its record block's best clears
    the margin.
    """
    rec = _records(delta, seg)
    wins: List[int] = []
    current = best = None
    for i, g, d in zip(rec.tolist(), seg[rec].tolist(), delta[rec].tolist()):
        if g != current:
            current, best = g, d
            wins.append(i)
        elif d > best + _MARGIN:
            best = d
            wins[-1] = i
    return np.array(wins, dtype=np.int64)


def _rekey(keys: np.ndarray, old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """``keys`` (sorted, distinct) with the keys ``old`` replaced by
    ``new``, still sorted."""
    keys = np.delete(keys, keys.searchsorted(old))
    new = np.sort(new)
    return np.insert(keys, keys.searchsorted(new), new)


def _partner_pair(fenced, keys, stride, pos, R, St, makespan):
    """Best new sum of the swaps with the partners at ``pos - 1``, ``pos``.

    ``fenced[keys[p] % stride]`` is the partner rate at key position
    ``p``.  Below the crossing the swap's new sum is the target side
    ``sums[t] + (r - s)``, at and past it the worst side
    ``makespan + (s - r)``; the best of the two, floored by ``o``
    outside, is the block's best swap.  ``ok`` says that ``pos`` is
    exactly the first partner whose worst side reaches its target side.
    Sentinels make a missing partner's side ``inf``.
    """
    s = fenced[keys[np.stack((pos - 1, pos))] % stride]
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

    Refines every VNF with ``M_f > 1`` at once, one segment each, in the
    kernel of which :func:`refine_assignment` is the one-segment case:
    a VNF's items are its rows in schedule order — the object path's
    enumeration order for schedules built by
    :func:`~repro.scheduling.kernels.schedule_columns` — so each VNF
    gets the move sequence ``refine_assignment`` gives it alone.  The
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
    offset = arrays.instance_offset.astype(np.int64, copy=False)
    base = offset[sched.vnf]
    inst, moves = _refine_segments(
        arrays.eff_rate[sched.req].astype(np.float64),
        base + sched.k,
        offset,
        max_rounds,
    )
    new_k = (inst - base).astype(sched.k.dtype)
    inst = inst.astype(sched.inst.dtype, copy=False)
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
