"""Join-the-least-loaded request scheduler.

Greedy in *given request order* (not sorted): each request joins the
instance with the smallest current aggregate rate.  This is the online
version of LPT; sorting first turns it into the greedy/LPT partition
(which is CGA's first leaf), so it sits between round-robin and CGA in
solution quality and serves as an online-policy reference.

Over a whole table (:meth:`LeastLoadedScheduler.assign_segments`) the
greedy runs step-major: step ``t`` assigns user ``t`` of every VNF that
has more than ``t`` users, as a few numpy calls over a (VNFs x
``max M_f``) load table.  VNFs are ordered by user count, so the VNFs
still active at a step are a prefix of the table, and the rows are
gathered in step order, so each step's rates are one contiguous slice.
Once fewer than :data:`_LANES` VNFs remain, their remaining users run
through the scalar heap from their current loads.  Both halves add
``load + rate`` in user order and break ties on the lowest ``k``
(``argmin``'s first index is the heap's ``(load, k)`` order), so the
rows are those of the per-VNF heap, bit for bit.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import SchedulingError
from repro.scheduling.base import Assignment, SchedulingAlgorithm

#: Active VNFs below which the vector steps hand over to the heap.  A
#: vector step over a few VNFs costs about as much as ~20 heap steps
#: (~4 us against ~0.2 us on a 2-core x86 host, numpy 2.x), so a step
#: of fewer VNFs than this is cheaper one heap step per VNF.  The
#: handover point only moves time between the two halves, never the
#: result, so it is a constant, not an option.
_LANES = 16


def least_loaded_admit(
    loads: np.ndarray,
    rate: float,
    capacity: Optional[float] = None,
    fit_eps: float = 1e-9,
) -> int:
    """Single-request warm-start admit: pick one instance for ``rate``.

    The O(M) kernel behind :class:`~repro.core.incremental
    .DeploymentEngine` admits, on any instance-load vector:

    * the least-loaded instance wins, first index on ties
      (``argmin``), matching the heap tie-break above and the
      legacy scalar ``min(..., key=(load, index))``;
    * with ``capacity`` given, the join is admitted only if the winner
      stays within ``capacity + fit_eps`` (the Eq. (6) slack
      convention) — returns ``-1`` to signal rejection, leaving every
      caller-side residual untouched.

    ``loads`` is not modified; committing the join is the caller's
    ``loads[k] += rate``.
    """
    if not len(loads):
        return -1
    k = int(loads.argmin())
    if capacity is not None and loads[k] + rate > capacity + fit_eps:
        return -1
    return k


def _heap_ways(rates: Sequence[float], loads: List[float]) -> List[int]:
    """One VNF's greedy from instance loads ``loads``: a heap of
    ``(aggregate load, k)`` pairs; each user joins the minimum (lowest
    ``k`` on equal loads) and pushes back ``load + rate``."""
    heap = [(load, k) for k, load in enumerate(loads)]
    heapq.heapify(heap)
    heapreplace = heapq.heapreplace
    ways = []
    for rate in rates:
        load, k = heap[0]
        ways.append(k)
        heapreplace(heap, (load + rate, k))
    return ways


class LeastLoadedScheduler(SchedulingAlgorithm):
    """Assign each request (in order) to the currently least-loaded instance."""

    name = "LeastLoaded"

    def assign(self, rates: Sequence[float], m: int) -> Assignment:
        """One VNF: the one-segment case of :meth:`assign_segments`,
        which runs only the heap."""
        if m < 1:
            raise SchedulingError(f"need at least one instance, got {m}")
        ways = _heap_ways(rates, [0.0] * m)
        return Assignment(ways=ways, iterations=len(ways))

    def assign_segments(
        self, rates: np.ndarray, ptr: np.ndarray, m: np.ndarray
    ) -> Assignment:
        """Every VNF's greedy at once: step-major vector steps while at
        least :data:`_LANES` VNFs are active, then the heap."""
        used = np.flatnonzero(np.diff(ptr))
        short = used[m[used] < 1]
        if len(short):
            raise SchedulingError(
                f"need at least one instance, got {int(m[short[0]])}"
            )
        ways = np.empty(len(rates), dtype=np.int64)
        if len(used) >= _LANES:
            steps, tail = _step_major(rates, ptr, m, used, ways)
        else:
            steps, tail = 0, [(f, [0.0] * int(m[f])) for f in used.tolist()]
        for f, loads in tail:
            lo, hi = int(ptr[f]) + steps, int(ptr[f + 1])
            ways[lo:hi] = _heap_ways(rates[lo:hi].tolist(), loads)
        return Assignment(ways=ways)


def _step_major(
    rates: np.ndarray,
    ptr: np.ndarray,
    m: np.ndarray,
    used: np.ndarray,
    ways: np.ndarray,
) -> Tuple[int, List[Tuple[int, List[float]]]]:
    """The vector steps of :meth:`LeastLoadedScheduler.assign_segments`
    over the segments ``used`` (at least :data:`_LANES` of them): writes
    the ways of every user they assign, and returns their number of
    steps and the segments left for the heap, with their loads."""
    # Segments by user count, largest first: the active ones at any
    # step are a prefix.
    counts = np.diff(ptr)
    by_size = used[np.argsort(-counts[used], kind="stable")]
    n = counts[by_size]
    m_by_size = m[by_size]
    width = int(m_by_size.max())
    loads = np.where(np.arange(width) < m_by_size[:, None], 0.0, np.inf)
    steps = int(n[_LANES - 1])
    # active[t] segments take a user at step t; slot start[t] + i of
    # the step-major rows is user t of the i-th segment.
    active = np.searchsorted(-n, -np.arange(steps), side="left")
    start = np.zeros(steps + 1, dtype=np.int64)
    np.cumsum(active, out=start[1:])
    step = np.repeat(np.arange(steps), active)
    rows = ptr[by_size][np.arange(len(step)) - start[step]] + step
    step_rates = rates[rows]
    step_ways = np.empty(len(rows), dtype=np.intp)
    flat = loads.reshape(-1)
    base = np.arange(len(n)) * width
    cell = np.empty(len(n), dtype=np.intp)
    bounds = start.tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        a = hi - lo
        k = step_ways[lo:hi]
        loads[:a].argmin(axis=1, out=k)
        idx = np.add(base[:a], k, out=cell[:a])
        flat[idx] += step_rates[lo:hi]
    ways[rows] = step_ways
    tail = np.flatnonzero(n > steps).tolist()
    return steps, [
        (int(by_size[i]), loads[i, : m_by_size[i]].tolist()) for i in tail
    ]
