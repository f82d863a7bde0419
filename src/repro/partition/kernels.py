"""List-based multi-way Karmarkar-Karp kernel (RCKK/CKK hot path).

:func:`kk_multiway_kernel` re-implements
:func:`repro.partition.karmarkar_karp.karmarkar_karp_multiway` and
produces the *identical* partition (same subsets, same within-subset
index order, same iteration count) for every input:

* A partition is one row of ``m`` negated values in ascending order
  (the legacy descending tuple, sign flipped) held as a Python list, plus
  a parallel list of provenance cells.  ``m`` is at most a few dozen, too
  small to repay numpy's per-call overhead.  Negation is exact in IEEE
  arithmetic, so every sum and floor subtraction gives the legacy value
  with its sign flipped, and every comparison the legacy one mirrored.
* Singletons ``(v, 0, .., 0)`` stay implicit (an index and the input
  value) until their first combine, and never enter the heap.  Two
  queues replace the legacy heap: the singletons in one stable sort of
  the negated values, which is their legacy heap order ``(-v, index)``,
  and a heap of the combined partitions only.  Each pop takes the
  smaller head; on a tie the singleton wins, because its legacy counter
  (its index, below ``n``) is below every combined partition's.  That is
  exactly the legacy pop order, so the combine sequence is unchanged.
* A combine takes one of two paths.  A reverse combine that pops a
  partition (or singleton) ``P`` first and a singleton ``s`` second is
  an *insertion*: ``P``'s last cell is exactly ``0.0``, so the legacy sum
  row is ``P[:m-1]`` followed by ``s``, and its stable descending sort
  puts ``s`` after every entry ``>= s`` -- one ``bisect`` and one list
  insert.  ``s`` takes over the provenance of ``P``'s last cell (joining
  its indices when that cell is occupied), and the floor is the new last
  entry, usually ``0.0``, whose subtraction is skipped as a no-op.  That
  is ``O(m)`` C-level list work, no sort and ``O(1)`` provenance work.
  Every other combine (partition + partition, singleton + partition, and
  every combine of the forward ablation) runs the legacy rule: cellwise
  sum, stable sort, floor subtraction, ``O(m log m)``.  On serve-shaped
  inputs (251-450 values, 16-23 ways) 95% of the combines are
  insertions and 90% end with a zero floor.
* Insertions come in runs: after absorbing ``s``, ``P`` is popped
  straight back whenever its new head beats the next singleton outright
  (``P``'s new counter would lose any tie) and that singleton wins its
  tie with the heap head -- one chained comparison.  The run then
  absorbs the next singleton without the heap push and pop; on
  serve-shaped inputs a run is about ``m`` insertions long.
* A provenance cell is the list of original indices its way holds, in
  legacy order, or ``None`` while empty.  Each list belongs to exactly
  one live cell, so a combine extends ``a``'s list by ``b``'s in place
  (``a_idx + b_idx`` without building a new tuple) and the final
  subsets are the final cells themselves.
* The heap holds ``(-head, counter, slot)`` triples with the legacy
  insertion counters (a run advances the counter once per skipped
  push), so its ties break as the legacy heap's do.

``tests/partition`` and ``tests/core/test_solver_kernel_parity.py`` pin
kernel-vs-legacy equality, on tie-heavy inputs too;
``benchmarks/bench_solvers.py`` tracks the speedup.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from typing import List, Optional, Sequence

from repro.partition.base import PartitionResult, validate_instance


def kk_multiway_kernel(
    values: Sequence[float],
    num_ways: int,
    reverse_combine: bool = True,
) -> PartitionResult:
    """Multi-way KK differencing on list rows with singleton insertion.

    Drop-in replacement for
    :func:`~repro.partition.karmarkar_karp.karmarkar_karp_multiway`
    with byte-identical output; see the module docstring for the
    representation and the combine cases.  ``reverse_combine=True`` is
    the paper's RCKK rule, ``False`` the deliberately weaker
    forward-ablation rule.
    """
    validate_instance(values, num_ways)
    n = len(values)
    if n == 0:
        return PartitionResult(
            subsets=[[] for _ in range(num_ways)], values=[], iterations=0
        )
    if num_ways == 1:
        return PartitionResult(
            subsets=[list(range(n))], values=list(values), iterations=0
        )

    m = num_ways
    neg = [-float(v) for v in values]
    # rows[slot] is None while the slot holds its implicit singleton; a
    # combine frees two slots and writes one, so reusing slot ``a``
    # keeps at most n rows.  A provenance cell is the list of indices
    # that way holds, in legacy order, or None while it is empty; each
    # list belongs to one live cell, so combines extend it in place.
    rows: List = [None] * n
    provs: List = [None] * n
    pad_values = [0.0] * (m - 1)
    pad_prov: List[Optional[List[int]]] = [None] * (m - 1)

    # Two queues.  The singletons never enter the heap: they wait in
    # one stable sort of the negated values, which is their legacy heap
    # order (-value, index).  The heap holds the combined partitions
    # only, keyed (-head, counter) with counter >= n, so a singleton
    # ties a combined head and wins exactly when its index -- always
    # below n -- would have won the legacy tuple comparison.
    # ``heads`` ends in +inf and the heap in a +inf sentinel, so neither
    # queue ever runs dry inside the loop and both tests are one compare.
    singles = sorted(range(n), key=neg.__getitem__)
    heads = [neg[i] for i in singles]
    heads.append(math.inf)
    heap: List = [(math.inf, -1, -1)]
    heappop, heappush = heapq.heappop, heapq.heappush
    nxt = 0
    counter = n
    left = n - 1
    while left:
        left -= 1
        if heap[0][0] < heads[nxt]:
            a = heappop(heap)[2]
        else:
            a = singles[nxt]
            nxt += 1
        if heap[0][0] < heads[nxt]:
            b = heappop(heap)[2]
        else:
            b = singles[nxt]
            nxt += 1
        row = rows[a]
        if reverse_combine and rows[b] is None:
            # Insertion: drop P's exact-zero last cell, insert s after
            # every entry >= s; s joins the dropped cell's indices.
            if row is None:
                row = [neg[a]] + pad_values[1:]
                prov = [[a]] + pad_prov[1:]
                cell = [b]
            else:
                prov = provs[a]
                row.pop()
                cell = prov.pop()
                if cell is None:
                    cell = [b]
                else:
                    cell.append(b)
            s = neg[b]
            while True:
                at = bisect_right(row, s)
                row.insert(at, s)
                prov.insert(at, cell)
                floor = row[-1]
                if floor:
                    row = [x - floor for x in row]
                # A run: P would be pushed and popped straight back as
                # the first of the next pair, with the next singleton
                # second, when P's head beats that singleton outright
                # (P's new counter loses every tie) and the singleton
                # wins its tie with the heap head.  Skip the round trip.
                if not (left and row[0] < heads[nxt] <= heap[0][0]):
                    break
                left -= 1
                counter += 1
                b = singles[nxt]
                s = heads[nxt]
                nxt += 1
                row.pop()
                cell = prov.pop()
                if cell is None:
                    cell = [b]
                else:
                    cell.append(b)
        else:
            if row is None:
                row, prov_a = [neg[a]] + pad_values, [[a]] + pad_prov
            else:
                prov_a = provs[a]
            row_b, prov_b = rows[b], provs[b]
            if row_b is None:
                row_b, prov_b = [neg[b]] + pad_values, [[b]] + pad_prov
            if reverse_combine:
                row_b, prov_b = row_b[::-1], prov_b[::-1]
            combined = [x + y for x, y in zip(row, row_b)]
            merged = []
            for cell_a, cell_b in zip(prov_a, prov_b):
                if cell_a is None:
                    merged.append(cell_b)
                else:
                    if cell_b is not None:
                        cell_a.extend(cell_b)
                    merged.append(cell_a)
            # Legacy normalized(): the stable ascending sort of negated
            # values is the stable descending sort of the values.
            order = sorted(range(m), key=combined.__getitem__)
            row = [combined[k] for k in order]
            prov = [merged[k] for k in order]
            floor = row[-1]
            if floor:
                row = [x - floor for x in row]
        rows[a] = row
        provs[a] = prov
        heappush(heap, (row[0], counter, a))
        counter += 1

    final = heap[0][2]
    cells = provs[final] if final >= 0 else [[0]] + pad_prov
    result = PartitionResult(
        subsets=[cell if cell is not None else [] for cell in cells],
        values=list(values),
        iterations=n - 1,
    )
    result.validate()
    return result
