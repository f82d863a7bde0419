"""Complete Greedy Algorithm (CGA) for multi-way number partitioning.

Korf's CGA [IJCAI'09] searches the tree in which each level assigns the
next-largest value to one of the ``m`` ways, visiting ways in increasing
current-sum order so the *first* leaf is exactly the greedy/LPT solution.
Run to exhaustion it is optimal; truncated it is an anytime heuristic.

The paper uses CGA as the request-scheduling baseline and reports it both
slower-converging and less balanced than RCKK at the scales evaluated
(Figs. 11-14), which corresponds to CGA operating under a bounded node
budget.  ``max_nodes`` makes the budget explicit; the default explores a
small multiple of the greedy path, matching the baseline's behaviour while
keeping worst-case runtime linear-ish.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.exceptions import ValidationError
from repro.partition.base import PartitionResult, validate_instance


def complete_greedy_partition(
    values: Sequence[float],
    num_ways: int,
    max_nodes: Optional[int] = None,
    presort: bool = True,
) -> PartitionResult:
    """Partition with CGA under a node budget.

    Parameters
    ----------
    values:
        Non-negative numbers to partition.
    num_ways:
        Number of subsets ``m >= 1``.
    max_nodes:
        Maximum search-tree nodes to expand.  ``None`` uses the default
        budget ``8 * n * m`` (a few greedy passes' worth of work);
        ``0`` or negative means *unlimited* — the search runs to
        optimality (exponential time; only sensible for small instances).
    presort:
        ``True`` (Korf's CGA) considers values in decreasing order, so
        the first leaf is the LPT solution.  ``False`` keeps the given
        (arrival) order — the behaviour of the online greedy baseline the
        paper's evaluation exhibits, whose imbalance does not vanish as
        ``n`` grows.

    Returns
    -------
    PartitionResult
        The best (minimum-makespan) partition found within budget;
        ``iterations`` reports nodes expanded.
    """
    validate_instance(values, num_ways)
    n = len(values)
    if max_nodes is None:
        max_nodes = 8 * max(1, n) * num_ways
    unlimited = max_nodes <= 0

    if presort:
        order = sorted(range(len(values)), key=lambda i: -values[i])
    else:
        order = list(range(len(values)))
    total = sum(values)
    perfect = total / num_ways

    best_subsets: Optional[List[List[int]]] = None
    best_makespan = float("inf")
    nodes = 0

    sums = [0.0] * num_ways
    subsets: List[List[int]] = [[] for _ in range(num_ways)]

    # Depth-first search on an explicit stack: one greedy descent is n
    # levels deep, past the interpreter's recursion limit at n ~ 1000.
    # An open node is [value index, ways in visiting order, next
    # position, sums already tried, way its open child took or -1].
    stack: List[list] = []
    while True:
        # Enter the node at depth len(stack).
        nodes += 1
        if not unlimited and nodes > max_nodes:
            break
        if len(stack) == len(order):
            makespan = max(sums)
            if makespan < best_makespan:
                best_makespan = makespan
                best_subsets = [list(s) for s in subsets]
        else:
            # Visit ways in increasing current-sum order.
            ways = sorted(range(num_ways), key=lambda w: sums[w])
            stack.append([order[len(stack)], ways, 0, set(), -1])
        # Back up to the deepest open node with a child left to enter.
        entered = False
        while stack and not entered:
            frame = stack[-1]
            idx, ways, pos, tried, taken = frame
            value = values[idx]
            if taken >= 0:
                sums[taken] -= value
                subsets[taken].pop()
                # Perfect partition found — nothing can be better.
                if best_makespan <= perfect + 1e-12:
                    break
            while pos < num_ways and not entered:
                way = ways[pos]
                pos += 1
                # Skip duplicate sums (assigning to either of two
                # equal-sum ways is symmetric).
                if sums[way] in tried:
                    continue
                tried.add(sums[way])
                # Prune: this branch cannot beat the incumbent.
                if sums[way] + value >= best_makespan:
                    continue
                sums[way] += value
                subsets[way].append(idx)
                frame[2], frame[4] = pos, way
                entered = True
            if not entered:
                stack.pop()
        if not entered:
            break

    if best_subsets is None:
        # The budget was too small to even reach the first leaf; fall back
        # to the plain greedy assignment so callers always get an answer.
        from repro.partition.greedy import greedy_partition

        fallback = greedy_partition(values, num_ways)
        fallback.iterations += nodes
        return fallback
    result = PartitionResult(
        subsets=best_subsets, values=list(values), iterations=nodes
    )
    result.validate()
    return result


def optimal_partition_cga(values: Sequence[float], num_ways: int) -> PartitionResult:
    """CGA run to exhaustion — the optimal makespan partition.

    Exponential time; intended for instances of roughly ``n <= 20``.
    """
    if len(values) > 28:
        raise ValidationError(
            f"optimal CGA is exponential; refusing n={len(values)} > 28"
        )
    return complete_greedy_partition(values, num_ways, max_nodes=0)
