"""CGA request scheduler — the paper's baseline.

Partitions the effective request rates with Korf's Complete Greedy
Algorithm under a bounded node budget
(:mod:`repro.partition.cga`).  The paper notes CGA "does not scale well
as the number of instances increases"; the budget keeps its cost
comparable to RCKK's single pass, at which point RCKK's differencing
produces the better balance — the effect Figs. 11-14 measure.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.partition.cga import complete_greedy_partition
from repro.scheduling.base import (
    Assignment,
    SchedulingAlgorithm,
    subset_assignment,
)


class CGAScheduler(SchedulingAlgorithm):
    """Complete Greedy Algorithm request scheduling.

    Parameters
    ----------
    max_nodes:
        Search budget forwarded to
        :func:`repro.partition.cga.complete_greedy_partition`.  ``None``
        (the default) budgets exactly one greedy descent — the anytime
        first solution, which is what a latency-constrained scheduler
        actually deploys and what the paper's baseline measurements
        reflect.  ``0`` or negative runs the complete search to
        optimality (exponential — small instances only).
    presort:
        ``True`` gives textbook Korf CGA (values sorted decreasing, first
        leaf = LPT).  The default ``False`` processes requests in arrival
        order — the behaviour the paper's CGA baseline exhibits: its
        imbalance stays on the order of one request's rate however many
        requests arrive, which is why the RCKK-over-CGA enhancement ratio
        in Figs. 11-14 shrinks only as fast as ``mu`` scales with ``n``.
    """

    name = "CGA"

    def __init__(
        self, max_nodes: Optional[int] = None, presort: bool = False
    ) -> None:
        self._max_nodes = max_nodes
        self._presort = presort

    def assign(self, rates: Sequence[float], m: int) -> Assignment:
        if self._max_nodes is None:
            # One greedy descent: root + one node per request + the leaf.
            budget = len(rates) + 2
        else:
            budget = self._max_nodes
        partition = complete_greedy_partition(
            rates, m, max_nodes=budget, presort=self._presort
        )
        return subset_assignment(partition.subsets, partition.iterations)
