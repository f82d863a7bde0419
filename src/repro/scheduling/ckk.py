"""CKK request scheduler — complete Karmarkar-Karp for two instances.

For VNFs deploying exactly two service instances, the two-way Complete
Karmarkar-Karp search (:mod:`repro.partition.karmarkar_karp`) finds the
*optimal* rate split in practice instantly at the paper's scales.  This
scheduler is the natural upgrade path the paper mentions alongside CGA
("such as CGA and CKK") and anchors the optimality comparisons in the
test suite: no heuristic may beat CKK at m=2.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.exceptions import SchedulingError
from repro.partition.karmarkar_karp import ckk_two_way
from repro.scheduling.base import (
    Assignment,
    SchedulingAlgorithm,
    subset_assignment,
)


class CKKScheduler(SchedulingAlgorithm):
    """Complete Karmarkar-Karp scheduling for two-instance VNFs.

    Parameters
    ----------
    max_nodes:
        Search budget.  ``None`` (default) uses a 50 000-node anytime
        budget — effectively optimal at the paper's request counts while
        bounding the exponential worst case; ``0`` or negative runs the
        complete search unconditionally.
    """

    name = "CKK"

    #: Default anytime budget: plenty for n <= ~250 float-rate requests.
    DEFAULT_BUDGET = 50_000

    def __init__(self, max_nodes: Optional[int] = None) -> None:
        self._max_nodes = (
            max_nodes if max_nodes is not None else self.DEFAULT_BUDGET
        )

    def assign(self, rates: Sequence[float], m: int) -> Assignment:
        if m != 2:
            raise SchedulingError(
                f"CKK schedules exactly 2 instances; this VNF deploys {m}"
            )
        partition = ckk_two_way(rates, max_nodes=self._max_nodes)
        return subset_assignment(partition.subsets, partition.iterations)
