"""CKK request scheduler — complete Karmarkar-Karp for two instances.

For VNFs deploying exactly two service instances, this runs the
two-way Complete Karmarkar-Karp search
(:mod:`repro.partition.karmarkar_karp`) under a node budget: an
anytime, near-optimal search, not a guaranteed optimum.  On the
abl-swap instances of the ``ablations`` experiment (24 float rates,
rho=0.9) every one of the 60 searches stops at the default 50,000-node
budget (``iterations`` = 50,001), at about 0.17 s each on one Intel
Xeon core; on the 10 of them checked against ``exact_partition``, the
makespan is still within 7e-5 (absolute) of the optimum.  This scheduler is the
upgrade path the paper mentions alongside CGA ("such as CGA and CKK")
and the two-way reference of the optimality comparisons in the test
suite and in abl-swap.
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
        budget, which bounds the exponential worst case and already
        binds at two dozen float rates (see the module docstring);
        ``0`` or negative runs the complete search unconditionally.
    """

    name = "CKK"

    #: Default anytime budget (exhausted on every 24-rate abl-swap instance).
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
