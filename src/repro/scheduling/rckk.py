"""RCKK request scheduler — the paper's Algorithm 2 applied to a VNF.

Partitions the effective request rates ``lambda_r / P_r`` across the
``M_f`` instances with the Reverse Complete Karmarkar-Karp heuristic
(:mod:`repro.partition.rckk`), then reads the ``z_{r,k}^f`` assignment
off the final partition's provenance sets, way by way.
"""

from __future__ import annotations

from typing import Sequence

from repro.partition.rckk import rckk_partition
from repro.scheduling.base import (
    Assignment,
    SchedulingAlgorithm,
    subset_assignment,
)


class RCKKScheduler(SchedulingAlgorithm):
    """Reverse Complete Karmarkar-Karp request scheduling."""

    name = "RCKK"

    def assign(self, rates: Sequence[float], m: int) -> Assignment:
        partition = rckk_partition(rates, m)
        return subset_assignment(partition.subsets, partition.iterations)
