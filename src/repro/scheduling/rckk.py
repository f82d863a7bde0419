"""RCKK request scheduler — the paper's Algorithm 2 applied to a VNF.

Partitions the effective request rates ``lambda_r / P_r`` across the
``M_f`` instances with the Reverse Complete Karmarkar-Karp heuristic
(:mod:`repro.partition.rckk`), then reads the ``z_{r,k}^f`` assignment
off the final partition's provenance sets.
"""

from __future__ import annotations

from repro.partition.rckk import rckk_partition
from repro.scheduling.base import (
    SchedulingAlgorithm,
    SchedulingProblem,
    ScheduleResult,
)


class RCKKScheduler(SchedulingAlgorithm):
    """Reverse Complete Karmarkar-Karp request scheduling."""

    name = "RCKK"

    def schedule(self, problem: SchedulingProblem) -> ScheduleResult:
        partition = rckk_partition(
            problem.effective_rates(), problem.num_instances
        )
        assignment = {}
        for instance_index, subset in enumerate(partition.subsets):
            for request_index in subset:
                request = problem.requests[request_index]
                assignment[request.request_id] = instance_index
        # Valid by construction: the kernel checks that every index sits
        # in exactly one of the ``M_f`` subsets, and the problem's ids
        # are unique, so Eq. (5) holds without a second pass.
        return ScheduleResult(
            assignment=assignment,
            problem=problem,
            iterations=partition.iterations,
            algorithm=self.name,
        )
