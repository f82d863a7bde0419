"""Join-the-least-loaded request scheduler.

Greedy in *given request order* (not sorted): each request joins the
instance with the smallest current aggregate rate.  This is the online
version of LPT; sorting first turns it into the greedy/LPT partition
(which is CGA's first leaf), so it sits between round-robin and CGA in
solution quality and serves as an online-policy reference.
"""

from __future__ import annotations

import heapq
from typing import Optional

import numpy as np

from repro.scheduling.base import (
    SchedulingAlgorithm,
    SchedulingProblem,
    ScheduleResult,
)


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
      (``np.argmin``), matching the heap tie-break above and the
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
    k = int(np.argmin(loads))
    if capacity is not None and loads[k] + rate > capacity + fit_eps:
        return -1
    return k


class LeastLoadedScheduler(SchedulingAlgorithm):
    """Assign each request (in order) to the currently least-loaded instance."""

    name = "LeastLoaded"

    def schedule(self, problem: SchedulingProblem) -> ScheduleResult:
        heap = [(0.0, k) for k in range(problem.num_instances)]
        heapq.heapify(heap)
        assignment = {}
        for request in problem.requests:
            load, k = heapq.heappop(heap)
            assignment[request.request_id] = k
            heapq.heappush(heap, (load + request.effective_rate, k))
        result = ScheduleResult(
            assignment=assignment,
            problem=problem,
            iterations=problem.num_requests,
            algorithm=self.name,
        )
        result.validate()
        return result
