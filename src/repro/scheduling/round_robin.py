"""Round-robin request scheduler.

Assigns requests to instances cyclically in arrival order — the simplest
stateless policy, included as a floor baseline: it balances *counts*,
not rates, so heavy-tailed arrival rates leave it far from Eq. (15)'s
optimum.
"""

from __future__ import annotations

from typing import Sequence

from repro.exceptions import SchedulingError
from repro.scheduling.base import Assignment, SchedulingAlgorithm


class RoundRobinScheduler(SchedulingAlgorithm):
    """Cyclic assignment in request order."""

    name = "RoundRobin"

    def assign(self, rates: Sequence[float], m: int) -> Assignment:
        if m < 1:
            raise SchedulingError(f"need at least one instance, got {m}")
        n = len(rates)
        return Assignment(ways=[i % m for i in range(n)], iterations=n)
