"""Uniform random request scheduler — a statistical floor baseline."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.scheduling.base import Assignment, SchedulingAlgorithm
from repro.seeding import RngLike, resolve_rng


class RandomScheduler(SchedulingAlgorithm):
    """Assign each request to a uniformly random instance."""

    name = "Random"

    def __init__(self, rng: Optional[RngLike] = None) -> None:
        # ``None`` means the documented default seed, not OS entropy.
        self._rng = resolve_rng(rng)

    def assign(self, rates: Sequence[float], m: int) -> Assignment:
        # One draw per request, in request order.
        ways = [int(self._rng.integers(0, m)) for _ in rates]
        return Assignment(ways=ways, iterations=len(ways))
