"""Data model and balance metrics for multi-way number partitioning.

A *partition* of values ``v_0 .. v_{n-1}`` into ``m`` ways is represented
by :class:`PartitionResult`: ``subsets[i]`` holds the original indices
assigned to way ``i``.  Keeping indices (not values) lets callers map ways
back to requests, which is exactly what scheduling needs for the
``z_{r,k}^f`` variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.exceptions import ValidationError


def validate_instance(values: Sequence[float], num_ways: int) -> None:
    """Check the raw MWNP instance is well formed: ``num_ways >= 1`` and
    every value finite and non-negative."""
    if num_ways < 1:
        raise ValidationError(f"number of ways must be >= 1, got {num_ways!r}")
    for v in values:
        if not 0.0 <= v < math.inf:
            if v < 0.0:
                raise ValidationError(f"values must be non-negative, got {v!r}")
            raise ValidationError(f"values must be finite, got {v!r}")


@dataclass
class PartitionResult:
    """An assignment of value indices to ``m`` ways.

    Attributes
    ----------
    subsets:
        ``subsets[i]`` lists the indices of the values assigned to way
        ``i``.  Every index in ``range(len(values))`` appears in exactly
        one subset.
    values:
        The original values, kept for metric computation.
    """

    subsets: List[List[int]]
    values: List[float]
    #: Search nodes / combine steps the algorithm spent (cost accounting).
    iterations: int = 0

    @property
    def sums(self) -> List[float]:
        """Per-way sums ``S_i = sum of values in way i``."""
        return [sum(self.values[j] for j in subset) for subset in self.subsets]

    @property
    def makespan(self) -> float:
        """The largest way sum, ``max_i S_i`` (the classic MWNP objective)."""
        return max(self.sums) if self.subsets else 0.0

    @property
    def spread(self) -> float:
        """Difference between the largest and smallest way sums."""
        s = self.sums
        return (max(s) - min(s)) if s else 0.0

    def assignment(self) -> Dict[int, int]:
        """Map each value index to its way index."""
        out: Dict[int, int] = {}
        for way, subset in enumerate(self.subsets):
            for idx in subset:
                out[idx] = way
        return out

    def validate(self) -> None:
        """Check every index is assigned exactly once.

        Raises
        ------
        ValidationError
            On a missing, duplicated, or out-of-range index.
        """
        n = len(self.values)
        flat = [idx for subset in self.subsets for idx in subset]
        if len(flat) == n and sorted(flat) == list(range(n)):
            return
        # Some index is wrong: find the first one in the legacy order.
        seen: Dict[int, int] = {}
        for subset in self.subsets:
            for idx in subset:
                if not 0 <= idx < n:
                    raise ValidationError(f"index {idx} out of range [0, {n})")
                seen[idx] = seen.get(idx, 0) + 1
        for idx in range(n):
            count = seen.get(idx, 0)
            if count != 1:
                raise ValidationError(
                    f"value index {idx} assigned {count} times, expected once"
                )


@dataclass
class TuplePartition:
    """A normalized KK tuple with provenance sets (internal helper).

    ``entries[i] = (value, indices)`` with values sorted descending and the
    last value normalized to zero.  This is exactly the partition object
    Algorithm 2 of the paper manipulates: ``(lambda_r, 0, ..., 0)``
    initially, combined pairwise until one remains.
    """

    entries: List[tuple] = field(default_factory=list)

    @classmethod
    def singleton(cls, value: float, index: int, num_ways: int) -> "TuplePartition":
        """The initial partition ``(value, 0, .., 0)`` holding one index."""
        entries = [(value, (index,))]
        entries.extend((0.0, ()) for _ in range(num_ways - 1))
        return cls(entries=entries)

    @property
    def head(self) -> float:
        """The leading (largest) value — the sort key in Algorithm 2."""
        return self.entries[0][0]

    def normalized(self) -> "TuplePartition":
        """Sort descending and subtract the smallest value from all."""
        ordered = sorted(self.entries, key=lambda e: -e[0])
        floor = ordered[-1][0]
        return TuplePartition(
            entries=[(value - floor, indices) for value, indices in ordered]
        )
