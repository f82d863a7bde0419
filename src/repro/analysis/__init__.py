"""Statistics helpers for experiment aggregation."""

from repro.analysis.convergence import ConvergenceTracker
from repro.analysis.stats import (
    SummaryStats,
    confidence_interval,
    percentile,
    summarize,
)

__all__ = [
    "SummaryStats",
    "summarize",
    "percentile",
    "confidence_interval",
    "ConvergenceTracker",
]
