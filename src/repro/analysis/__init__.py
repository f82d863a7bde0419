"""Statistics helpers for experiment aggregation."""

from repro.analysis.stats import percentile

__all__ = ["percentile"]
