"""Unit tests for the statistics helpers."""

import pytest

from repro.analysis.stats import percentile
from repro.exceptions import ValidationError


class TestPercentile:
    def test_median(self):
        assert percentile([1.0, 2.0, 3.0], 50) == pytest.approx(2.0)

    def test_extremes(self):
        data = [5.0, 1.0, 9.0]
        assert percentile(data, 0) == pytest.approx(1.0)
        assert percentile(data, 100) == pytest.approx(9.0)

    def test_p99(self):
        data = list(range(1, 101))
        assert percentile(data, 99) == pytest.approx(99.01)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            percentile([], 50)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            percentile([1.0], 101)
