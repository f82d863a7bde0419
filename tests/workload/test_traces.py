"""Unit tests for synthetic trace generation."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.workload.traces import poisson_arrival_times


class TestPoissonTrace:
    def test_within_horizon(self):
        times = poisson_arrival_times(50.0, 10.0, np.random.default_rng(0))
        assert np.all(times >= 0.0)
        assert np.all(times < 10.0)

    def test_rate_recovered(self):
        times = poisson_arrival_times(100.0, 200.0, np.random.default_rng(1))
        rate = (times.size - 1) / (times[-1] - times[0])
        assert rate == pytest.approx(100.0, rel=0.05)

    def test_sorted(self):
        times = poisson_arrival_times(20.0, 50.0, np.random.default_rng(2))
        assert np.all(np.diff(times) > 0.0)

    def test_exponential_gaps(self):
        times = poisson_arrival_times(50.0, 400.0, np.random.default_rng(3))
        gaps = np.diff(times)
        # Exponential: cv = std/mean ~ 1.
        cv = gaps.std() / gaps.mean()
        assert cv == pytest.approx(1.0, abs=0.1)

    def test_invalid(self):
        with pytest.raises(ValidationError):
            poisson_arrival_times(0.0, 1.0)
        with pytest.raises(ValidationError):
            poisson_arrival_times(1.0, 0.0)

