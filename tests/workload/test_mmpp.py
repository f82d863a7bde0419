"""Unit tests for the MMPP burstiness substrate."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.workload.mmpp import MMPP2


@pytest.fixture
def bursty():
    # High 100 pps 1/3 of the time, low 10 pps 2/3 of the time.
    return MMPP2(
        rate_high=100.0,
        rate_low=10.0,
        switch_to_low=2.0,
        switch_to_high=1.0,
    )


class TestParameters:
    def test_stationary_fraction(self, bursty):
        assert bursty.stationary_high_fraction == pytest.approx(1.0 / 3.0)

    def test_mean_rate(self, bursty):
        assert bursty.mean_rate == pytest.approx(100.0 / 3.0 + 20.0 / 3.0)


class TestValidation:
    def test_rate_ordering(self):
        with pytest.raises(ValidationError):
            MMPP2(10.0, 20.0, 1.0, 1.0)

    def test_positive_switch_rates(self):
        with pytest.raises(ValidationError):
            MMPP2(10.0, 1.0, 0.0, 1.0)

    def test_positive_high_rate(self):
        with pytest.raises(ValidationError):
            MMPP2(0.0, 0.0, 1.0, 1.0)


class TestSampling:
    def test_within_horizon_and_sorted(self, bursty):
        times = bursty.sample_arrival_times(50.0, np.random.default_rng(0))
        assert np.all(times >= 0.0)
        assert np.all(times < 50.0)
        assert np.all(np.diff(times) > 0.0)

    def test_mean_rate_recovered(self, bursty):
        times = bursty.sample_arrival_times(2000.0, np.random.default_rng(1))
        empirical = len(times) / 2000.0
        assert empirical == pytest.approx(bursty.mean_rate, rel=0.1)

    def test_burstier_than_poisson(self, bursty):
        from repro.workload.traces import poisson_arrival_times

        mmpp_times = bursty.sample_arrival_times(
            1000.0, np.random.default_rng(2)
        )
        poisson_times = poisson_arrival_times(
            bursty.mean_rate, 1000.0, np.random.default_rng(3)
        )
        mmpp_gaps = np.diff(mmpp_times)
        poisson_gaps = np.diff(poisson_times)
        mmpp_cv = mmpp_gaps.std() / mmpp_gaps.mean()
        poisson_cv = poisson_gaps.std() / poisson_gaps.mean()
        assert mmpp_cv > poisson_cv * 1.2

    def test_bad_horizon(self, bursty):
        with pytest.raises(ValidationError):
            bursty.sample_arrival_times(0.0)

    def test_deterministic_given_seed(self, bursty):
        a = bursty.sample_arrival_times(20.0, np.random.default_rng(4))
        b = bursty.sample_arrival_times(20.0, np.random.default_rng(4))
        assert np.array_equal(a, b)
