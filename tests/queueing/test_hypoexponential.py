"""Unit tests for hypoexponential chain-latency analytics."""

import math

import numpy as np
import pytest

from repro.exceptions import UnstableQueueError, ValidationError
from repro.queueing.hypoexponential import HypoexponentialLatency
from repro.queueing.mm1 import MM1Queue


class TestConstruction:
    def test_valid(self):
        HypoexponentialLatency([10.0, 20.0], [30.0, 50.0])

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            HypoexponentialLatency([10.0], [30.0, 50.0])

    def test_empty(self):
        with pytest.raises(ValidationError):
            HypoexponentialLatency([], [])

    def test_unstable_station(self):
        with pytest.raises(UnstableQueueError):
            HypoexponentialLatency([30.0], [30.0])


class TestSingleStage:
    """One station reduces to the exponential M/M/1 sojourn."""

    def test_mean(self):
        hypo = HypoexponentialLatency([40.0], [100.0])
        assert hypo.mean == pytest.approx(
            MM1Queue(40.0, 100.0).mean_response_time
        )

    def test_percentiles_match_mm1(self):
        # The M/M/1 sojourn is exponential with rate mu - lambda.
        hypo = HypoexponentialLatency([40.0], [100.0])
        for q in (0.5, 0.9, 0.99):
            assert hypo.percentile(q) == pytest.approx(
                -math.log(1.0 - q) / (100.0 - 40.0), rel=1e-6
            )

    def test_cdf_limits(self):
        hypo = HypoexponentialLatency([40.0], [100.0])
        assert hypo.cdf(0.0) == 0.0
        assert hypo.cdf(1e6) == pytest.approx(1.0)


class TestTwoStage:
    def test_mean_is_sum(self):
        hypo = HypoexponentialLatency([30.0, 30.0], [90.0, 70.0])
        assert hypo.mean == pytest.approx(1.0 / 60.0 + 1.0 / 40.0)

    def test_cdf_monotone(self):
        hypo = HypoexponentialLatency([30.0, 30.0], [90.0, 70.0])
        ts = np.linspace(0.0, 0.3, 50)
        values = [hypo.cdf(float(t)) for t in ts]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_percentile_inverts_cdf(self):
        hypo = HypoexponentialLatency([30.0, 30.0], [90.0, 70.0])
        for q in (0.1, 0.5, 0.9, 0.99):
            assert hypo.cdf(hypo.percentile(q)) == pytest.approx(q, abs=1e-9)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(0)
        thetas = (60.0, 40.0)
        samples = rng.exponential(1.0 / thetas[0], 200_000) + rng.exponential(
            1.0 / thetas[1], 200_000
        )
        hypo = HypoexponentialLatency([30.0, 30.0], [90.0, 70.0])
        assert hypo.percentile(0.99) == pytest.approx(
            float(np.percentile(samples, 99)), rel=0.02
        )
        assert hypo.cdf(hypo.mean) == pytest.approx(
            float(np.mean(samples <= hypo.mean)), abs=0.01
        )


class TestRepeatedRates:
    def test_equal_stations_erlang_limit(self):
        # Two identical stations: Erlang(2, theta); mean 2/theta,
        # median = Erlang quantile.
        hypo = HypoexponentialLatency([20.0, 20.0], [70.0, 70.0])
        theta = 50.0
        assert hypo.mean == pytest.approx(2.0 / theta, rel=1e-6)
        rng = np.random.default_rng(1)
        samples = rng.exponential(1.0 / theta, 200_000) + rng.exponential(
            1.0 / theta, 200_000
        )
        assert hypo.percentile(0.9) == pytest.approx(
            float(np.percentile(samples, 90)), rel=0.02
        )

    def test_bad_percentile(self):
        hypo = HypoexponentialLatency([10.0], [50.0])
        with pytest.raises(ValidationError):
            hypo.percentile(1.0)
