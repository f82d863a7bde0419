"""Unit tests for the M/M/1 queue analytics."""

import pytest

from repro.exceptions import UnstableQueueError, ValidationError
from repro.queueing.mm1 import MM1Queue


class TestConstruction:
    def test_valid_queue(self):
        q = MM1Queue(arrival_rate=5.0, service_rate=10.0)
        assert q.rho == pytest.approx(0.5)

    def test_zero_arrivals_allowed(self):
        q = MM1Queue(arrival_rate=0.0, service_rate=10.0)
        assert q.rho == 0.0
        assert q.mean_number_in_system == 0.0

    def test_negative_arrival_rejected(self):
        with pytest.raises(ValidationError):
            MM1Queue(arrival_rate=-1.0, service_rate=10.0)

    def test_zero_service_rejected(self):
        with pytest.raises(ValidationError):
            MM1Queue(arrival_rate=1.0, service_rate=0.0)

    def test_negative_service_rejected(self):
        with pytest.raises(ValidationError):
            MM1Queue(arrival_rate=1.0, service_rate=-5.0)


class TestStability:
    def test_stable_below_capacity(self):
        assert MM1Queue(9.0, 10.0).is_stable

    def test_unstable_at_capacity(self):
        assert not MM1Queue(10.0, 10.0).is_stable

    def test_unstable_above_capacity(self):
        assert not MM1Queue(11.0, 10.0).is_stable

    def test_unstable_raises_on_metrics(self):
        q = MM1Queue(10.0, 10.0)
        with pytest.raises(UnstableQueueError):
            _ = q.mean_number_in_system
        with pytest.raises(UnstableQueueError):
            _ = q.mean_response_time


class TestSteadyState:
    def test_mean_number_formula(self):
        # rho = 0.5 -> N = 1.
        assert MM1Queue(5.0, 10.0).mean_number_in_system == pytest.approx(1.0)

    def test_mean_response_formula(self):
        # W = 1 / (mu - lambda).
        assert MM1Queue(5.0, 10.0).mean_response_time == pytest.approx(0.2)

    def test_littles_law_consistency(self):
        q = MM1Queue(7.0, 10.0)
        assert q.mean_number_in_system == pytest.approx(
            q.arrival_rate * q.mean_response_time
        )

    def test_waiting_plus_service_is_response(self):
        q = MM1Queue(4.0, 9.0)
        assert q.mean_waiting_time + 1.0 / q.service_rate == pytest.approx(
            q.mean_response_time
        )

    def test_response_time_grows_with_load(self):
        w = [MM1Queue(lam, 10.0).mean_response_time for lam in (1.0, 5.0, 9.0)]
        assert w[0] < w[1] < w[2]
