"""Unit tests for the Little's-law helper functions."""

import pytest

from repro.exceptions import UnstableQueueError, ValidationError
from repro.queueing import littles_law


class TestUtilization:
    def test_basic(self):
        assert littles_law.utilization(5.0, 10.0) == pytest.approx(0.5)

    def test_zero_arrivals(self):
        assert littles_law.utilization(0.0, 10.0) == 0.0

    def test_overload_allowed(self):
        # utilization() itself reports rho >= 1; stability is separate.
        assert littles_law.utilization(20.0, 10.0) == pytest.approx(2.0)

    def test_bad_service_rate(self):
        with pytest.raises(ValidationError):
            littles_law.utilization(1.0, 0.0)

    def test_bad_arrival_rate(self):
        with pytest.raises(ValidationError):
            littles_law.utilization(-1.0, 10.0)


class TestRequireStable:
    def test_stable_passes(self):
        littles_law.require_stable(0.99)

    def test_unstable_raises(self):
        with pytest.raises(UnstableQueueError):
            littles_law.require_stable(1.0)

    def test_error_carries_context(self):
        with pytest.raises(UnstableQueueError, match="my-instance"):
            littles_law.require_stable(1.5, context="my-instance")


class TestMeans:
    def test_mean_number(self):
        assert littles_law.mean_number_in_system(5.0, 10.0) == pytest.approx(1.0)

    def test_mean_response(self):
        assert littles_law.mean_response_time(5.0, 10.0) == pytest.approx(0.2)

    def test_mean_waiting(self):
        w = littles_law.mean_response_time(5.0, 10.0)
        wq = littles_law.mean_waiting_time(5.0, 10.0)
        assert wq == pytest.approx(w - 0.1)

    def test_all_raise_when_unstable(self):
        for fn in (
            littles_law.mean_number_in_system,
            littles_law.mean_response_time,
            littles_law.mean_waiting_time,
        ):
            with pytest.raises(UnstableQueueError):
                fn(10.0, 10.0)
