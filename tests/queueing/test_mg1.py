"""Unit tests for the M/G/1 (Pollaczek-Khinchine) queue."""

import pytest

from repro.exceptions import UnstableQueueError, ValidationError
from repro.queueing.mg1 import MG1Queue
from repro.queueing.mm1 import MM1Queue


class TestConstruction:
    def test_valid(self):
        q = MG1Queue(arrival_rate=5.0, service_rate=10.0, service_cv2=0.5)
        assert q.rho == pytest.approx(0.5)

    def test_negative_cv2_rejected(self):
        with pytest.raises(ValidationError):
            MG1Queue(1.0, 10.0, service_cv2=-0.1)

    def test_bad_rates_rejected(self):
        with pytest.raises(ValidationError):
            MG1Queue(-1.0, 10.0)
        with pytest.raises(ValidationError):
            MG1Queue(1.0, 0.0)


class TestReducesToMM1:
    @pytest.mark.parametrize("lam", [1.0, 5.0, 9.0])
    def test_cv2_one_matches_mm1(self, lam):
        mg1 = MG1Queue(lam, 10.0, service_cv2=1.0)
        mm1 = MM1Queue(lam, 10.0)
        assert mg1.mean_response_time == pytest.approx(mm1.mean_response_time)
        assert mg1.mean_waiting_time == pytest.approx(mm1.mean_waiting_time)
        assert mg1.mean_number_in_system == pytest.approx(
            mm1.mean_number_in_system
        )


class TestMD1:
    def test_deterministic_halves_waiting(self):
        # M/D/1 waits exactly half of M/M/1.
        md1 = MG1Queue(5.0, 10.0, service_cv2=0.0)
        mm1 = MM1Queue(5.0, 10.0)
        assert md1.mean_waiting_time == pytest.approx(
            mm1.mean_waiting_time / 2.0
        )

    def test_known_value(self):
        # rho=0.5, mu=10, cs2=0: Wq = 0.5 * 1 / (2 * 10 * 0.5) = 0.05.
        q = MG1Queue(5.0, 10.0, service_cv2=0.0)
        assert q.mean_waiting_time == pytest.approx(0.05)


class TestVariability:
    def test_waiting_grows_with_cv2(self):
        waits = [
            MG1Queue(6.0, 10.0, service_cv2=c).mean_waiting_time
            for c in (0.0, 1.0, 4.0)
        ]
        assert waits[0] < waits[1] < waits[2]

    def test_littles_law(self):
        q = MG1Queue(6.0, 10.0, service_cv2=2.0)
        assert q.mean_number_in_system == pytest.approx(
            q.arrival_rate * q.mean_response_time
        )


class TestStability:
    def test_unstable_raises(self):
        q = MG1Queue(10.0, 10.0, 1.0)
        with pytest.raises(UnstableQueueError):
            _ = q.mean_waiting_time
