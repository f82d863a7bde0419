"""Unit tests for the M/M/c (Erlang-C) queue analytics."""

import pytest

from repro.exceptions import UnstableQueueError, ValidationError
from repro.queueing.mm1 import MM1Queue
from repro.queueing.mmc import MMCQueue


class TestConstruction:
    def test_valid(self):
        q = MMCQueue(arrival_rate=5.0, service_rate=3.0, servers=2)
        assert q.rho == pytest.approx(5.0 / 6.0)

    def test_zero_servers_rejected(self):
        with pytest.raises(ValidationError):
            MMCQueue(arrival_rate=1.0, service_rate=1.0, servers=0)

    def test_negative_arrival_rejected(self):
        with pytest.raises(ValidationError):
            MMCQueue(arrival_rate=-1.0, service_rate=1.0, servers=1)

    def test_zero_service_rejected(self):
        with pytest.raises(ValidationError):
            MMCQueue(arrival_rate=1.0, service_rate=0.0, servers=1)


class TestReducesToMM1:
    """With c=1 every metric must equal the M/M/1 closed forms."""

    @pytest.mark.parametrize("lam", [1.0, 4.0, 8.5])
    def test_response_time(self, lam):
        mmc = MMCQueue(arrival_rate=lam, service_rate=10.0, servers=1)
        mm1 = MM1Queue(arrival_rate=lam, service_rate=10.0)
        assert mmc.mean_response_time == pytest.approx(mm1.mean_response_time)

    def test_number_in_system(self):
        mmc = MMCQueue(arrival_rate=6.0, service_rate=10.0, servers=1)
        mm1 = MM1Queue(arrival_rate=6.0, service_rate=10.0)
        assert mmc.mean_number_in_system == pytest.approx(
            mm1.mean_number_in_system
        )

    def test_erlang_c_equals_rho(self):
        # For c=1 the probability of waiting equals rho.
        q = MMCQueue(arrival_rate=7.0, service_rate=10.0, servers=1)
        assert q.erlang_c() == pytest.approx(0.7)


class TestErlangC:
    def test_known_value(self):
        # Classic Erlang-C check: a = 2 Erlang over c = 3 servers.
        q = MMCQueue(arrival_rate=2.0, service_rate=1.0, servers=3)
        # C(3, 2) = (a^c/c!) / ((1-rho)(sum + a^c/c!/(1-rho)))... standard
        # tables give ~0.4444.
        assert q.erlang_c() == pytest.approx(0.4444, abs=1e-3)

    def test_stability_guard(self):
        q = MMCQueue(arrival_rate=3.0, service_rate=1.0, servers=3)
        with pytest.raises(UnstableQueueError):
            q.erlang_c()
        with pytest.raises(UnstableQueueError):
            _ = q.mean_response_time

    def test_pooled_beats_split(self):
        # One M/M/2 at rate mu beats two M/M/1 each taking half the load.
        pooled = MMCQueue(arrival_rate=16.0, service_rate=10.0, servers=2)
        split = MM1Queue(arrival_rate=8.0, service_rate=10.0)
        assert pooled.mean_response_time < split.mean_response_time

    def test_littles_law(self):
        q = MMCQueue(arrival_rate=15.0, service_rate=10.0, servers=2)
        assert q.mean_number_in_system == pytest.approx(
            q.arrival_rate * q.mean_response_time
        )
