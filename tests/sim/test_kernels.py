"""Unit tests for the array-native FCFS kernels.

The Lindley kernel is pinned against a naive per-packet reference loop
on random traces — the same recurrence the event engine walks one
packet at a time.
"""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.sim.kernels import (
    busy_time_within,
    fcfs_sojourn_times,
    lindley_departure_times,
)


def _naive_departures(arrivals, services):
    """Reference per-packet FCFS recurrence (what the event loop does)."""
    departures = []
    free_at = 0.0
    for a, s in zip(arrivals, services):
        start = max(a, free_at)
        free_at = start + s
        departures.append(free_at)
    return np.asarray(departures)


class TestLindleyKernel:
    def test_matches_naive_loop_on_random_traces(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            n = int(rng.integers(1, 400))
            arrivals = np.sort(rng.exponential(0.5, size=n).cumsum())
            services = rng.exponential(0.3, size=n)
            np.testing.assert_allclose(
                lindley_departure_times(arrivals, services),
                _naive_departures(arrivals, services),
                rtol=1e-12,
            )

    def test_idle_server_departs_after_service(self):
        arrivals = np.array([0.0, 10.0, 20.0])
        services = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(
            lindley_departure_times(arrivals, services),
            [1.0, 12.0, 23.0],
        )

    def test_busy_server_queues(self):
        arrivals = np.array([0.0, 0.1, 0.2])
        services = np.array([1.0, 1.0, 1.0])
        np.testing.assert_allclose(
            lindley_departure_times(arrivals, services),
            [1.0, 2.0, 3.0],
        )

    def test_nonmonotone_availability_times_allowed(self):
        # Frontier-inflated availability times need not be sorted; the
        # kernel must still respect FCFS order of the given sequence.
        arrivals = np.array([1.0, 0.5])
        services = np.array([1.0, 1.0])
        np.testing.assert_allclose(
            lindley_departure_times(arrivals, services), [2.0, 3.0]
        )

    def test_empty(self):
        out = lindley_departure_times(
            np.empty(0), np.empty(0)
        )
        assert out.size == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            lindley_departure_times(np.zeros(3), np.zeros(2))

    def test_negative_service_rejected(self):
        with pytest.raises(SimulationError):
            lindley_departure_times(np.zeros(2), np.array([1.0, -0.1]))


class TestFcfsSojournTimes:
    def test_matches_naive_sojourns(self):
        rng = np.random.default_rng(11)
        arrivals = np.sort(rng.exponential(1.0, size=200).cumsum())
        services = rng.exponential(0.5, size=200)
        expected = _naive_departures(arrivals, services) - arrivals
        # atol absorbs cumsum-vs-sequential float association on tiny
        # sojourns; rtol alone is too strict near zero.
        np.testing.assert_allclose(
            fcfs_sojourn_times(arrivals, services),
            expected,
            rtol=1e-12,
            atol=1e-9,
        )

    def test_horizon_drops_late_departures(self):
        arrivals = np.array([0.0, 1.0, 2.0])
        services = np.array([0.5, 0.5, 10.0])
        out = fcfs_sojourn_times(arrivals, services, horizon=5.0)
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_unsorted_trace_rejected(self):
        with pytest.raises(SimulationError):
            fcfs_sojourn_times(np.array([1.0, 0.5]), np.array([0.1, 0.1]))


class TestBusyTimeWithin:
    def test_full_service_inside_horizon(self):
        departures = np.array([2.0, 5.0])
        services = np.array([1.0, 2.0])
        assert busy_time_within(
            departures, services, 10.0
        ).sum() == pytest.approx(3.0)

    def test_service_clipped_at_horizon(self):
        # Service runs [9, 12) against horizon 10: only 1s counts.
        assert busy_time_within(
            np.array([12.0]), np.array([3.0]), 10.0
        ).sum() == pytest.approx(1.0)

    def test_service_entirely_past_horizon(self):
        assert busy_time_within(
            np.array([15.0]), np.array([2.0]), 10.0
        ).sum() == pytest.approx(0.0)
