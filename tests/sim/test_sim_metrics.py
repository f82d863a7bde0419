"""Unit tests for the simulation metrics containers."""

import pytest

from repro.sim.metrics import InstanceStats, SimulationMetrics


@pytest.fixture
def metrics():
    return SimulationMetrics(
        duration=100.0,
        instances=[
            InstanceStats(
                key=("fw", 0),
                arrivals=500,
                departures=498,
                mean_sojourn=0.02,
                utilization=0.6,
            ),
            InstanceStats(
                key=("fw", 1),
                arrivals=300,
                departures=300,
                mean_sojourn=0.01,
                utilization=0.3,
            ),
        ],
        delivered={"r0": 400, "r1": 390},
        end_to_end={
            "r0": [0.01, 0.02, 0.03],
            "r1": [0.05, 0.06],
        },
        retransmitted={"r0": 4, "r1": 0},
        generated=810,
    )


class TestLookups:
    def test_instance_lookup(self, metrics):
        stats = metrics.instance("fw", 1)
        assert stats.utilization == 0.3

    def test_unknown_instance(self, metrics):
        with pytest.raises(KeyError):
            metrics.instance("ghost", 0)


class TestAggregates:
    def test_total_delivered(self, metrics):
        assert metrics.total_delivered == 790

    def test_all_latencies(self, metrics):
        assert sorted(metrics.all_latencies()) == [
            0.01, 0.02, 0.03, 0.05, 0.06,
        ]

    def test_mean_end_to_end(self, metrics):
        expected = (0.01 + 0.02 + 0.03 + 0.05 + 0.06) / 5
        assert metrics.mean_end_to_end() == pytest.approx(expected)

    def test_mean_end_to_end_empty(self):
        empty = SimulationMetrics(
            duration=1.0,
            instances=[],
            delivered={},
            end_to_end={},
            retransmitted={},
            generated=0,
        )
        assert empty.mean_end_to_end() == 0.0
