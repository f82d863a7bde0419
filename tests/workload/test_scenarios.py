"""Unit tests for the per-figure experiment scenarios."""

import pytest

from repro.exceptions import ConfigurationError
from repro.workload.scenarios import PlacementScenario, SchedulingScenario


class TestPlacementScenario:
    def test_build_feasible(self):
        problem = PlacementScenario(num_vnfs=10, num_nodes=8).build()
        problem.check_necessary_feasibility()
        assert len(problem.vnfs) == 10
        assert len(problem.capacities) == 8

    def test_demand_fraction(self):
        scenario = PlacementScenario(
            num_vnfs=10, num_nodes=8, demand_fraction=0.5
        )
        problem = scenario.build()
        fraction = problem.total_demand() / problem.total_capacity()
        # Clamping of oversized VNFs can only lower the fraction.
        assert fraction <= 0.5 + 1e-9
        assert fraction > 0.3

    def test_deterministic_per_repetition(self):
        s = PlacementScenario(num_vnfs=8, num_nodes=6, seed=99)
        a, b = s.build(3), s.build(3)
        assert {f.name: f.total_demand for f in a.vnfs} == {
            f.name: f.total_demand for f in b.vnfs
        }
        assert dict(a.capacities) == dict(b.capacities)

    def test_repetitions_differ(self):
        s = PlacementScenario(num_vnfs=8, num_nodes=6, seed=99)
        assert dict(s.build(0).capacities) != dict(s.build(1).capacities)

    def test_largest_vnf_fits_largest_node(self):
        problem = PlacementScenario(num_vnfs=15, num_nodes=10).build()
        max_cap = max(problem.capacities.values())
        for vnf in problem.vnfs:
            assert vnf.total_demand <= max_cap

    def test_chains_present(self):
        problem = PlacementScenario(num_vnfs=12, num_nodes=8).build()
        assert problem.chains


class TestSchedulingScenario:
    def test_build(self):
        problem = SchedulingScenario(num_requests=20, num_instances=4).build()
        assert problem.num_requests == 20
        assert problem.num_instances == 4

    def test_mu_scaling(self):
        scenario = SchedulingScenario(
            num_requests=50, num_instances=5, rho=0.8, seed=1
        )
        problem = scenario.build()
        total_raw = sum(r.arrival_rate for r in problem.requests)
        assert problem.vnf.service_rate == pytest.approx(
            total_raw / (5 * 0.8)
        )

    def test_delivery_probability(self):
        problem = SchedulingScenario(
            num_requests=10, num_instances=2, delivery_probability=0.98
        ).build()
        assert all(
            r.delivery_probability == 0.98 for r in problem.requests
        )

    def test_rates_in_range(self):
        problem = SchedulingScenario(num_requests=30, num_instances=3).build()
        for r in problem.requests:
            assert 1.0 <= r.arrival_rate <= 100.0

    def test_deterministic_per_repetition(self):
        s = SchedulingScenario(num_requests=10, num_instances=2, seed=5)
        a, b = s.build(2), s.build(2)
        assert [r.arrival_rate for r in a.requests] == [
            r.arrival_rate for r in b.requests
        ]

    def test_fewer_requests_than_instances_rejected(self):
        with pytest.raises(ConfigurationError):
            SchedulingScenario(num_requests=3, num_instances=5)

    def test_bad_rho(self):
        with pytest.raises(ConfigurationError):
            SchedulingScenario(num_requests=10, num_instances=2, rho=0.0)
