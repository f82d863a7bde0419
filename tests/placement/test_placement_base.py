"""Unit tests for the placement problem/result model."""

import pytest

from repro.exceptions import InfeasiblePlacementError, ValidationError
from repro.nfv.chain import ServiceChain
from repro.nfv.vnf import VNF
from repro.placement.base import (
    PlacementProblem,
    PlacementResult,
    demand_sorted_vnfs,
)


@pytest.fixture
def vnfs():
    return [
        VNF("fw", 10.0, 2, 100.0),   # total 20
        VNF("nat", 5.0, 3, 200.0),   # total 15
        VNF("lb", 8.0, 1, 150.0),    # total 8
    ]


@pytest.fixture
def problem(vnfs):
    return PlacementProblem(
        vnfs=vnfs,
        capacities={"n0": 30.0, "n1": 25.0},
        chains=[ServiceChain(["fw", "nat"])],
    )


class TestProblem:
    def test_totals(self, problem):
        assert problem.total_demand() == pytest.approx(43.0)
        assert problem.total_capacity() == pytest.approx(55.0)

    def test_lookup(self, problem):
        assert problem.vnf("fw").name == "fw"
        with pytest.raises(ValidationError):
            problem.vnf("ghost")

    def test_no_vnfs_rejected(self):
        with pytest.raises(ValidationError):
            PlacementProblem(vnfs=[], capacities={"n0": 1.0})

    def test_no_nodes_rejected(self, vnfs):
        with pytest.raises(ValidationError):
            PlacementProblem(vnfs=vnfs, capacities={})

    def test_duplicate_names_rejected(self):
        dup = [VNF("fw", 1.0, 1, 1.0), VNF("fw", 2.0, 1, 1.0)]
        with pytest.raises(ValidationError):
            PlacementProblem(vnfs=dup, capacities={"n0": 10.0})

    def test_chain_over_unknown_vnf_rejected(self, vnfs):
        with pytest.raises(ValidationError):
            PlacementProblem(
                vnfs=vnfs,
                capacities={"n0": 100.0},
                chains=[ServiceChain(["ghost"])],
            )

    def test_zero_capacity_node_rejected(self, vnfs):
        with pytest.raises(ValidationError):
            PlacementProblem(vnfs=vnfs, capacities={"n0": 0.0})

    def test_necessary_feasibility(self, problem):
        problem.check_necessary_feasibility()

    def test_oversized_vnf_detected(self, vnfs):
        p = PlacementProblem(vnfs=vnfs, capacities={"n0": 10.0, "n1": 50.0})
        p.check_necessary_feasibility()
        p2 = PlacementProblem(vnfs=vnfs, capacities={"n0": 19.0, "n1": 19.0, "n2": 19.0})
        with pytest.raises(InfeasiblePlacementError):
            p2.check_necessary_feasibility()

    def test_total_overflow_detected(self, vnfs):
        p = PlacementProblem(vnfs=vnfs, capacities={"n0": 21.0, "n1": 21.0})
        with pytest.raises(InfeasiblePlacementError):
            p.check_necessary_feasibility()


class TestResult:
    def test_metrics(self, problem):
        result = PlacementResult(
            placement={"fw": "n0", "nat": "n1", "lb": "n1"},
            problem=problem,
            algorithm="test",
        )
        result.validate()
        assert result.num_used_nodes == 2
        # n0: 20/30, n1: 23/25.
        assert result.average_utilization == pytest.approx(
            (20.0 / 30.0 + 23.0 / 25.0) / 2.0
        )
        assert result.total_occupied_capacity == pytest.approx(55.0)
        assert result.placement["fw"] == "n0"

    def test_unplaced_vnf_detected(self, problem):
        result = PlacementResult(
            placement={"fw": "n0"}, problem=problem
        )
        with pytest.raises(ValidationError, match="Eq. 2"):
            result.validate()

    def test_overload_detected(self, problem):
        result = PlacementResult(
            placement={"fw": "n1", "nat": "n1", "lb": "n1"},
            problem=problem,
        )
        with pytest.raises(ValidationError, match="Eq. 6"):
            result.validate()

    def test_unknown_node_detected(self, problem):
        result = PlacementResult(
            placement={"fw": "ghost", "nat": "n0", "lb": "n0"},
            problem=problem,
        )
        with pytest.raises(ValidationError):
            result.validate()


class TestDemandSorting:
    def test_descending(self, problem):
        names = [f.name for f in demand_sorted_vnfs(problem)]
        assert names == ["fw", "nat", "lb"]

    def test_deterministic_ties(self):
        vnfs = [VNF("b", 5.0, 1, 1.0), VNF("a", 5.0, 1, 1.0)]
        p = PlacementProblem(vnfs=vnfs, capacities={"n0": 100.0})
        names = [f.name for f in demand_sorted_vnfs(p)]
        assert names == ["a", "b"]
