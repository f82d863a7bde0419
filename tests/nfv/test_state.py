"""Unit tests for the joint deployment state (Eqs. 1-7 validation)."""

import pytest

from repro.exceptions import ValidationError
from repro.nfv.chain import ServiceChain
from repro.nfv.request import Request
from repro.nfv.state import DeploymentState
from repro.nfv.vnf import VNF


@pytest.fixture
def vnfs():
    return [
        VNF("fw", 10.0, 2, 100.0),
        VNF("nat", 5.0, 2, 200.0),
    ]


@pytest.fixture
def requests():
    chain = ServiceChain(["fw", "nat"])
    return [
        Request("r0", chain, 10.0),
        Request("r1", chain, 20.0),
    ]


@pytest.fixture
def capacities():
    return {"n0": 30.0, "n1": 20.0}


@pytest.fixture
def state(vnfs, requests, capacities):
    return DeploymentState(
        vnfs=vnfs,
        requests=requests,
        node_capacities=capacities,
        placement={"fw": "n0", "nat": "n0"},
        schedule={
            ("r0", "fw"): 0,
            ("r0", "nat"): 0,
            ("r1", "fw"): 1,
            ("r1", "nat"): 0,
        },
    )


class TestDerivedState:
    def test_nodes_in_service(self, state):
        assert state.nodes_in_service() == ["n0"]

    def test_node_load_eq6_lhs(self, state):
        # fw: 2 * 10 + nat: 2 * 5 = 30.
        assert state.node_load("n0") == pytest.approx(30.0)

    def test_node_utilization(self, state):
        assert state.node_utilization("n0") == pytest.approx(1.0)
        assert state.node_utilization("n1") == 0.0

    def test_unknown_node(self, state):
        with pytest.raises(ValidationError):
            state.node_utilization("ghost")

    def test_average_utilization_eq13(self, state):
        assert state.average_node_utilization() == pytest.approx(1.0)

    def test_nodes_traversed_collapses_duplicates(self, state):
        assert state.nodes_traversed("r0") == ["n0"]
        assert state.inter_node_hops("r0") == 0

    def test_inter_node_hops_across_nodes(self, vnfs, requests, capacities):
        s = DeploymentState(
            vnfs=vnfs,
            requests=requests,
            node_capacities=capacities,
            placement={"fw": "n0", "nat": "n1"},
            schedule={
                ("r0", "fw"): 0, ("r0", "nat"): 0,
                ("r1", "fw"): 0, ("r1", "nat"): 0,
            },
        )
        assert s.nodes_traversed("r0") == ["n0", "n1"]
        assert s.inter_node_hops("r0") == 1


class TestInstances:
    def test_materialization(self, state):
        instances = state.instances()
        assert len(instances) == 4  # 2 VNFs x 2 instances
        fw0 = next(i for i in instances if i.key == ("fw", 0))
        assert [r.request_id for r in fw0.requests] == ["r0"]

    def test_shared_instance_merges_rates_eq7(self, state):
        nat0 = next(
            i for i in state.instances() if i.key == ("nat", 0)
        )
        assert nat0.equivalent_arrival_rate == pytest.approx(30.0)


class TestValidation:
    def test_valid_state_passes(self, state):
        state.validate()

    def test_unplaced_vnf_eq2(self, vnfs, requests, capacities):
        s = DeploymentState(
            vnfs=vnfs, requests=requests, node_capacities=capacities,
            placement={"fw": "n0"}, schedule={},
        )
        with pytest.raises(ValidationError, match="Eq. 2"):
            s.validate_placement()

    def test_capacity_violation_eq6(self, vnfs, requests):
        s = DeploymentState(
            vnfs=vnfs, requests=requests,
            node_capacities={"n0": 10.0},
            placement={"fw": "n0", "nat": "n0"}, schedule={},
        )
        with pytest.raises(ValidationError, match="Eq. 6"):
            s.validate_placement()

    def test_missing_schedule_eq5(self, vnfs, requests, capacities, state):
        del state.schedule[("r0", "fw")]
        with pytest.raises(ValidationError, match="Eq. 5"):
            state.validate_schedule()

    def test_out_of_range_instance(self, state):
        state.schedule[("r0", "fw")] = 7
        with pytest.raises(ValidationError):
            state.validate_schedule()

    def test_value_edited_after_conversion_is_caught(self, state):
        # A value edited in place after the schedule was converted (and
        # cached) is still checked.
        state.validate_schedule()
        state.schedule[("r0", "fw")] = 7
        with pytest.raises(ValidationError, match="out of range"):
            state.validate_schedule()

    def test_schedule_arrays_follow_in_place_edits(self, state):
        def as_map(sched):
            return {
                (int(r), int(f)): int(k)
                for r, f, k in zip(sched.req, sched.vnf, sched.k)
            }

        before = state.schedule_arrays()
        assert state.schedule_arrays() is before
        state.schedule[("r1", "fw")] = 0
        assert as_map(state.schedule_arrays())[(1, 0)] == 0
        # A removal plus an addition keeps the dict's size.
        del state.schedule[("r0", "nat")]
        state.schedule[("r0", "nat")] = 1
        assert as_map(state.schedule_arrays())[(0, 1)] == 1

    def test_schedule_on_unused_vnf(self, vnfs, capacities):
        chain = ServiceChain(["fw"])
        requests = [Request("r0", chain, 1.0)]
        s = DeploymentState(
            vnfs=vnfs, requests=requests, node_capacities=capacities,
            placement={"fw": "n0", "nat": "n1"},
            schedule={("r0", "fw"): 0, ("r0", "nat"): 0},
        )
        with pytest.raises(ValidationError, match="Eq. 5"):
            s.validate_schedule()

    def test_duplicate_vnf_names_rejected(self, requests, capacities):
        vnfs = [VNF("fw", 1.0, 1, 1.0), VNF("fw", 2.0, 1, 1.0)]
        with pytest.raises(ValidationError):
            DeploymentState(
                vnfs=vnfs, requests=requests, node_capacities=capacities
            )

    def test_duplicate_request_ids_rejected(self, vnfs, capacities):
        chain = ServiceChain(["fw"])
        requests = [Request("r0", chain, 1.0), Request("r0", chain, 2.0)]
        with pytest.raises(ValidationError):
            DeploymentState(
                vnfs=vnfs, requests=requests, node_capacities=capacities
            )
