"""Unit tests for the columnar scenario core (``repro.core.arrays``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.arrays import ScenarioArrays, cached_arrays
from repro.exceptions import SchedulingError, ValidationError
from repro.nfv.chain import ServiceChain
from repro.nfv.request import Request
from repro.nfv.state import DeploymentState
from repro.nfv.vnf import VNF
from repro.placement.base import PlacementProblem
from repro.scheduling.base import SchedulingProblem


@pytest.fixture
def vnfs():
    return [
        VNF("fw", demand_per_instance=10.0, num_instances=2,
            service_rate=100.0),
        VNF("nat", demand_per_instance=5.0, num_instances=3,
            service_rate=200.0),
        VNF("lb", demand_per_instance=8.0, num_instances=1,
            service_rate=150.0),
    ]


@pytest.fixture
def requests():
    chain_a = ServiceChain(["fw", "nat"])
    chain_b = ServiceChain(["nat", "lb"])
    return [
        Request("r0", chain_a, 10.0, delivery_probability=0.5),
        Request("r1", chain_b, 20.0),
        Request("r2", chain_a, 30.0),
    ]


@pytest.fixture
def capacities():
    return {"n0": 50.0, "n1": 40.0, "n2": 30.0}


@pytest.fixture
def arrays(vnfs, requests, capacities):
    return ScenarioArrays.build(vnfs, requests, capacities)


class TestColumns:
    def test_vnf_columns(self, arrays):
        assert arrays.vnf_names == ("fw", "nat", "lb")
        assert arrays.M_f.tolist() == [2, 3, 1]
        assert arrays.mu_f.tolist() == [100.0, 200.0, 150.0]
        assert arrays.total_demand_f.tolist() == [20.0, 15.0, 8.0]

    def test_global_instance_index(self, arrays):
        # fw -> [0, 2), nat -> [2, 5), lb -> [5, 6).
        assert arrays.instance_offset.tolist() == [0, 2, 5, 6]
        assert arrays.num_instances == 6
        assert arrays.inst_vnf.tolist() == [0, 0, 1, 1, 1, 2]
        assert arrays.mu_inst.tolist() == [100.0] * 2 + [200.0] * 3 + [150.0]

    def test_request_columns(self, arrays):
        assert arrays.request_ids == ("r0", "r1", "r2")
        assert arrays.lambda_r.tolist() == [10.0, 20.0, 30.0]
        # Effective rate is lambda_r / P_r (loss feedback, Eq. 8).
        assert arrays.eff_rate.tolist() == [20.0, 20.0, 30.0]

    def test_chain_csr(self, arrays):
        assert arrays.chain_req.tolist() == [0, 0, 1, 1, 2, 2]
        assert arrays.chain_vnf.tolist() == [0, 1, 1, 2, 0, 1]
        assert arrays.chain_ptr.tolist() == [0, 2, 4, 6]
        assert not arrays.chain_has_unknown

    def test_unknown_chain_vnf_flagged(self, vnfs, capacities):
        ghost = Request("rx", ServiceChain(["ghost"]), 5.0)
        arrays = ScenarioArrays.build(vnfs, [ghost], capacities)
        assert arrays.chain_has_unknown
        assert arrays.chain_vnf.tolist() == [-1]
        assert arrays.chain_names == ("ghost",)


class TestPlacementVector:
    def test_maps_nodes_and_unplaced(self, arrays):
        vec = arrays.placement_vector({"fw": "n1", "nat": "n0"})
        assert vec.tolist() == [1, 0, -1]

    def test_unknown_node_raises_keyerror(self, arrays):
        with pytest.raises(KeyError):
            arrays.placement_vector({"fw": "mars"})

    def test_node_loads_and_used_mask(self, arrays):
        vec = arrays.placement_vector(
            {"fw": "n0", "nat": "n0", "lb": "n2"}
        )
        assert arrays.node_loads(vec).tolist() == [35.0, 0.0, 8.0]
        assert arrays.used_node_mask(vec).tolist() == [True, False, True]


class TestScheduleArrays:
    def _sched(self, arrays):
        return arrays.schedule_arrays(
            {
                ("r0", "fw"): 0,
                ("r0", "nat"): 2,
                ("r1", "nat"): 0,
                ("r1", "lb"): 0,
                ("r2", "fw"): 1,
                ("r2", "nat"): 2,
            }
        )

    def test_global_instance_indices(self, arrays):
        sched = self._sched(arrays)
        by_entry = dict(zip(zip(sched.req.tolist(), sched.vnf.tolist()),
                            sched.inst.tolist()))
        assert by_entry[(0, 0)] == 0      # fw k=0
        assert by_entry[(0, 1)] == 4      # nat k=2 -> offset 2 + 2
        assert by_entry[(1, 2)] == 5      # lb k=0 -> offset 5
        assert by_entry[(2, 0)] == 1      # fw k=1

    def test_schedule_dict_inverts_schedule_arrays(self, arrays):
        schedule = {
            ("r2", "nat"): 2,
            ("r0", "fw"): 0,
            ("r1", "lb"): 0,
            ("r0", "nat"): 2,
        }
        sched = arrays.schedule_arrays(schedule)
        back = arrays.schedule_dict(sched)
        # Same entries in the same (row) order.
        assert list(back.items()) == list(schedule.items())
        again = arrays.schedule_arrays(back)
        for col in ("req", "vnf", "k", "inst"):
            np.testing.assert_array_equal(
                getattr(again, col), getattr(sched, col), err_msg=col
            )

    def test_schedule_dict_of_no_rows_is_empty(self, arrays):
        assert arrays.schedule_dict(arrays.schedule_arrays({})) == {}

    def test_unknown_request_rejected(self, arrays):
        with pytest.raises(ValidationError, match="unknown request"):
            arrays.schedule_arrays({("nope", "fw"): 0})

    def test_out_of_range_instance_rejected(self, arrays):
        with pytest.raises(ValidationError, match="unknown instance"):
            arrays.schedule_arrays({("r0", "fw"): 2})

    def test_instance_rates_segment_sums(self, arrays):
        sched = self._sched(arrays)
        equivalent, external, counts = arrays.instance_rates(sched)
        # nat k=2 (global 4) serves r0 (eff 20) and r2 (eff 30).
        assert equivalent.tolist() == [20.0, 30.0, 20.0, 0.0, 50.0, 20.0]
        assert external.tolist() == [10.0, 30.0, 20.0, 0.0, 40.0, 20.0]
        assert counts.tolist() == [1, 1, 1, 0, 2, 1]

    def test_response_times_flag_idle_and_unstable(self, arrays):
        w = arrays.instance_response_times(
            np.array([50.0, 0.0, 250.0, 0.0, 50.0, 20.0]),
            np.array([40.0, 0.0, 250.0, 0.0, 40.0, 20.0]),
        )
        assert w[0] == pytest.approx((0.5 / 0.5) / 40.0)
        assert np.isnan(w[1])        # idle instance
        assert np.isinf(w[2])        # rho = 250/200 >= 1 on nat

    def test_chain_instances_lookup(self, arrays):
        sched = self._sched(arrays)
        inst = arrays.chain_instances(sched)
        assert inst.tolist() == [0, 4, 2, 5, 1, 4]

    def test_chain_instances_missing_entry(self, arrays):
        sched = arrays.schedule_arrays({("r0", "fw"): 0})
        inst = arrays.chain_instances(sched)
        assert inst[0] == 0
        assert (inst[1:] == -1).all()

    def test_response_per_request_missing_raises(self, arrays):
        sched = arrays.schedule_arrays({("r0", "fw"): 0})
        w = np.zeros(arrays.num_instances)
        with pytest.raises(SchedulingError, match="unscheduled on"):
            arrays.response_per_request(sched, w)


class TestHops:
    def test_consecutive_duplicates_collapse(self, arrays):
        # r0: fw@n0 -> nat@n0 = 0 hops; r1: nat@n0 -> lb@n2 = 1 hop;
        # r2: fw@n0 -> nat@n0 = 0 hops.
        vec = arrays.placement_vector({"fw": "n0", "nat": "n0", "lb": "n2"})
        assert arrays.hops_per_request(vec).tolist() == [0, 1, 0]

    def test_matches_state_inter_node_hops(self, vnfs, requests, capacities):
        placement = {"fw": "n1", "nat": "n0", "lb": "n1"}
        state = DeploymentState(
            vnfs=vnfs,
            requests=requests,
            node_capacities=capacities,
            placement=placement,
        )
        arrays = state.arrays()
        vec = arrays.placement_vector(placement)
        hops = arrays.hops_per_request(vec)
        for i, request in enumerate(requests):
            assert hops[i] == state.inter_node_hops(request.request_id)


class TestCaching:
    def test_cached_on_deployment_state(self, vnfs, requests, capacities):
        state = DeploymentState(
            vnfs=vnfs, requests=requests, node_capacities=capacities
        )
        assert state.arrays() is state.arrays()
        first = state.arrays()
        state.invalidate_arrays()
        assert state.arrays() is not first

    def test_schedule_cache_tracks_dict_size(self, vnfs, requests, capacities):
        state = DeploymentState(
            vnfs=vnfs,
            requests=requests,
            node_capacities=capacities,
            schedule={("r0", "fw"): 0},
        )
        first = state.schedule_arrays()
        assert state.schedule_arrays() is first
        state.schedule[("r0", "nat")] = 1
        second = state.schedule_arrays()
        assert second is not first
        assert len(second) == 2

    def test_cached_on_frozen_problems(self, vnfs, requests, capacities):
        problem = PlacementProblem(vnfs=vnfs, capacities=capacities)
        assert problem.arrays() is problem.arrays()
        sched_problem = SchedulingProblem(vnf=vnfs[0], requests=requests[:1])
        assert sched_problem.arrays() is sched_problem.arrays()

    def test_cached_arrays_builds_once(self, vnfs, requests, capacities):
        class Owner:
            pass

        calls = []

        def builder(owner):
            calls.append(owner)
            return ScenarioArrays.build(vnfs, requests, capacities)

        owner = Owner()
        first = cached_arrays(owner, builder)
        assert cached_arrays(owner, builder) is first
        assert len(calls) == 1


class TestInvertedChainViews:
    """The PR-3 delta-evaluation CSRs (see docs/ARRAYS_CORE.md)."""

    def test_vnf_requests_csr(self, arrays):
        ptr, req = arrays.vnf_requests()
        # fw: r0, r2; nat: r0, r1, r2; lb: r1 (deduplicated, ascending).
        assert ptr.tolist() == [0, 2, 5, 6]
        assert req.tolist() == [0, 2, 0, 1, 2, 1]

    def test_vnf_requests_skips_unknown(self, vnfs, capacities):
        ghost = Request("rx", ServiceChain(["ghost", "fw"]), 5.0)
        arrays = ScenarioArrays.build(vnfs, [ghost], capacities)
        ptr, req = arrays.vnf_requests()
        assert ptr.tolist() == [0, 1, 1, 1]
        assert req.tolist() == [0]

    def test_vnf_chain_neighbors_csr(self, arrays):
        ptr, nbr = arrays.vnf_chain_neighbors()
        # Transitions: r0 fw-nat, r1 nat-lb, r2 fw-nat.  Each side of a
        # pair owns the other with multiplicity.
        assert ptr.tolist() == [0, 2, 5, 6]
        assert nbr.tolist() == [1, 1, 2, 0, 0, 1]

    def test_vnf_chain_neighbors_short_chain(self, vnfs, capacities):
        single = Request("r0", ServiceChain(["fw"]), 5.0)
        arrays = ScenarioArrays.build(vnfs, [single], capacities)
        ptr, nbr = arrays.vnf_chain_neighbors()
        assert ptr.tolist() == [0, 0, 0, 0]
        assert len(nbr) == 0

    def test_csrs_are_cached(self, arrays):
        assert arrays.vnf_requests() is arrays.vnf_requests()
        assert arrays.vnf_chain_neighbors() is arrays.vnf_chain_neighbors()
        assert arrays.node_str_rank() is arrays.node_str_rank()

    def test_node_str_rank_orders_by_string(self, vnfs, requests):
        arrays = ScenarioArrays.build(
            vnfs, requests, {"n10": 50.0, "n2": 40.0}
        )
        # str order: "n10" < "n2", so n10 ranks 0 and n2 ranks 1.
        assert arrays.node_str_rank().tolist() == [0, 1]
