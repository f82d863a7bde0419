"""Unit tests for instance sizing and replica scale-out."""

import pytest

from repro.core.scaling import (
    offered_load,
    required_instances,
    scale_out,
)
from repro.exceptions import ConfigurationError, ValidationError
from repro.nfv.chain import ServiceChain
from repro.nfv.request import Request
from repro.nfv.vnf import VNF

CHAIN = ServiceChain(["fw"])


def _requests(rates, p=1.0):
    return [
        Request(f"r{i}", CHAIN, rate, delivery_probability=p)
        for i, rate in enumerate(rates)
    ]


class TestOfferedLoad:
    def test_sums_effective_rates(self):
        reqs = _requests([10.0, 20.0], p=0.5)
        assert offered_load("fw", reqs) == pytest.approx(60.0)

    def test_other_vnf_zero(self):
        assert offered_load("nat", _requests([10.0])) == 0.0


class TestRequiredInstances:
    def test_sizing_formula(self):
        # Load 100, mu 30, target 0.9 -> ceil(100/27) = 4.
        vnf = VNF("fw", 1.0, 1, 30.0)
        reqs = _requests([25.0] * 4)
        assert required_instances(vnf, reqs) == 4

    def test_at_least_one(self):
        vnf = VNF("fw", 1.0, 1, 1e6)
        assert required_instances(vnf, _requests([1.0])) == 1

    def test_bounded_by_request_count_eq3(self):
        # Huge load from 2 requests: still at most 2 instances.
        vnf = VNF("fw", 1.0, 1, 10.0)
        assert required_instances(vnf, _requests([100.0, 100.0])) == 2

    def test_no_users(self):
        vnf = VNF("fw", 1.0, 5, 10.0)
        assert required_instances(vnf, []) == 1

    def test_loss_inflates_requirement(self):
        vnf = VNF("fw", 1.0, 1, 30.0)
        clean = required_instances(vnf, _requests([20.0] * 5, p=1.0))
        lossy = required_instances(vnf, _requests([20.0] * 5, p=0.8))
        assert lossy >= clean

    def test_bad_target(self):
        vnf = VNF("fw", 1.0, 1, 30.0)
        with pytest.raises(ValidationError):
            required_instances(vnf, _requests([1.0]), target_utilization=1.0)


class TestScaleOut:
    def test_no_split_when_under_ceiling(self):
        vnfs = [VNF("fw", 1.0, 1, 30.0)]
        reqs = _requests([25.0] * 4)
        plan = scale_out(vnfs, reqs, max_instances_per_vnf=10)
        assert [f.name for f in plan.vnfs] == ["fw"]
        assert plan.replicas_of("fw") == ["fw"]
        assert plan.requests[0].chain.vnf_names == ("fw",)

    def test_split_into_replicas(self):
        # Load 200 over mu=10 at 0.9 -> 23 instances; ceiling 10 -> 3 replicas.
        vnfs = [VNF("fw", 1.0, 1, 10.0)]
        reqs = _requests([8.0] * 25)
        plan = scale_out(vnfs, reqs, max_instances_per_vnf=10)
        names = plan.replicas_of("fw")
        assert names == ["fw", "fw#1", "fw#2"]
        assert {f.name for f in plan.vnfs} == set(names)
        for vnf in plan.vnfs:
            assert vnf.num_instances <= 10

    def test_requests_rebound_to_replicas(self):
        vnfs = [VNF("fw", 1.0, 1, 10.0)]
        reqs = _requests([8.0] * 25)
        plan = scale_out(vnfs, reqs, max_instances_per_vnf=10)
        names = set(plan.replicas_of("fw"))
        used = {r.chain.vnf_names[0] for r in plan.requests}
        assert used == names  # every replica serves someone
        assert len(plan.requests) == 25

    def test_replica_loads_balanced(self):
        vnfs = [VNF("fw", 1.0, 1, 10.0)]
        reqs = _requests([8.0] * 24)
        plan = scale_out(vnfs, reqs, max_instances_per_vnf=10)
        loads = {name: 0.0 for name in plan.replicas_of("fw")}
        for r in plan.requests:
            loads[r.chain.vnf_names[0]] += r.effective_rate
        values = sorted(loads.values())
        assert values[-1] - values[0] <= 8.0 + 1e-9  # within one request

    def test_multi_vnf_chain_rebinding(self):
        chain = ServiceChain(["fw", "nat"])
        vnfs = [VNF("fw", 1.0, 1, 10.0), VNF("nat", 1.0, 1, 1e6)]
        reqs = [Request(f"r{i}", chain, 8.0) for i in range(25)]
        plan = scale_out(vnfs, reqs, max_instances_per_vnf=10)
        for r in plan.requests:
            assert len(r.chain) == 2
            assert r.chain.vnf_names[1] == "nat"  # untouched VNF stays

    def test_replicas_feed_placement(self):
        """Scale-out output drops straight into the joint optimizer."""
        import numpy as np

        from repro.core.joint import JointOptimizer
        from repro.placement.bfdsu import BFDSUPlacement

        vnfs = [VNF("fw", 10.0, 1, 10.0)]
        reqs = _requests([8.0] * 25)
        plan = scale_out(vnfs, reqs, max_instances_per_vnf=10)
        capacities = {f"n{i}": 150.0 for i in range(4)}
        solution = JointOptimizer(
            placement=BFDSUPlacement(rng=np.random.default_rng(0))
        ).optimize(plan.vnfs, plan.requests, capacities)
        solution.state.validate()

    def test_bad_ceiling(self):
        with pytest.raises(ConfigurationError):
            scale_out([VNF("fw", 1.0, 1, 1.0)], _requests([1.0]), 0)

    def test_unknown_replica_group(self):
        plan = scale_out([VNF("fw", 1.0, 1, 1e6)], _requests([1.0]), 5)
        with pytest.raises(ValidationError):
            plan.replicas_of("ghost")
