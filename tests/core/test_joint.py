"""Unit and integration tests for the two-phase joint optimizer."""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.joint import JointOptimizer
from repro.nfv.chain import ServiceChain
from repro.nfv.request import Request
from repro.nfv.vnf import VNF
from repro.placement.base import PlacementProblem
from repro.placement.bfd import BFDPlacement
from repro.placement.bfdsu import BFDSUPlacement
from repro.scheduling.cga import CGAScheduler
from repro.scheduling.rckk import RCKKScheduler
from repro.workload.generator import WorkloadGenerator

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from _reference_impl import reference_schedule_all_vnfs  # noqa: E402


@pytest.fixture
def small_instance():
    vnfs = [
        VNF("fw", 5.0, 2, 100.0),
        VNF("nat", 3.0, 2, 200.0),
    ]
    chain = ServiceChain(["fw", "nat"])
    requests = [
        Request(f"r{i}", chain, rate)
        for i, rate in enumerate([20.0, 30.0, 10.0, 25.0])
    ]
    capacities = {"n0": 12.0, "n1": 10.0, "n2": 8.0}
    return vnfs, requests, capacities


class TestDefaults:
    def test_default_algorithms(self, small_instance):
        # The defaults are BFDSU (default seed) then RCKK.
        vnfs, requests, capacities = small_instance
        a = JointOptimizer().optimize(vnfs, requests, capacities)
        b = JointOptimizer(BFDSUPlacement(), RCKKScheduler()).optimize(
            vnfs, requests, capacities
        )
        assert a.placement_result.placement == b.placement_result.placement
        assert list(a.schedule.items()) == list(b.schedule.items())

    def test_custom_algorithms(self, small_instance):
        vnfs, requests, capacities = small_instance
        solution = JointOptimizer(
            placement=BFDPlacement(), scheduler=CGAScheduler()
        ).optimize(vnfs, requests, capacities)
        placed = BFDPlacement().place(
            PlacementProblem(vnfs=vnfs, capacities=capacities)
        )
        assert solution.placement_result.placement == placed.placement
        assert list(solution.schedule.items()) == list(
            reference_schedule_all_vnfs(vnfs, requests, CGAScheduler()).items()
        )
        assert solution.state.schedule is solution.schedule


class TestOptimize:
    def test_produces_valid_state(self, small_instance):
        vnfs, requests, capacities = small_instance
        opt = JointOptimizer(
            placement=BFDSUPlacement(rng=np.random.default_rng(0))
        )
        solution = opt.optimize(vnfs, requests, capacities)
        solution.state.validate()

    def test_all_requests_scheduled(self, small_instance):
        vnfs, requests, capacities = small_instance
        solution = JointOptimizer(
            placement=BFDSUPlacement(rng=np.random.default_rng(0))
        ).optimize(vnfs, requests, capacities)
        for request in requests:
            for vnf_name in request.chain:
                assert (request.request_id, vnf_name) in solution.schedule

    def test_evaluation_report(self, small_instance):
        vnfs, requests, capacities = small_instance
        solution = JointOptimizer(
            placement=BFDSUPlacement(rng=np.random.default_rng(0))
        ).optimize(vnfs, requests, capacities)
        report = solution.evaluate()
        assert 0.0 < report.average_node_utilization <= 1.0
        assert report.nodes_in_service >= 1
        assert report.average_response_latency > 0.0

    def test_link_latency_flows_to_objective(self, small_instance):
        vnfs, requests, capacities = small_instance
        base = JointOptimizer(
            placement=BFDPlacement(), link_latency=0.0
        ).optimize(vnfs, requests, capacities)
        expensive = JointOptimizer(
            placement=BFDPlacement(), link_latency=1.0
        ).optimize(vnfs, requests, capacities)
        r0 = base.evaluate()
        r1 = expensive.evaluate()
        if r1.nodes_in_service > 1:
            assert r1.average_total_latency > r0.average_total_latency

    def test_chains_forwarded_to_placement(self, small_instance):
        vnfs, requests, capacities = small_instance
        solution = JointOptimizer(
            placement=BFDPlacement()
        ).optimize(vnfs, requests, capacities)
        assert len(solution.placement_result.problem.chains) == 1


class TestEndToEnd:
    def test_generated_workload_roundtrip(self):
        gen = WorkloadGenerator(np.random.default_rng(3))
        w = gen.workload(num_vnfs=8, num_nodes=6, num_requests=30)
        solution = JointOptimizer(
            placement=BFDSUPlacement(rng=np.random.default_rng(1))
        ).optimize(w.vnfs, w.requests, w.capacities)
        report = solution.evaluate()
        assert report.nodes_in_service <= 6
        assert report.rejection_rate <= 1.0

    def test_bfdsu_rckk_beats_baselines_on_utilization(self):
        from repro.placement.ffd import FFDPlacement

        gen = WorkloadGenerator(np.random.default_rng(4))
        utils = {"bfdsu": [], "ffd": []}
        for rep in range(5):
            w = gen.workload(num_vnfs=10, num_nodes=8, num_requests=40)
            for key, placement in (
                ("bfdsu", BFDSUPlacement(rng=np.random.default_rng(rep))),
                ("ffd", FFDPlacement()),
            ):
                solution = JointOptimizer(placement=placement).optimize(
                    w.vnfs, w.requests, w.capacities
                )
                utils[key].append(
                    solution.evaluate().average_node_utilization
                )
        assert np.mean(utils["bfdsu"]) > np.mean(utils["ffd"])
