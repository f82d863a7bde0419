"""Unit tests for the end-to-end deployment evaluation."""

import math

import pytest

from repro.core.evaluation import evaluate_deployment
from repro.nfv.chain import ServiceChain
from repro.nfv.request import Request
from repro.nfv.state import DeploymentState
from repro.nfv.vnf import VNF


def _state(mu=100.0, rates=(20.0, 30.0), capacity=20.0):
    vnfs = [VNF("fw", 10.0, 1, mu)]
    chain = ServiceChain(["fw"])
    requests = [
        Request(f"r{i}", chain, rate) for i, rate in enumerate(rates)
    ]
    return DeploymentState(
        vnfs=vnfs,
        requests=requests,
        node_capacities={"n0": capacity},
        placement={"fw": "n0"},
        schedule={(f"r{i}", "fw"): 0 for i in range(len(rates))},
    )


class TestStableDeployment:
    def test_full_report(self):
        report = evaluate_deployment(_state(), link_latency=0.0)
        assert report.average_node_utilization == pytest.approx(0.5)
        assert report.nodes_in_service == 1
        assert report.resource_occupation == pytest.approx(20.0)
        # One instance at 50/100: W = 1/50.
        assert report.average_response_latency == pytest.approx(0.02)
        assert report.max_instance_utilization == pytest.approx(0.5)
        assert report.num_rejected == 0
        assert report.is_stable()

    def test_total_latency_counts_each_request(self):
        report = evaluate_deployment(_state(), link_latency=0.0)
        # Both requests pass the same single instance.
        assert report.total_latency == pytest.approx(2 * 0.02)
        assert report.average_total_latency == pytest.approx(0.02)


class TestOverloadedDeployment:
    def test_admission_sheds_and_reports(self):
        report = evaluate_deployment(
            _state(mu=40.0), link_latency=0.0, with_admission=True
        )
        assert report.num_rejected == 1
        assert report.rejection_rate == pytest.approx(0.5)
        assert math.isfinite(report.average_response_latency)

    def test_total_latency_sums_the_counted_requests(self):
        # mu=40, rates (10, 10, 30): the 30 is shed, the two 10s stay on
        # a load of 20, each with W = 1 / (40 - 20) = 0.05.
        report = evaluate_deployment(
            _state(mu=40.0, rates=(10.0, 10.0, 30.0)),
            link_latency=0.0,
            with_admission=True,
        )
        assert report.num_rejected == 1
        assert report.total_latency == pytest.approx(0.10, rel=1e-12)
        assert report.average_total_latency == pytest.approx(
            0.05, rel=1e-12
        )

    def test_request_shed_at_one_vnf_is_not_counted(self):
        # fw (mu=40) -> nat (mu=1000), rates (10, 10, 30): the 30 does
        # not fit at fw, so r2 is rejected whole and loads nat neither.
        # r0 and r1 are counted: W_fw = 1/20, W_nat = 1/980.
        vnfs = [VNF("fw", 10.0, 1, 40.0), VNF("nat", 10.0, 1, 1000.0)]
        chain = ServiceChain(["fw", "nat"])
        requests = [
            Request(f"r{i}", chain, rate)
            for i, rate in enumerate((10.0, 10.0, 30.0))
        ]
        state = DeploymentState(
            vnfs=vnfs,
            requests=requests,
            node_capacities={"n0": 20.0},
            placement={"fw": "n0", "nat": "n0"},
            schedule={
                (f"r{i}", f): 0 for i in range(3) for f in ("fw", "nat")
            },
        )
        report = evaluate_deployment(
            state, link_latency=0.0, with_admission=True
        )
        assert report.num_rejected == 1
        assert report.rejection_rate == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert report.average_response_latency == pytest.approx(
            (1.0 / 20.0 + 1.0 / 980.0) / 2, rel=1e-12
        )
        per_request = 1.0 / 20.0 + 1.0 / 980.0
        assert report.total_latency == pytest.approx(
            2 * per_request, rel=1e-12
        )
        assert report.average_total_latency == pytest.approx(
            per_request, rel=1e-12
        )

    def test_without_admission_inf(self):
        report = evaluate_deployment(
            _state(mu=40.0), link_latency=0.0, with_admission=False
        )
        assert math.isinf(report.average_response_latency)
        assert report.num_rejected == 0
        assert not report.is_stable()

    def test_validation_runs_first(self):
        state = _state()
        state.placement.clear()
        with pytest.raises(Exception):
            evaluate_deployment(state)
