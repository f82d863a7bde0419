"""Unit tests for topology-aware Eq. (16) evaluation."""

import pytest

from repro.core.objectives import total_latency
from repro.core.topology_eval import (
    request_path_latency,
    total_latency_on_topology,
)
from repro.exceptions import ValidationError
from repro.nfv.chain import ServiceChain
from repro.nfv.request import Request
from repro.nfv.state import DeploymentState
from repro.nfv.vnf import VNF
from repro.topology.graph import DatacenterTopology
from repro.topology.routing import Router


@pytest.fixture
def fabric():
    """s0 - sw - s1, with 1 ms per link (2 ms server to server)."""
    topo = DatacenterTopology()
    topo.add_compute_node("s0", 50.0)
    topo.add_compute_node("s1", 50.0)
    topo.add_switch("sw")
    topo.add_link("s0", "sw", latency=1e-3)
    topo.add_link("sw", "s1", latency=1e-3)
    return topo


def _state(placement):
    vnfs = [VNF("fw", 10.0, 1, 100.0), VNF("nat", 10.0, 1, 100.0)]
    chain = ServiceChain(["fw", "nat"])
    requests = [Request("r0", chain, 20.0)]
    return DeploymentState(
        vnfs=vnfs,
        requests=requests,
        node_capacities={"s0": 50.0, "s1": 50.0},
        placement=placement,
        schedule={("r0", "fw"): 0, ("r0", "nat"): 0},
    )


class TestTotalLatency:
    def test_cross_fabric_pays_path_latency(self, fabric):
        state = _state({"fw": "s0", "nat": "s1"})
        measured = total_latency_on_topology(state, fabric)
        flat = total_latency(state, link_latency=0.0)
        # Path s0 -> sw -> s1 is 2 ms.
        assert measured == pytest.approx(flat + 2e-3)

    def test_colocated_pays_nothing(self, fabric):
        state = _state({"fw": "s0", "nat": "s0"})
        assert total_latency_on_topology(state, fabric) == pytest.approx(
            total_latency(state, link_latency=0.0)
        )

    def test_unknown_node_rejected(self, fabric):
        state = _state({"fw": "ghost", "nat": "s1"})
        state.node_capacities = {"ghost": 50.0, "s1": 50.0}
        with pytest.raises(ValidationError):
            total_latency_on_topology(state, fabric)


class TestBreakdown:
    def test_per_request(self, fabric):
        state = _state({"fw": "s0", "nat": "s1"})
        latency = request_path_latency(state, Router(fabric), "r0")
        assert latency == pytest.approx(2e-3)
