"""Unit tests for the Eq. (16) local-search refinement."""

import pytest

from repro.core.local_search import (
    refine_placement,
    total_inter_node_hops,
)
from repro.exceptions import ValidationError
from repro.nfv.chain import ServiceChain
from repro.nfv.request import Request
from repro.nfv.state import DeploymentState
from repro.nfv.vnf import VNF


def _state(placement, capacities=None):
    vnfs = [VNF("fw", 5.0, 1, 1000.0), VNF("nat", 5.0, 1, 1000.0)]
    chain = ServiceChain(["fw", "nat"])
    requests = [Request("r0", chain, 10.0), Request("r1", chain, 20.0)]
    caps = capacities or {"n0": 20.0, "n1": 20.0}
    return DeploymentState(
        vnfs=vnfs,
        requests=requests,
        node_capacities=caps,
        placement=placement,
        schedule={
            ("r0", "fw"): 0, ("r0", "nat"): 0,
            ("r1", "fw"): 0, ("r1", "nat"): 0,
        },
    )


class TestHopCounting:
    def test_split_chain_pays_per_request(self):
        state = _state({"fw": "n0", "nat": "n1"})
        assert total_inter_node_hops(state) == 2  # both requests hop once

    def test_colocated_pays_nothing(self):
        state = _state({"fw": "n0", "nat": "n0"})
        assert total_inter_node_hops(state) == 0


class TestRefinement:
    def test_consolidates_split_chain(self):
        state = _state({"fw": "n0", "nat": "n1"})
        report = refine_placement(state)
        assert report.moves_applied > 0
        assert report.final_hops == 0
        assert report.hops_saved == 2
        # Both VNFs now share a node.
        assert state.placement["fw"] == state.placement["nat"]
        state.validate()

    def test_already_optimal_is_noop(self):
        state = _state({"fw": "n0", "nat": "n0"})
        report = refine_placement(state)
        assert report.moves_applied == 0
        assert report.hops_saved == 0
        assert state.placement == {"fw": "n0", "nat": "n0"}

    def test_respects_capacity(self):
        # Nodes too small to co-locate: no move possible.
        state = _state(
            {"fw": "n0", "nat": "n1"},
            capacities={"n0": 6.0, "n1": 6.0},
        )
        report = refine_placement(state)
        assert report.moves_applied == 0
        assert state.placement == {"fw": "n0", "nat": "n1"}

    def test_schedule_untouched(self):
        state = _state({"fw": "n0", "nat": "n1"})
        before = dict(state.schedule)
        refine_placement(state)
        assert state.schedule == before

    def test_bad_rounds(self):
        state = _state({"fw": "n0", "nat": "n0"})
        with pytest.raises(ValidationError):
            refine_placement(state, max_rounds=0)

    def test_three_node_chain_consolidation(self):
        vnfs = [VNF(n, 3.0, 1, 1000.0) for n in ("a", "b", "c")]
        chain = ServiceChain(["a", "b", "c"])
        requests = [Request("r0", chain, 5.0)]
        state = DeploymentState(
            vnfs=vnfs,
            requests=requests,
            node_capacities={"n0": 10.0, "n1": 10.0, "n2": 10.0},
            placement={"a": "n0", "b": "n1", "c": "n2"},
            schedule={("r0", v): 0 for v in ("a", "b", "c")},
        )
        report = refine_placement(state)
        assert report.final_hops == 0
        nodes = {state.placement[v] for v in ("a", "b", "c")}
        assert len(nodes) == 1
