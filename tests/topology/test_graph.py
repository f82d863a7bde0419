"""Unit tests for the core topology data model."""

import pytest

from repro.exceptions import ValidationError
from repro.topology.graph import ComputeNode, DatacenterTopology, Switch


class TestVertices:
    def test_add_compute_node(self):
        topo = DatacenterTopology()
        node = topo.add_compute_node("s0", 100.0)
        assert isinstance(node, ComputeNode)
        assert topo.num_compute_nodes == 1

    def test_add_switch(self):
        topo = DatacenterTopology()
        sw = topo.add_switch("sw0")
        assert isinstance(sw, Switch)
        assert topo.num_switches == 1

    def test_duplicate_key_rejected(self):
        topo = DatacenterTopology()
        topo.add_compute_node("x", 1.0)
        with pytest.raises(ValidationError):
            topo.add_switch("x")

    def test_zero_capacity_rejected(self):
        topo = DatacenterTopology()
        with pytest.raises(ValidationError):
            topo.add_compute_node("s0", 0.0)

    def test_capacities_map(self):
        topo = DatacenterTopology()
        topo.add_compute_node("a", 10.0)
        topo.add_compute_node("b", 20.0)
        topo.add_switch("sw")
        assert topo.capacities() == {"a": 10.0, "b": 20.0}


class TestLinks:
    def _pair(self):
        topo = DatacenterTopology()
        topo.add_compute_node("a", 10.0)
        topo.add_compute_node("b", 10.0)
        return topo

    def test_add_link(self):
        topo = self._pair()
        topo.add_link("a", "b", latency=2e-4)
        assert topo.num_links == 1
        assert topo.link_latency("a", "b") == pytest.approx(2e-4)

    def test_unknown_vertex_rejected(self):
        topo = self._pair()
        with pytest.raises(ValidationError):
            topo.add_link("a", "ghost")

    def test_self_loop_rejected(self):
        topo = self._pair()
        with pytest.raises(ValidationError):
            topo.add_link("a", "a")

    def test_negative_latency_rejected(self):
        topo = self._pair()
        with pytest.raises(ValidationError):
            topo.add_link("a", "b", latency=-1.0)

    def test_missing_link_latency_raises(self):
        topo = self._pair()
        with pytest.raises(ValidationError):
            topo.link_latency("a", "b")


class TestValidation:
    def test_connected_passes(self):
        topo = DatacenterTopology()
        topo.add_compute_node("a", 1.0)
        topo.add_compute_node("b", 1.0)
        topo.add_link("a", "b")
        topo.validate()

    def test_disconnected_rejected(self):
        topo = DatacenterTopology()
        topo.add_compute_node("a", 1.0)
        topo.add_compute_node("b", 1.0)
        with pytest.raises(ValidationError):
            topo.validate()

    def test_no_compute_nodes_rejected(self):
        topo = DatacenterTopology()
        topo.add_switch("sw")
        with pytest.raises(ValidationError):
            topo.validate()

    def test_total_capacity(self):
        topo = DatacenterTopology()
        topo.add_compute_node("a", 10.0)
        topo.add_compute_node("b", 15.0)
        assert topo.total_capacity() == pytest.approx(25.0)
