"""Unit tests for shortest-path routing."""

import pytest

from repro.exceptions import ValidationError
from repro.topology import Router, leaf_spine
from repro.topology.graph import DatacenterTopology


@pytest.fixture
def line_topology():
    """a - b - c with distinct latencies."""
    topo = DatacenterTopology()
    for key in ("a", "b", "c"):
        topo.add_compute_node(key, 10.0)
    topo.add_link("a", "b", latency=1.0)
    topo.add_link("b", "c", latency=2.0)
    return topo


def _hops(topology, source, target):
    """Link count of the materialized route between two compute nodes."""
    arrays = topology.arrays()
    index = arrays.compute_index
    return int(arrays.hops[index[source], index[target]])


class TestPathQueries:
    def test_direct_path(self, line_topology):
        router = Router(line_topology)
        assert router.path("a", "b") == ["a", "b"]
        assert router.latency("a", "b") == pytest.approx(1.0)

    def test_two_hop_path(self, line_topology):
        router = Router(line_topology)
        assert router.path("a", "c") == ["a", "b", "c"]
        assert router.latency("a", "c") == pytest.approx(3.0)
        assert _hops(line_topology, "a", "c") == 2

    def test_self_path(self, line_topology):
        router = Router(line_topology)
        assert router.latency("a", "a") == 0.0
        assert _hops(line_topology, "a", "a") == 0

    def test_prefers_low_latency(self):
        topo = DatacenterTopology()
        for key in ("a", "b", "c"):
            topo.add_compute_node(key, 10.0)
        topo.add_link("a", "c", latency=10.0)
        topo.add_link("a", "b", latency=1.0)
        topo.add_link("b", "c", latency=1.0)
        router = Router(topo)
        assert router.path("a", "c") == ["a", "b", "c"]

    def test_unknown_vertex(self, line_topology):
        router = Router(line_topology)
        with pytest.raises(ValidationError):
            router.path("a", "ghost")
        with pytest.raises(ValidationError):
            router.latency("ghost", "a")


class TestWaypointLatency:
    def test_chain_of_waypoints(self, line_topology):
        router = Router(line_topology)
        assert router.path_latency(["a", "b", "c"]) == pytest.approx(3.0)

    def test_duplicate_waypoints_free(self, line_topology):
        router = Router(line_topology)
        assert router.path_latency(["a", "a", "b"]) == pytest.approx(1.0)

    def test_single_waypoint(self, line_topology):
        assert Router(line_topology).path_latency(["a"]) == 0.0


class TestPathCacheBound:
    def test_cache_never_exceeds_bound(self, line_topology):
        router = Router(line_topology, path_cache_size=2)
        for source in ("a", "b", "c"):
            for target in ("a", "b", "c"):
                if source != target:
                    router.path(source, target)
        assert len(router._path_cache) <= 2

    def test_lru_evicts_oldest(self, line_topology):
        router = Router(line_topology, path_cache_size=2)
        router.path("a", "b")
        router.path("b", "c")
        router.path("a", "b")  # refresh (a, b)
        router.path("a", "c")  # evicts (b, c), the least recent
        arrays = line_topology.arrays()
        a, b, c = (arrays.vertex_index[k] for k in ("a", "b", "c"))
        assert set(router._path_cache) == {(a, b), (a, c)}

    def test_cached_path_is_a_copy(self, line_topology):
        router = Router(line_topology)
        first = router.path("a", "c")
        first.append("tampered")
        assert router.path("a", "c") == ["a", "b", "c"]

    def test_invalid_cache_size_rejected(self, line_topology):
        with pytest.raises(ValidationError):
            Router(line_topology, path_cache_size=0)


class TestPrebuiltArraysInput:
    def test_router_accepts_topology_arrays(self, line_topology):
        router = Router(line_topology.arrays())
        assert router.path("a", "c") == ["a", "b", "c"]
        assert router.latency("a", "c") == pytest.approx(3.0)


class TestAveragePairwise:
    def test_line(self, line_topology):
        router = Router(line_topology)
        # Pairs: (a,b)=1, (a,c)=3, (b,c)=2 -> mean 2.
        assert router.average_pairwise_latency() == pytest.approx(2.0)

    def test_singleton_is_zero(self):
        topo = DatacenterTopology()
        topo.add_compute_node("a", 1.0)
        assert Router(topo).average_pairwise_latency() == 0.0

    def test_fabric_symmetric(self):
        topo = leaf_spine(2, 2, 2, link_latency=1e-4)
        # Same-leaf pairs: 2 hops; cross-leaf: 4 hops.
        assert _hops(topo, "server0", "server1") == 2
        assert _hops(topo, "server0", "server2") == 4
