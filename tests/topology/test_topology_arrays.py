"""Unit tests for the array-native topology view (TopologyArrays)."""

import networkx as nx
import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.topology import (
    TopologyArrays,
    abilene,
    fat_tree,
    leaf_spine,
    random_datacenter,
)
from repro.topology.graph import DatacenterTopology

FABRICS = {
    "fattree4": lambda: fat_tree(4),
    "leafspine": lambda: leaf_spine(3, 2, 4),
    "abilene": abilene,
    "random12": lambda: random_datacenter(
        12, rng=np.random.default_rng(20170605)
    ),
}


@pytest.fixture
def line_topology():
    """a - b - c with distinct latencies."""
    topo = DatacenterTopology()
    for key in ("a", "b", "c"):
        topo.add_compute_node(key, 10.0)
    topo.add_link("a", "b", latency=1.0)
    topo.add_link("b", "c", latency=2.0)
    return topo


class TestLineTopology:
    def test_distances(self, line_topology):
        arrays = line_topology.arrays()
        a, b, c = (arrays.vertex_index[k] for k in ("a", "b", "c"))
        assert arrays.dist[a, b] == pytest.approx(1.0)
        assert arrays.dist[a, c] == pytest.approx(3.0)
        assert arrays.dist[a, a] == 0.0

    def test_latency_submatrix_is_compute_only(self, line_topology):
        arrays = line_topology.arrays()
        assert arrays.latency.shape == (3, 3)
        i, j = arrays.compute_index["a"], arrays.compute_index["c"]
        assert arrays.latency[i, j] == pytest.approx(3.0)

    def test_hops(self, line_topology):
        arrays = line_topology.arrays()
        i, j = arrays.compute_index["a"], arrays.compute_index["c"]
        assert arrays.hops[i, j] == 2
        assert arrays.hops[i, i] == 0

    def test_vertex_path(self, line_topology):
        arrays = line_topology.arrays()
        a, c = arrays.vertex_index["a"], arrays.vertex_index["c"]
        path = [arrays.vertex_keys[v] for v in arrays.vertex_path(a, c)]
        assert path == ["a", "b", "c"]

    def test_disconnected_rejected(self):
        # Disconnected topologies fail validation before array build.
        topo = DatacenterTopology()
        topo.add_compute_node("a", 1.0)
        topo.add_compute_node("b", 1.0)
        topo.add_link("a", "b")
        topo.add_compute_node("c", 1.0)
        topo.add_compute_node("d", 1.0)
        topo.add_link("c", "d")
        with pytest.raises(ValidationError):
            TopologyArrays.build(topo)

    def test_path_link_csr_matches_latency(self, line_topology):
        arrays = line_topology.arrays()
        ptr, links = arrays.path_link_csr()
        C = arrays.num_compute
        for i in range(C):
            for j in range(C):
                p = i * C + j
                ids = links[ptr[p] : ptr[p + 1]]
                assert arrays.link_latency[ids].sum() == pytest.approx(
                    arrays.latency[i, j]
                )
                assert len(ids) == arrays.hops[i, j]

    def test_links_on_pairs_matches_csr_slices(self, line_topology):
        arrays = line_topology.arrays()
        src = np.array([0, 0, 2], dtype=np.int64)
        dst = np.array([1, 2, 0], dtype=np.int64)
        ids, owner = arrays.links_on_pairs(src, dst)
        ptr, links = arrays.path_link_csr()
        C = arrays.num_compute
        for i in range(len(src)):
            p = int(src[i]) * C + int(dst[i])
            expected = links[ptr[p] : ptr[p + 1]]
            np.testing.assert_array_equal(ids[owner == i], expected)


@pytest.mark.parametrize("name", sorted(FABRICS))
class TestAgainstNetworkx:
    """The APSP sweep must agree with networkx Dijkstra everywhere."""

    def test_distances_match_networkx(self, name):
        topo = FABRICS[name]()
        arrays = topo.arrays()
        lengths = dict(
            nx.all_pairs_dijkstra_path_length(topo.graph, weight="latency")
        )
        for s_key, row in lengths.items():
            s = arrays.vertex_index[s_key]
            for t_key, value in row.items():
                t = arrays.vertex_index[t_key]
                assert arrays.dist[s, t] == pytest.approx(value, rel=1e-12)

    def test_dist_symmetric(self, name):
        topo = FABRICS[name]()
        arrays = topo.arrays()
        np.testing.assert_allclose(arrays.dist, arrays.dist.T, rtol=1e-12)
        np.testing.assert_allclose(
            arrays.latency, arrays.latency.T, rtol=1e-12
        )

    def test_diagonal_zero(self, name):
        arrays = FABRICS[name]().arrays()
        assert not arrays.dist.diagonal().any()
        assert not arrays.hops.diagonal().any()

    def test_paths_realize_distances(self, name):
        """Reconstructed routes must cost exactly dist and count hops."""
        topo = FABRICS[name]()
        arrays = topo.arrays()
        rng = np.random.default_rng(7)
        V = arrays.num_vertices
        for _ in range(20):
            s, t = int(rng.integers(V)), int(rng.integers(V))
            path = arrays.vertex_path(s, t)
            cost = 0.0
            for a, b in zip(path[:-1], path[1:]):
                ids = arrays._edge_ids(
                    np.array([a]), np.array([b])
                )
                cost += float(arrays.link_latency[ids[0]])
            assert cost == pytest.approx(float(arrays.dist[s, t]), rel=1e-12)

    def test_link_columns_cover_every_edge(self, name):
        topo = FABRICS[name]()
        arrays = topo.arrays()
        assert arrays.num_links == topo.num_links
        degree = np.bincount(
            np.concatenate([arrays.link_u, arrays.link_v]),
            minlength=arrays.num_vertices,
        )
        np.testing.assert_array_equal(
            degree, np.diff(arrays.adj_ptr)
        )


class TestCaching:
    def test_arrays_cached_per_topology(self):
        topo = FABRICS["random12"]()
        assert topo.arrays() is topo.arrays()

    def test_mutation_invalidates(self):
        topo = random_datacenter(6, rng=np.random.default_rng(3))
        first = topo.arrays()
        topo.add_compute_node("extra", 5.0)
        topo.add_link("extra", "node0")
        second = topo.arrays()
        assert second is not first
        assert second.num_compute == first.num_compute + 1
