"""GraphML loading of generated and foreign files, and the Abilene fixture."""

import networkx as nx
import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.placement.base import PlacementProblem
from repro.placement.bfdsu import BFDSUPlacement
from repro.topology import (
    abilene,
    fat_tree,
    leaf_spine,
    load_graphml,
    random_datacenter,
)

GENERATORS = {
    "fattree4": lambda: fat_tree(4),
    "leafspine": lambda: leaf_spine(3, 2, 4),
    "abilene": abilene,
    "random10": lambda: random_datacenter(
        10, rng=np.random.default_rng(20170605)
    ),
}


def _write_graphml(topology, path):
    """Write ``topology`` with the attributes ``load_graphml`` reads."""
    graph = nx.Graph(name=topology.name)
    for node in topology.compute_nodes():
        graph.add_node(node.key, kind="compute", capacity=float(node.capacity))
    for switch in topology.switches():
        graph.add_node(switch.key, kind="switch")
    for a, b, latency, bandwidth in topology.links():
        graph.add_edge(a, b, latency=float(latency), bandwidth=float(bandwidth))
    nx.write_graphml(graph, str(path))


def _link_table(topo):
    """Canonical {frozenset(endpoints): (latency, bandwidth)} view."""
    return {
        frozenset((a, b)): (latency, bandwidth)
        for a, b, latency, bandwidth in topo.links()
    }


@pytest.mark.parametrize("name", sorted(GENERATORS))
class TestRoundTrip:
    def test_generator_output_round_trips(self, name, tmp_path):
        original = GENERATORS[name]()
        path = tmp_path / f"{name}.graphml"
        _write_graphml(original, path)
        loaded = load_graphml(path)

        assert loaded.capacities() == original.capacities()
        assert {s.key for s in loaded.switches()} == {
            s.key for s in original.switches()
        }
        assert _link_table(loaded) == _link_table(original)

    def test_round_trip_preserves_shortest_paths(self, name, tmp_path):
        original = GENERATORS[name]()
        path = tmp_path / f"{name}.graphml"
        _write_graphml(original, path)
        loaded = load_graphml(path)
        a = original.arrays()
        b = loaded.arrays()
        # Key sets match; compare through each file's own index.
        for key_s in a.compute_index:
            for key_t in a.compute_index:
                assert b.latency[
                    b.compute_index[key_s], b.compute_index[key_t]
                ] == pytest.approx(
                    a.latency[
                        a.compute_index[key_s], a.compute_index[key_t]
                    ],
                    rel=1e-12,
                )


class TestForeignFiles:
    def test_attribute_free_file_gets_defaults(self, tmp_path):
        graph = nx.Graph()
        graph.add_edge("x", "y")
        graph.add_edge("y", "z")
        path = tmp_path / "foreign.graphml"
        nx.write_graphml(graph, str(path))

        topo = load_graphml(
            path, default_capacity=42.0, default_latency=0.5,
            default_bandwidth=7.0,
        )
        assert topo.capacities() == {"x": 42.0, "y": 42.0, "z": 42.0}
        assert _link_table(topo) == {
            frozenset(("x", "y")): (0.5, 7.0),
            frozenset(("y", "z")): (0.5, 7.0),
        }

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ValidationError):
            load_graphml(tmp_path / "nope.graphml")


class TestAbilene:
    def test_fixture_shape(self):
        topo = abilene()
        assert topo.num_compute_nodes == 11
        assert topo.num_links == 14
        topo.validate()

    def test_all_pops_reachable(self):
        arrays = abilene().arrays()
        assert np.isfinite(arrays.latency).all()
        assert (arrays.latency[~np.eye(11, dtype=bool)] > 0).all()

    def test_overrides(self):
        topo = abilene(capacity=123.0, bandwidth=9.0)
        assert set(topo.capacities().values()) == {123.0}
        assert {bw for _, _, _, bw in topo.links()} == {9.0}

    def test_solves_end_to_end(self):
        """BFDSU places a small problem on the Abilene fabric."""
        from repro.workload.generator import WorkloadGenerator

        gen = WorkloadGenerator(np.random.default_rng(20170713))
        w = gen.workload(num_vnfs=6, num_nodes=11, num_requests=20)
        total = sum(f.total_demand for f in w.vnfs)
        biggest = max(f.total_demand for f in w.vnfs)
        topo = abilene(capacity=max(2.0 * total / 11, 1.5 * biggest))
        problem = PlacementProblem(
            vnfs=w.vnfs, capacities=topo.capacities(), chains=w.chains
        )
        result = BFDSUPlacement(
            rng=np.random.default_rng(20170713)
        ).place(problem)
        assert set(result.placement) == {f.name for f in w.vnfs}
        assert set(result.placement.values()) <= set(topo.capacities())
