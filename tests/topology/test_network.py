"""Unit tests for NetworkModel — routed-flow bandwidth accounting."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.topology import NetworkModel, random_datacenter
from repro.topology.graph import DatacenterTopology

VNFS = ("fw", "lb", "ids", "nat")
NODES = ("n0", "n1", "n2")


@pytest.fixture
def line_topology():
    """n0 - n1 - n2 (link 0 = n0-n1, link 1 = n1-n2)."""
    topo = DatacenterTopology()
    for key in NODES:
        topo.add_compute_node(key, 100.0)
    topo.add_link("n0", "n1", latency=1.0, bandwidth=10.0)
    topo.add_link("n1", "n2", latency=1.0, bandwidth=10.0)
    return topo


def _model(topo, chain_flows, bandwidth=None):
    return NetworkModel.build(
        topo, VNFS, NODES, chain_flows, bandwidth=bandwidth
    )


class TestPairAggregation:
    def test_adjacent_distinct_pairs_sum(self, line_topology):
        model = _model(
            line_topology,
            [
                (["fw", "lb"], 2.0),
                (["lb", "fw"], 3.0),  # unordered: same pair as fw->lb
                (["fw", "lb", "ids"], 1.0),
            ],
        )
        pairs = {
            (VNFS[a], VNFS[b]): f
            for a, b, f in zip(
                model.pair_a, model.pair_b, model.pair_flow
            )
        }
        assert pairs == {
            ("fw", "lb"): pytest.approx(6.0),
            ("lb", "ids"): pytest.approx(1.0),
        }

    def test_self_loops_ignored(self, line_topology):
        model = _model(line_topology, [(["fw", "fw"], 5.0)])
        assert len(model.pair_flow) == 0

    def test_unknown_vnf_rejected(self, line_topology):
        with pytest.raises(ValidationError):
            _model(line_topology, [(["fw", "ghost"], 1.0)])

    def test_unknown_node_rejected(self, line_topology):
        with pytest.raises(ValidationError):
            NetworkModel.build(
                line_topology, VNFS, ("n0", "ghost"), []
            )


class TestLinkLoads:
    def test_routed_flow_charges_every_link(self, line_topology):
        model = _model(line_topology, [(["fw", "lb"], 4.0)])
        # fw on n0, lb on n2: both links carry the flow.
        vec = model.placement_vector({"fw": "n0", "lb": "n2"})
        np.testing.assert_allclose(model.link_loads(vec), [4.0, 4.0])

    def test_colocated_pair_is_free(self, line_topology):
        model = _model(line_topology, [(["fw", "lb"], 4.0)])
        vec = model.placement_vector({"fw": "n1", "lb": "n1"})
        np.testing.assert_allclose(model.link_loads(vec), [0.0, 0.0])

    def test_unplaced_vnfs_contribute_nothing(self, line_topology):
        model = _model(line_topology, [(["fw", "lb"], 4.0)])
        vec = model.placement_vector({"fw": "n0"})
        np.testing.assert_allclose(model.link_loads(vec), [0.0, 0.0])

    def test_incremental_equals_full_rebuild(self):
        """add_flows-by-VNF reconstruction matches link_loads exactly."""
        rng = np.random.default_rng(20170605)
        topo = random_datacenter(8, rng=rng)
        names = tuple(f"f{i}" for i in range(6))
        nodes = tuple(f"node{i}" for i in range(8))
        chains = [
            (
                list(rng.choice(names, size=rng.integers(2, 5))),
                float(rng.uniform(0.5, 3.0)),
            )
            for _ in range(12)
        ]
        model = NetworkModel.build(topo, names, nodes, chains)
        targets = rng.integers(0, 8, size=len(names))

        vec = np.full(len(names), -1, dtype=np.int64)
        loads = np.zeros(model.num_links)
        for fi, target in enumerate(targets):
            model.add_flows(fi, int(target), vec, loads)
            vec[fi] = int(target)
        np.testing.assert_allclose(
            loads, model.link_loads(vec), rtol=0, atol=1e-12
        )

    def test_incremental_matches_rebuild_under_path_ties(self):
        """Uniform link latencies create shortest-path ties whose
        Dijkstra tie-break differs per direction; load accounting must
        charge one canonical route per unordered node pair so that
        add/retract from either endpoint cancel exactly (regression:
        the swap pass used to drift and oversubscribe links)."""
        rng = np.random.default_rng(20170713)
        topo = random_datacenter(24, rng=rng)  # uniform 1e-4 latencies
        names = tuple(f"f{i}" for i in range(8))
        nodes = tuple(f"node{i}" for i in range(24))
        chains = [
            (
                list(rng.choice(names, size=int(rng.integers(2, 5)))),
                float(rng.uniform(0.5, 3.0)),
            )
            for _ in range(20)
        ]
        model = NetworkModel.build(topo, names, nodes, chains)
        vec = rng.integers(0, 24, size=len(names)).astype(np.int64)
        loads = model.link_loads(vec)
        # Relocate every VNF once: retract, move, re-add.
        for fi in range(len(names)):
            node = int(vec[fi])
            vec[fi] = -1
            model.add_flows(fi, node, vec, loads, sign=-1.0)
            target = int(rng.integers(0, 24))
            model.add_flows(fi, target, vec, loads, sign=1.0)
            vec[fi] = target
        np.testing.assert_allclose(
            loads, model.link_loads(vec), rtol=0, atol=1e-9
        )

    def test_retract_cancels_exactly(self, line_topology):
        model = _model(
            line_topology, [(["fw", "lb"], 4.0), (["lb", "ids"], 2.0)]
        )
        vec = model.placement_vector(
            {"fw": "n0", "lb": "n2", "ids": "n1"}
        )
        loads = model.link_loads(vec)
        fi = VNFS.index("lb")
        node = int(vec[fi])
        vec[fi] = -1
        model.add_flows(fi, node, vec, loads, sign=-1.0)
        model.add_flows(fi, node, vec, loads, sign=1.0)
        vec[fi] = node
        np.testing.assert_allclose(loads, model.link_loads(vec))


class TestFits:
    def test_fits_within_budget(self, line_topology):
        model = _model(
            line_topology, [(["fw", "lb"], 9.0)], bandwidth=10.0
        )
        vec = model.placement_vector({"fw": "n0"})
        loads = model.link_loads(vec)
        assert model.fits(VNFS.index("lb"), 2, vec, loads)

    def test_rejects_oversubscription(self, line_topology):
        model = _model(
            line_topology, [(["fw", "lb"], 11.0)], bandwidth=10.0
        )
        vec = model.placement_vector({"fw": "n0"})
        loads = model.link_loads(vec)
        lb = VNFS.index("lb")
        assert not model.fits(lb, 2, vec, loads)
        # Colocation always fits: no flow routed.
        assert model.fits(lb, 0, vec, loads)

    def test_epsilon_slack_at_exact_budget(self, line_topology):
        model = _model(
            line_topology, [(["fw", "lb"], 10.0)], bandwidth=10.0
        )
        vec = model.placement_vector({"fw": "n0"})
        loads = model.link_loads(vec)
        assert model.fits(VNFS.index("lb"), 2, vec, loads)


class TestDiagnostics:
    def test_oversubscribed_links(self, line_topology):
        model = _model(
            line_topology, [(["fw", "lb"], 11.0)], bandwidth=10.0
        )
        vec = model.placement_vector({"fw": "n0", "lb": "n2"})
        np.testing.assert_array_equal(
            model.oversubscribed_links(vec), [0, 1]
        )
        assert model.max_link_utilization(vec) == pytest.approx(1.1)

    def test_clean_placement_reports_nothing(self, line_topology):
        model = _model(
            line_topology, [(["fw", "lb"], 11.0)], bandwidth=10.0
        )
        vec = model.placement_vector({"fw": "n1", "lb": "n1"})
        assert len(model.oversubscribed_links(vec)) == 0
        assert model.max_link_utilization(vec) == 0.0


class TestBandwidthSpecification:
    def test_default_uses_topology_column(self, line_topology):
        model = _model(line_topology, [])
        np.testing.assert_allclose(model.bandwidth, [10.0, 10.0])

    def test_scalar_applies_uniformly(self, line_topology):
        model = _model(line_topology, [], bandwidth=3.0)
        np.testing.assert_allclose(model.bandwidth, [3.0, 3.0])

    def test_per_link_sequence(self, line_topology):
        model = _model(line_topology, [], bandwidth=[1.0, 2.0])
        np.testing.assert_allclose(model.bandwidth, [1.0, 2.0])

    def test_wrong_length_rejected(self, line_topology):
        with pytest.raises(ValidationError):
            _model(line_topology, [], bandwidth=[1.0])

    def test_nonpositive_rejected(self, line_topology):
        with pytest.raises(ValidationError):
            _model(line_topology, [], bandwidth=0.0)


class TestPlacementVector:
    def test_unknown_node_rejected(self, line_topology):
        model = _model(line_topology, [])
        with pytest.raises(ValidationError):
            model.placement_vector({"fw": "ghost"})


class TestRemoveFlows:
    """``add_flows(..., sign=-1)`` retracts a VNF's flows exactly."""

    def test_add_then_remove_restores_exactly(self, line_topology):
        """Bit-exact, not approximate: x + f - f == x per link."""
        model = _model(
            line_topology,
            [(["fw", "lb"], 4.0), (["lb", "ids"], 2.5), (["fw", "ids"], 1.25)],
        )
        vec = model.placement_vector({"fw": "n0", "ids": "n1"})
        loads = model.link_loads(vec)
        before = loads.copy()
        lb = VNFS.index("lb")
        model.add_flows(lb, 2, vec, loads)
        vec[lb] = 2
        vec[lb] = -1
        model.add_flows(lb, 2, vec, loads, -1.0)
        np.testing.assert_array_equal(loads, before)

    def test_roundtrip_property_random_topologies(self):
        """Seeded property sweep: for random fabrics, placements and
        flow values, add_flows followed by its retraction at the same
        node restores every link residual bit-exactly — the canonical
        min->max routing makes the retraction replay identical float
        additions with the sign flipped, regardless of which endpoint
        of a tied shortest path the VNF sits on."""
        rng = np.random.default_rng(20170605)
        for trial in range(10):
            num_nodes = int(rng.integers(4, 16))
            topo = random_datacenter(num_nodes, rng=rng)
            names = tuple(f"f{i}" for i in range(int(rng.integers(3, 7))))
            nodes = tuple(f"node{i}" for i in range(num_nodes))
            chains = [
                (
                    list(
                        rng.choice(
                            names,
                            size=int(rng.integers(2, min(5, len(names) + 1))),
                            replace=False,
                        )
                    ),
                    # Dyadic flows: every partial sum is exactly
                    # representable, so "restores exactly" is a
                    # routing-canonicalization property, not a
                    # rounding accident.
                    float(rng.integers(1, 64)) / 8.0,
                )
                for _ in range(int(rng.integers(3, 12)))
            ]
            model = NetworkModel.build(topo, names, nodes, chains)
            vec = rng.integers(0, num_nodes, size=len(names)).astype(np.int64)
            loads = model.link_loads(vec)
            before = loads.copy()
            fi = int(rng.integers(len(names)))
            node = int(vec[fi])
            target = int(rng.integers(num_nodes))
            # Move fi away and back: each add is later retracted at the
            # same node, so the residuals must land exactly on `before`.
            vec[fi] = -1
            model.add_flows(fi, node, vec, loads, -1.0)
            model.add_flows(fi, target, vec, loads)
            vec[fi] = target
            vec[fi] = -1
            model.add_flows(fi, target, vec, loads, -1.0)
            model.add_flows(fi, node, vec, loads)
            vec[fi] = node
            np.testing.assert_array_equal(
                loads, before, err_msg=f"trial {trial}"
            )


class TestChainFlows:
    """Per-request routed flows — the admit/depart path of the engine."""

    def test_chain_link_flows_crossing_line(self, line_topology):
        model = _model(line_topology, [])
        vec = model.placement_vector({"fw": "n0", "lb": "n2", "ids": "n1"})
        chain = np.array(
            [VNFS.index("fw"), VNFS.index("lb"), VNFS.index("ids")],
            dtype=np.int64,
        )
        links, flows = model.chain_link_flows(chain, vec, 4.0)
        # fw->lb crosses both links; lb->ids crosses link 1 only.
        loads = np.zeros(model.num_links)
        np.add.at(loads, links, flows)
        np.testing.assert_allclose(loads, [4.0, 8.0])

    def test_colocated_and_unplaced_hops_are_free(self, line_topology):
        model = _model(line_topology, [])
        vec = model.placement_vector({"fw": "n1", "lb": "n1"})
        chain = np.array(
            [VNFS.index("fw"), VNFS.index("lb"), VNFS.index("ids")],
            dtype=np.int64,
        )
        links, flows = model.chain_link_flows(chain, vec, 4.0)
        assert len(links) == 0 and len(flows) == 0

    def test_chain_fits_gates_on_residuals(self, line_topology):
        model = _model(line_topology, [], bandwidth=10.0)
        vec = model.placement_vector({"fw": "n0", "lb": "n2"})
        loads = np.zeros(model.num_links)
        chain = np.array(
            [VNFS.index("fw"), VNFS.index("lb")], dtype=np.int64
        )
        assert model.chain_fits(chain, vec, loads, 9.0)
        links, flows = model.chain_link_flows(chain, vec, 9.0)
        np.add.at(loads, links, flows)
        assert not model.chain_fits(chain, vec, loads, 2.0)
        assert model.chain_fits(chain, vec, loads, 1.0)

    def test_add_remove_chain_flows_roundtrip_exact(self, line_topology):
        model = _model(line_topology, [])
        vec = model.placement_vector(
            {"fw": "n0", "lb": "n2", "ids": "n1", "nat": "n0"}
        )
        loads = np.zeros(model.num_links)
        chains = [
            np.array([0, 1, 2], dtype=np.int64),
            np.array([2, 3], dtype=np.int64),
            np.array([1, 0, 3], dtype=np.int64),
        ]
        rates = [4.25, 1.125, 2.5]
        for sign, order in ((1.0, 1), (-1.0, -1)):
            for chain, rate in list(zip(chains, rates))[::order]:
                links, flows = model.chain_link_flows(chain, vec, rate)
                np.add.at(loads, links, sign * flows)
        np.testing.assert_array_equal(loads, np.zeros(model.num_links))
