"""Parity: vectorized topology Eq. (16) vs the scalar Router walk.

Mirrors ``tests/core/test_metric_parity.py`` for the topology-aware
evaluation path: :func:`total_latency_on_topology` (one gather from the
precomputed compute-pair latency matrix) must agree with
:func:`total_latency_on_topology_scalar` (per-request Router walk, kept in
``benchmarks/_reference_impl.py``) to
1e-9 relative on solved scenarios across the default seed plus ten
derived seeds, and :func:`evaluate_deployment(topology=...)
<repro.core.evaluation.evaluate_deployment>` must report the same
total.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from _reference_impl import total_latency_on_topology_scalar  # noqa: E402
from repro.core.evaluation import evaluate_deployment  # noqa: E402
from repro.core.joint import JointOptimizer  # noqa: E402
from repro.core.topology_eval import total_latency_on_topology  # noqa: E402
from repro.nfv.request import Request  # noqa: E402
from repro.scheduling.least_loaded import LeastLoadedScheduler  # noqa: E402
from repro.seeding import DEFAULT_SEED, derive_seed  # noqa: E402
from repro.topology.random_topology import random_datacenter  # noqa: E402
from repro.workload.generator import WorkloadGenerator  # noqa: E402

RTOL = 1e-9

SEEDS = [DEFAULT_SEED] + [
    derive_seed(DEFAULT_SEED, f"topology-parity-{i}") for i in range(10)
]

NUM_NODES = 20


def _close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= RTOL * max(abs(a), abs(b), 1.0)


def _solved(seed: int, stable: bool = True):
    gen = WorkloadGenerator(np.random.default_rng(seed))
    w = gen.workload(
        num_vnfs=10,
        num_nodes=NUM_NODES,
        num_requests=60,
        instance_range=(4, 10),
        delivery_probability=0.95,
    )
    requests = w.requests
    if stable:
        load = {f.name: 0.0 for f in w.vnfs}
        for r in requests:
            for name in r.chain:
                load[name] += r.effective_rate
        worst = max(
            load[f.name] / (f.num_instances * f.service_rate)
            for f in w.vnfs
        )
        scale = min(1.0, 0.7 / worst)
        requests = [
            Request(
                r.request_id,
                r.chain,
                r.arrival_rate * scale,
                r.delivery_probability,
            )
            for r in requests
        ]
    solution = JointOptimizer(scheduler=LeastLoadedScheduler()).optimize(
        w.vnfs, requests, w.capacities
    )
    topo = random_datacenter(
        NUM_NODES,
        rng=np.random.default_rng(derive_seed(seed, "parity-fabric")),
        capacities=[w.capacities[f"node{i}"] for i in range(NUM_NODES)],
    )
    return solution.state, topo


@pytest.mark.parametrize("seed", SEEDS)
class TestTopologyEq16Parity:
    def test_total_latency_matches_router_walk(self, seed):
        state, topo = _solved(seed)
        vec = total_latency_on_topology(state, topo)
        ref = total_latency_on_topology_scalar(state, topo)
        assert math.isfinite(ref)
        assert _close(vec, ref)

    def test_evaluate_deployment_topology_agrees(self, seed):
        state, topo = _solved(seed)
        report = evaluate_deployment(
            state, with_admission=False, topology=topo
        )
        assert _close(
            report.total_latency,
            total_latency_on_topology_scalar(state, topo),
        )


class TestDegenerateAgreement:
    def test_unstable_state_is_inf_on_both_paths(self):
        state, topo = _solved(SEEDS[1], stable=False)
        vec = total_latency_on_topology(state, topo)
        ref = total_latency_on_topology_scalar(state, topo)
        # Either both finite or both +inf — the unstable draw depends on
        # the seed, agreement does not.
        assert _close(vec, ref)

    def test_flat_uniform_fabric_matches_flat_model(self):
        """On a fabric where every distinct pair costs exactly L, the
        topology path reproduces the flat-L evaluation."""
        from repro.core.evaluation import DEFAULT_LINK_LATENCY
        from repro.topology.graph import DatacenterTopology

        state, _ = _solved(SEEDS[0])
        # Star through one switch: every distinct compute pair costs
        # exactly 2 * L/2 = L, matching hops-between-nodes * L when each
        # inter-node transfer counts one flat hop.
        topo = DatacenterTopology(name="star")
        for i in range(NUM_NODES):
            topo.add_compute_node(f"node{i}", 1000.0)
        topo.add_switch("hub")
        for i in range(NUM_NODES):
            topo.add_link(
                f"node{i}", "hub", latency=DEFAULT_LINK_LATENCY / 2.0
            )
        flat = evaluate_deployment(state, with_admission=False)
        assert _close(
            total_latency_on_topology(state, topo), flat.total_latency
        )
