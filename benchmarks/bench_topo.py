#!/usr/bin/env python
"""Micro-benchmark: APSP-gather topology evaluation vs the Router loop.

Builds one deterministic solved scenario and a random fabric whose
compute nodes match the scenario's placement nodes, parity-checks the
vectorized topology Eq. (16) (:func:`total_latency_on_topology`) against
the per-request Router walk (``total_latency_on_topology_scalar``) at
1e-9 relative, then times:

* ``topology_total_latency`` — the Eq. (16) total with measured
  shortest-path latencies: scalar per-request Router walk vs one gather
  from the precomputed compute-pair latency matrix,
* ``apsp_build`` — the one-time ``TopologyArrays.build`` sweep (dense
  all-pairs Dijkstra + hop counts + link index), reported for context
  (no reference column),
* ``link_loads`` — :meth:`NetworkModel.link_loads`: full routed-flow
  accounting for every chain-adjacent VNF pair via the path-link CSR.

Usage::

    PYTHONPATH=src python benchmarks/bench_topo.py [--quick] [--out FILE]

``--quick`` shrinks the scenario for CI smoke runs; ``--out`` writes the
JSON report to a file (it always prints to stdout).  ``--min-speedup``
gates on the ``topology_total_latency`` speedup; the acceptance bar on
the full scenario (2000 requests / 200 nodes) is 10x, but quick-mode
inputs are overhead-dominated, so the default is report-only.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

try:  # pragma: no cover - path bootstrap for direct script runs
    import repro  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from _reference_impl import total_latency_on_topology_scalar
from bench_core import DEFAULT_SEED, _compare, _time, build_scenario
from repro.core.topology_eval import total_latency_on_topology
from repro.topology.arrays import TopologyArrays
from repro.topology.network import NetworkModel
from repro.topology.random_topology import random_datacenter


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small scenario + fewer repeats (CI smoke)",
    )
    parser.add_argument("--out", type=Path, help="write the JSON report here")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="exit non-zero if topology_total_latency falls below this "
        "speedup (default 0: report only)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        num_requests, num_nodes, num_vnfs, repeats = 300, 50, 20, 3
    else:
        num_requests, num_nodes, num_vnfs, repeats = 2000, 200, 40, 5

    print(
        f"building scenario: {num_requests} requests, {num_nodes} nodes, "
        f"{num_vnfs} VNFs (seed {args.seed})",
        file=sys.stderr,
    )
    solution, vnfs, requests = build_scenario(
        num_requests, num_nodes, num_vnfs, seed=args.seed
    )
    state = solution.state
    # A fabric whose compute nodes are exactly the scenario's nodes.
    topo = random_datacenter(
        num_nodes,
        rng=np.random.default_rng(args.seed),
        capacities=[
            state.node_capacities[f"node{i}"] for i in range(num_nodes)
        ],
    )
    topo.arrays()  # precompute outside the timed region, as the hot path sees it

    # ------------------------------------------------------------------
    # Parity before timing: vectorized must match the Router walk.
    # ------------------------------------------------------------------
    vec = total_latency_on_topology(state, topo)
    ref = total_latency_on_topology_scalar(state, topo)
    rel = abs(vec - ref) / max(abs(ref), 1e-30)
    if not rel <= 1e-9:
        raise SystemExit(
            f"parity check failed: vectorized {vec!r} vs scalar {ref!r} "
            f"(rel {rel:.3e})"
        )
    print(f"parity ok: topology_total_latency (rel {rel:.1e})", file=sys.stderr)

    # ------------------------------------------------------------------
    # Timings.
    # ------------------------------------------------------------------
    results = {}
    _compare(
        "topology_total_latency",
        lambda: total_latency_on_topology_scalar(state, topo),
        lambda: total_latency_on_topology(state, topo),
        repeats,
        results,
    )

    build_stats = _time(lambda: TopologyArrays.build(topo), max(repeats, 2))
    results["apsp_build"] = {"vectorized": build_stats, "speedup": None}
    print(
        f"{'apsp_build':<24} (one-time)  "
        f"vectorized {build_stats['best_s'] * 1e3:9.3f} ms",
        file=sys.stderr,
    )

    network = NetworkModel.for_deployment(state, topo)
    placement_vec = network.placement_vector(state.placement)
    network.link_loads(placement_vec)  # warm the path-link CSR
    loads_stats = _time(lambda: network.link_loads(placement_vec), repeats)
    results["link_loads"] = {"vectorized": loads_stats, "speedup": None}
    print(
        f"{'link_loads':<24} (no ref)    "
        f"vectorized {loads_stats['best_s'] * 1e3:9.3f} ms",
        file=sys.stderr,
    )

    arrays = topo.arrays()
    report = {
        "scenario": {
            "num_requests": num_requests,
            "num_nodes": num_nodes,
            "num_vnfs": num_vnfs,
            "num_vertices": arrays.num_vertices,
            "num_links": arrays.num_links,
            "seed": args.seed,
            "quick": args.quick,
        },
        "results": results,
    }
    payload = json.dumps(report, indent=2)
    print(payload)
    if args.out:
        args.out.write_text(payload + "\n")
        print(f"wrote {args.out}", file=sys.stderr)

    speedup = results["topology_total_latency"]["speedup"]
    if speedup < args.min_speedup:
        print(
            f"topology_total_latency speedup {speedup}x below "
            f"{args.min_speedup}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
