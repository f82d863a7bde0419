#!/usr/bin/env python
"""Micro-benchmark: columnar metric paths vs the pre-refactor object walk.

Builds one deterministic joint deployment (default: 2000 requests on
200 nodes), cross-checks that the vectorized and pre-refactor paths
agree to 1e-12 relative, then times both with ``time.perf_counter``:

* ``evaluate_deployment`` — the full Eq. (13)-(16) scorecard,
* ``total_inter_node_hops`` — the local-search inner loop,
* ``schedule_all_vnfs`` — joint ``z``-map construction: columns
  (``schedule_columns`` + ``ScenarioArrays.schedule_dict``) vs the
  per-VNF object route,
* ``PlacementResult.node_loads`` — Eq. (13)/(14) ingredients.

Usage::

    PYTHONPATH=src python benchmarks/bench_core.py [--quick] [--out FILE]

``--quick`` shrinks the scenario for CI smoke runs; ``--out`` writes the
JSON report to a file (it always prints to stdout).  Pass
``--min-speedup`` to turn the report into a gate — the acceptance bar
for ``evaluate_deployment`` on the full scenario is 5x; tiny quick-mode
inputs can make overhead-dominated metrics like ``node_loads`` dip
below 1x, which is why the default is report-only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

try:  # pragma: no cover - path bootstrap for direct script runs
    import repro  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from _reference_impl import (
    reference_evaluate_deployment,
    reference_node_loads,
    reference_schedule_all_vnfs,
    reference_total_inter_node_hops,
)
from repro.core.arrays import ScenarioArrays
from repro.core.evaluation import evaluate_deployment
from repro.core.joint import JointOptimizer
from repro.core.local_search import total_inter_node_hops
from repro.nfv.request import Request
from repro.scheduling.kernels import schedule_columns
from repro.scheduling.least_loaded import LeastLoadedScheduler
from repro.workload.generator import WorkloadGenerator

DEFAULT_SEED = 20170605  # ICDCS'17


def _rescale_for_stability(vnfs, requests, target=0.7):
    """Scale arrival rates so every VNF's aggregate load is stable.

    The generated 1-100 pps rates can overload small VNFs; the benchmark
    wants the no-shedding hot path, so cap the per-VNF aggregate
    utilization ``sum_r lambda_r/P_r / (M_f mu_f)`` at ``target``.
    """
    load = {f.name: 0.0 for f in vnfs}
    for request in requests:
        for vnf_name in request.chain:
            load[vnf_name] += request.effective_rate
    worst = max(
        load[f.name] / (f.num_instances * f.service_rate)
        for f in vnfs
        if f.num_instances * f.service_rate > 0
    )
    if worst <= target:
        return list(requests)
    scale = target / worst
    return [
        Request(
            request_id=r.request_id,
            chain=r.chain,
            arrival_rate=r.arrival_rate * scale,
            delivery_probability=r.delivery_probability,
        )
        for r in requests
    ]


def build_scenario(num_requests, num_nodes, num_vnfs, seed=DEFAULT_SEED):
    """A solved joint deployment over a stable generated workload."""
    gen = WorkloadGenerator(rng=np.random.default_rng(seed))
    workload = gen.workload(
        num_vnfs=num_vnfs,
        num_nodes=num_nodes,
        num_requests=num_requests,
        instance_range=(8, 25),
        tight_capacities=True,
    )
    requests = _rescale_for_stability(workload.vnfs, workload.requests)
    solution = JointOptimizer(scheduler=LeastLoadedScheduler()).optimize(
        workload.vnfs, requests, workload.capacities
    )
    return solution, workload.vnfs, requests


def _time(fn, repeats, warmup=1):
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    q1, median, q3 = (
        statistics.quantiles(times, n=4) if repeats > 1 else times * 3
    )
    return {
        "best_s": min(times),
        "mean_s": statistics.fmean(times),
        "median_s": median,
        "q1_s": q1,
        "q3_s": q3,
        "repeats": repeats,
    }


def _compare(name, reference_fn, vectorized_fn, repeats, results):
    ref = _time(reference_fn, repeats)
    vec = _time(vectorized_fn, repeats)
    speedup = ref["best_s"] / vec["best_s"] if vec["best_s"] > 0 else float("inf")
    results[name] = {
        "reference": ref,
        "vectorized": vec,
        "speedup": round(speedup, 2),
    }
    print(
        f"{name:<24} reference {ref['best_s'] * 1e3:9.3f} ms   "
        f"vectorized {vec['best_s'] * 1e3:9.3f} ms   {speedup:7.1f}x",
        file=sys.stderr,
    )


def _rel_diff(a, b):
    if a == b:  # covers inf == inf and 0 == 0
        return 0.0
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def check_parity(state, link_latency=1.0):
    """Assert the two evaluate paths agree to 1e-12 before timing them."""
    got = evaluate_deployment(state, link_latency=link_latency)
    want = reference_evaluate_deployment(state, link_latency=link_latency)
    worst = 0.0
    for field in (
        "average_node_utilization",
        "resource_occupation",
        "average_response_latency",
        "max_instance_utilization",
        "total_latency",
        "average_total_latency",
    ):
        worst = max(worst, _rel_diff(getattr(got, field), getattr(want, field)))
    if worst > 1e-12:
        raise SystemExit(f"parity check failed: worst rel diff {worst:.3e}")
    if (got.nodes_in_service, got.num_rejected) != (
        want.nodes_in_service,
        want.num_rejected,
    ):
        raise SystemExit("parity check failed: integer metrics differ")
    return worst


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
        help="exit non-zero if any benchmark falls below this speedup "
        "(default 0: report only)",
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
    worst_rel = check_parity(state)

    scheduler = LeastLoadedScheduler()

    def column_z_map():
        arrays = ScenarioArrays.build(vnfs, requests, {})
        return arrays.schedule_dict(schedule_columns(arrays, scheduler))

    z_new = column_z_map()
    z_old = reference_schedule_all_vnfs(vnfs, requests, scheduler)
    if list(z_new.items()) != list(z_old.items()):
        raise SystemExit("schedule_all_vnfs z-map mismatch vs reference")

    results = {}
    _compare(
        "evaluate_deployment",
        lambda: reference_evaluate_deployment(state, link_latency=1.0),
        lambda: evaluate_deployment(state, link_latency=1.0),
        repeats,
        results,
    )
    _compare(
        "total_inter_node_hops",
        lambda: reference_total_inter_node_hops(state),
        lambda: total_inter_node_hops(state),
        repeats,
        results,
    )
    _compare(
        "schedule_all_vnfs",
        lambda: reference_schedule_all_vnfs(vnfs, requests, scheduler),
        column_z_map,
        repeats,
        results,
    )
    placement_result = solution.placement_result
    _compare(
        "node_loads",
        lambda: reference_node_loads(placement_result),
        lambda: placement_result.node_loads(),
        repeats,
        results,
    )

    report = {
        "scenario": {
            "num_requests": num_requests,
            "num_nodes": num_nodes,
            "num_vnfs": num_vnfs,
            "num_schedule_entries": len(state.schedule),
            "seed": args.seed,
            "quick": args.quick,
        },
        "parity_worst_rel_diff": worst_rel,
        "results": results,
    }
    payload = json.dumps(report, indent=2)
    print(payload)
    if args.out:
        args.out.write_text(payload + "\n")
        print(f"wrote {args.out}", file=sys.stderr)

    slow = [
        name
        for name, entry in results.items()
        if entry["speedup"] < args.min_speedup
    ]
    if slow:
        print(
            f"speedup below {args.min_speedup}x for: {', '.join(slow)}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
