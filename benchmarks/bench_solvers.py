#!/usr/bin/env python
"""Micro-benchmark: array-native solver kernels vs the pre-kernel loops.

Builds one deterministic scenario (default: 2000 requests on 200 nodes,
the scale the acceptance gates target), cross-checks that kernel and
legacy paths produce byte-identical solutions, then times both:

* ``bfdsu_place`` — Algorithm 1 construction (residual-vector kernel vs
  dict/list loops), same seed per run so both draw identically,
* ``rckk_partition`` — Algorithm 2 multi-way differencing (list-row
  kernel with singleton insertion vs tuple partitions) on the full
  request-rate vector,
* ``rckk_serve_shape`` — the same on one VNF's share at a serving-engine
  rebalance: the first 300 rates into 20 ways, where partition +
  singleton inserts are nearly every combine,
* ``rckk_schedule_serve`` — a whole serve-shaped RCKK schedule (12 VNFs
  of 16-24 instances, the engine's rebalance input): the object route
  (``schedule_all_vnfs`` + ``schedule_arrays``) vs
  ``schedule_columns(arrays, RCKKScheduler())``, which must give the
  same rows in the same order and the same instance-load bytes,
* ``local_search_refine`` — relocate hill climb (neighbor-count delta
  kernel vs full hop recount per candidate),
* ``swap_refine`` — move/swap makespan refinement (sorted-partner
  ``searchsorted`` scan with record-breaking-block replay vs
  per-candidate scan).

Usage::

    PYTHONPATH=src python benchmarks/bench_solvers.py [--quick] [--out FILE]

``--quick`` shrinks the scenario for CI smoke runs; ``--out`` writes the
JSON report to a file (it always prints to stdout).  Each side runs at
least 5 times; the report gives the median and the interquartile range
(IQR) of each, the speedup is the ratio of the medians, and a pair
whose IQRs overlap is flagged "within noise" (a best-of-N speedup moved
by ~20% between runs of identical code on a 2-core host).
``--min-speedup`` turns the report into a gate; the acceptance bars on
the full scenario are 5x for local-search refinement and 3x for BFDSU,
but quick-mode inputs are overhead-dominated, so the default is
report-only.
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

from _reference_impl import (
    ReferenceBFDSU,
    reference_kk_multiway,
    reference_refine_assignment,
    reference_refine_placement,
)
from bench_core import DEFAULT_SEED, _time, build_scenario
from repro.core.arrays import ScenarioArrays
from repro.core.local_search import refine_placement
from repro.partition.rckk import rckk_partition
from repro.placement.base import PlacementProblem
from repro.placement.bfdsu import BFDSUPlacement
from repro.scheduling.base import schedule_all_vnfs
from repro.scheduling.kernels import schedule_columns
from repro.scheduling.rckk import RCKKScheduler
from repro.scheduling.swap_refine import refine_assignment
from repro.workload.generator import WorkloadGenerator

#: One VNF's users and instances at a serve_churn rebalance (251-450
#: users, ``M_f`` 16-23 in perfbench/workloads.json's deployment).
SERVE_VALUES, SERVE_WAYS = 300, 20
#: The serve_churn deployment's shape: VNFs, instance range, and the
#: active chains a rebalance schedules (``--quick``: fewer chains).
SERVE_VNFS, SERVE_INSTANCES, SERVE_ACTIVE = 12, (16, 24), 2000


def _compare(name, reference_fn, kernel_fn, repeats, results):
    """Median speedup of the kernel over the reference, with spreads."""
    ref = _time(reference_fn, repeats)
    vec = _time(kernel_fn, repeats)
    speedup = ref["median_s"] / vec["median_s"]
    noise = ref["q1_s"] <= vec["q3_s"] and vec["q1_s"] <= ref["q3_s"]
    results[name] = {
        "reference": ref,
        "vectorized": vec,
        "speedup": round(speedup, 2),
        "within_noise": noise,
    }

    def spread(t):
        return (
            f"{t['median_s'] * 1e3:9.3f} ms "
            f"(IQR {(t['q3_s'] - t['q1_s']) * 1e3:7.3f})"
        )

    print(
        f"{name:<22} reference {spread(ref)}   kernel {spread(vec)}   "
        f"{speedup:7.1f}x{'  within noise' if noise else ''}",
        file=sys.stderr,
    )


def _check(name, ok):
    if not ok:
        raise SystemExit(f"parity check failed: {name}")
    print(f"parity ok: {name}", file=sys.stderr)


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
        num_requests, num_nodes, num_vnfs, repeats = 300, 50, 20, 5
        serve_active = SERVE_ACTIVE // 4
    else:
        num_requests, num_nodes, num_vnfs, repeats = 2000, 200, 40, 5
        serve_active = SERVE_ACTIVE

    print(
        f"building scenario: {num_requests} requests, {num_nodes} nodes, "
        f"{num_vnfs} VNFs (seed {args.seed})",
        file=sys.stderr,
    )
    solution, vnfs, requests = build_scenario(
        num_requests, num_nodes, num_vnfs, seed=args.seed
    )
    state = solution.state
    problem = PlacementProblem(
        vnfs=vnfs, capacities=state.node_capacities
    )
    rates = [r.effective_rate for r in requests]
    num_ways = max(f.num_instances for f in vnfs)
    serve_rates, serve_ways = rates[:SERVE_VALUES], SERVE_WAYS
    start_assignment = [i % num_ways for i in range(len(rates))]

    # ------------------------------------------------------------------
    # Parity before timing: kernel output must be byte-identical.
    # ------------------------------------------------------------------
    kernel_bfdsu = BFDSUPlacement(rng=np.random.default_rng(args.seed)).place(
        problem
    )
    legacy_bfdsu = ReferenceBFDSU(rng=np.random.default_rng(args.seed)).place(
        problem
    )
    _check(
        "bfdsu placement + iterations",
        kernel_bfdsu.placement == legacy_bfdsu.placement
        and kernel_bfdsu.iterations == legacy_bfdsu.iterations,
    )

    kernel_part = rckk_partition(rates, num_ways)
    legacy_part = reference_kk_multiway(rates, num_ways, reverse_combine=True)
    _check(
        "rckk subsets + iterations",
        kernel_part.subsets == legacy_part.subsets
        and kernel_part.iterations == legacy_part.iterations,
    )

    kernel_serve = rckk_partition(serve_rates, serve_ways)
    legacy_serve = reference_kk_multiway(
        serve_rates, serve_ways, reverse_combine=True
    )
    _check(
        "rckk serve-shape subsets + iterations",
        kernel_serve.subsets == legacy_serve.subsets
        and kernel_serve.iterations == legacy_serve.iterations,
    )

    serve = WorkloadGenerator(np.random.default_rng(args.seed)).workload(
        num_vnfs=SERVE_VNFS,
        num_nodes=2 * SERVE_VNFS,
        num_requests=serve_active,
        instance_range=SERVE_INSTANCES,
    )
    serve_arrays = ScenarioArrays.build(
        serve.vnfs, serve.requests, serve.capacities
    )

    def _object_schedule():
        joint = schedule_all_vnfs(serve.vnfs, serve.requests, RCKKScheduler())
        return serve_arrays.schedule_arrays(joint)

    def _column_schedule():
        return schedule_columns(serve_arrays, RCKKScheduler())

    object_rows, column_rows = _object_schedule(), _column_schedule()
    _check(
        "rckk schedule_columns rows (in order) + instance-load bytes",
        all(
            np.array_equal(getattr(object_rows, col), getattr(column_rows, col))
            for col in ("req", "vnf", "k", "inst")
        )
        and serve_arrays.instance_rates(object_rows)[0].tobytes()
        == serve_arrays.instance_rates(column_rows)[0].tobytes(),
    )

    baseline_placement = dict(state.placement)

    def _restore():
        state.placement.clear()
        state.placement.update(baseline_placement)

    kernel_trace, legacy_trace = [], []
    kernel_report = refine_placement(state, trace=kernel_trace)
    kernel_final = dict(state.placement)
    _restore()
    legacy_report = reference_refine_placement(state, trace=legacy_trace)
    legacy_final = dict(state.placement)
    _restore()
    _check(
        "local-search trace + report + final placement",
        kernel_trace == legacy_trace
        and kernel_report == legacy_report
        and kernel_final == legacy_final,
    )

    _check(
        "swap-refine assignment + moves",
        refine_assignment(rates, start_assignment, num_ways)
        == reference_refine_assignment(rates, start_assignment, num_ways),
    )

    # ------------------------------------------------------------------
    # Timings.
    # ------------------------------------------------------------------
    results = {}
    _compare(
        "bfdsu_place",
        lambda: ReferenceBFDSU(rng=np.random.default_rng(args.seed)).place(
            problem
        ),
        lambda: BFDSUPlacement(rng=np.random.default_rng(args.seed)).place(
            problem
        ),
        repeats,
        results,
    )
    _compare(
        "rckk_partition",
        lambda: reference_kk_multiway(rates, num_ways, reverse_combine=True),
        lambda: rckk_partition(rates, num_ways),
        repeats,
        results,
    )
    _compare(
        "rckk_serve_shape",
        lambda: reference_kk_multiway(
            serve_rates, serve_ways, reverse_combine=True
        ),
        lambda: rckk_partition(serve_rates, serve_ways),
        repeats,
        results,
    )

    _compare(
        "rckk_schedule_serve",
        _object_schedule,
        _column_schedule,
        repeats,
        results,
    )

    def _legacy_refine():
        _restore()
        return reference_refine_placement(state)

    def _kernel_refine():
        _restore()
        return refine_placement(state)

    _compare(
        "local_search_refine", _legacy_refine, _kernel_refine, repeats, results
    )
    _restore()
    _compare(
        "swap_refine",
        lambda: reference_refine_assignment(rates, start_assignment, num_ways),
        lambda: refine_assignment(rates, start_assignment, num_ways),
        repeats,
        results,
    )

    report = {
        "scenario": {
            "num_requests": num_requests,
            "num_nodes": num_nodes,
            "num_vnfs": num_vnfs,
            "num_ways": num_ways,
            "serve_shape": {"num_values": len(serve_rates), "num_ways": serve_ways},
            "serve_schedule": {
                "num_vnfs": SERVE_VNFS,
                "instance_range": list(SERVE_INSTANCES),
                "num_requests": serve_active,
            },
            "local_search_moves": kernel_report.moves_applied,
            "bfdsu_iterations": kernel_bfdsu.iterations,
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
