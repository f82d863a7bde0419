#!/usr/bin/env python
"""Macro-benchmark: the million-request pipeline, end to end.

One pass over the scale path this PR wires together — no object
scenario is ever built:

1. ``construct``  — :func:`repro.workload.stream.stream_scenario` with
   the lean int32/float32 dtype policy, then
   :func:`~repro.workload.stream.rescale_to_stability`.
2. ``place``      — BFDSU with batched uniform draws
   (``draw_block``), on the VNF/node tables only.
3. ``schedule``   — :func:`repro.scheduling.kernels.schedule_columns`
   (exact least-loaded heap semantics per VNF).
4. ``refine``     — :func:`repro.core.local_search.refine_placement_columns`
   and :func:`repro.scheduling.swap_refine.swap_refine_columns`, the
   lean-column local-search passes (``--refine-rounds 0`` skips).
5. ``evaluate``   — :func:`repro.core.evaluation.evaluate_columns`
   (state-free Eq. 14/16/17 scoring).
6. ``simulate``   — :func:`repro.sim.scale.simulate_columns` over a
   horizon sized to ``--sim-packets`` generated packets, sharded over
   ``--jobs`` worker processes.

The report is wall-clock per stage plus headline numbers: pipeline
``requests_per_sec`` (requests / total seconds, construction through
simulation) and ``peak_rss_mb`` (``ru_maxrss`` of this process merged
with its reaped children — the bounded-memory claim covers the shard
workers too).  With ``--jobs N > 1`` the simulation also re-runs at
``jobs=1`` as a parity gate (the merged metrics must be byte-identical
at any worker count) and the report gains a ``sim_speedup`` headline.
A small-scale parity check runs first and fails the benchmark if the
scale path ever drifts from the object path.

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py [--quick] [--out FILE]

Defaults exercise 1,000,000 requests / 10,000 nodes / 2,000 VNFs;
``--quick`` shrinks to 100,000 / 1,000 / 400 for the CI smoke, which
also gates on ``--max-seconds`` / ``--max-rss-mb`` budgets (0 = off).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

try:  # pragma: no cover - path bootstrap for direct script runs
    import repro  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from bench_core import DEFAULT_SEED
from repro.core.dtypes import LEAN_POLICY
from repro.core.evaluation import evaluate_columns
from repro.core.local_search import refine_placement_columns
from repro.placement.base import PlacementProblem
from repro.placement.bfdsu import BFDSUPlacement
from repro.scheduling.kernels import schedule_columns
from repro.scheduling.swap_refine import swap_refine_columns
from repro.sim.scale import simulate_columns
from repro.sim.simulator import SimulationConfig
from repro.workload.stream import rescale_to_stability, stream_scenario

#: Uniform doubles pre-drawn per block in the BFDSU weighted draws.
DRAW_BLOCK = 4096

#: Stability target fed to rescale_to_stability before simulating.
STABILITY = 0.7


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, in MiB.

    ``RUSAGE_CHILDREN`` reports the largest single ``ru_maxrss`` over
    reaped child processes (the shard workers of ``--jobs N``), not a
    sum over them.  Adding it to our own peak catches one bloated
    worker, which self alone would let pass, but at ``jobs >= 2`` it
    undercounts the aggregate footprint: the other workers' peaks are
    missing, so the figure the ``--max-rss-mb`` budget checks is a lower
    bound on the run's total.  Linux reports KiB; macOS bytes.
    """
    rss_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    if sys.platform == "darwin":  # pragma: no cover - ru_maxrss in bytes
        return rss_kb / (1024.0 * 1024.0)
    return rss_kb / 1024.0


def parity_check(seed: int) -> None:
    """Fail fast if the scale path drifts from the object path.

    Small scenario, default dtypes: streamed columns must equal the
    object build over the materialized requests exactly; batched BFDSU
    must place identically to scalar draws; evaluate_columns must match
    evaluate_deployment to float64 round-off.
    """
    from repro.core.arrays import ScenarioArrays
    from repro.core.evaluation import evaluate_deployment
    from repro.nfv.state import DeploymentState
    from repro.scheduling.base import schedule_all_vnfs
    from repro.scheduling.least_loaded import LeastLoadedScheduler
    from repro.workload.stream import materialize_requests

    scn = stream_scenario(
        num_vnfs=12, num_nodes=20, num_requests=300,
        rng=np.random.default_rng(seed),
    )
    requests = materialize_requests(scn)
    ref = ScenarioArrays.build(scn.vnfs, requests, scn.capacities)
    for col in ("lambda_r", "P_r", "chain_req", "chain_vnf", "chain_ptr"):
        np.testing.assert_array_equal(
            getattr(scn.arrays, col), getattr(ref, col), err_msg=col
        )

    problem = PlacementProblem(vnfs=scn.vnfs, capacities=scn.capacities)
    plain = BFDSUPlacement(rng=np.random.default_rng(seed)).place(problem)
    batched = BFDSUPlacement(
        rng=np.random.default_rng(seed), draw_block=DRAW_BLOCK
    ).place(problem)
    if batched.placement != plain.placement:
        raise AssertionError("batched BFDSU diverged from scalar draws")

    sched = schedule_columns(scn.arrays, policy="least_loaded")
    state = DeploymentState(
        vnfs=scn.vnfs,
        requests=requests,
        node_capacities=scn.capacities,
        placement=plain.placement,
        schedule=schedule_all_vnfs(
            scn.vnfs, requests, LeastLoadedScheduler()
        ),
    )
    want = evaluate_deployment(state, with_admission=False)
    got = evaluate_columns(
        scn.arrays, scn.arrays.placement_vector(plain.placement), sched
    )
    for field in (
        "average_node_utilization",
        "resource_occupation",
        "max_instance_utilization",
        "total_latency",
    ):
        a, b = getattr(got, field), getattr(want, field)
        if np.isfinite(b) and abs(a - b) > 1e-9 * max(1.0, abs(b)):
            raise AssertionError(f"parity drift on {field}: {a} != {b}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="100k requests / 1k nodes (CI smoke)",
    )
    parser.add_argument("--out", type=Path, help="write the JSON report here")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--requests", type=int, default=0,
        help="override the request count (0: scale default)",
    )
    parser.add_argument(
        "--sim-packets", type=float, default=5e6,
        help="size the simulation horizon to ~this many generated "
        "packets (default 5e6)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="shard the trace simulation over this many worker "
        "processes (0: auto, default 1: in-process); results are "
        "byte-identical at any value and gated by a jobs=1 re-run",
    )
    parser.add_argument(
        "--refine-rounds", type=int, default=2,
        help="local-search rounds for the lean-column refine stage "
        "(default 2; 0 skips the stage)",
    )
    parser.add_argument(
        "--max-seconds", type=float, default=0.0,
        help="exit non-zero if the pipeline exceeds this wall-clock "
        "budget (default 0: report only)",
    )
    parser.add_argument(
        "--max-rss-mb", type=float, default=0.0,
        help="exit non-zero if peak RSS exceeds this budget "
        "(default 0: report only)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        num_requests, num_nodes, num_vnfs = 100_000, 1_000, 400
    else:
        num_requests, num_nodes, num_vnfs = 1_000_000, 10_000, 2_000
    if args.requests:
        num_requests = args.requests

    print("parity check (small scale, default dtypes)...", file=sys.stderr)
    parity_check(args.seed)

    stages = {}

    def _stage(name, fn):
        start = time.perf_counter()
        value = fn()
        stages[name] = time.perf_counter() - start
        print(
            f"{name:<10} {stages[name]:9.2f} s   "
            f"(rss {peak_rss_mb():,.0f} MiB)",
            file=sys.stderr,
        )
        return value

    print(
        f"scale run: {num_requests:,} requests / {num_nodes:,} nodes / "
        f"{num_vnfs:,} VNFs (seed {args.seed}, lean dtypes)",
        file=sys.stderr,
    )
    def _construct():
        scenario = stream_scenario(
            num_vnfs=num_vnfs,
            num_nodes=num_nodes,
            num_requests=num_requests,
            rng=np.random.default_rng(args.seed),
            dtypes=LEAN_POLICY,
        )
        rescale_to_stability(scenario, target=STABILITY)
        return scenario

    scn = _stage("construct", _construct)
    arrays = scn.arrays

    placement = _stage(
        "place",
        lambda: BFDSUPlacement(
            rng=np.random.default_rng(args.seed), draw_block=DRAW_BLOCK
        ).place(
            PlacementProblem(vnfs=scn.vnfs, capacities=scn.capacities)
        ),
    )
    sched = _stage(
        "schedule", lambda: schedule_columns(arrays, policy="least_loaded")
    )

    placement_vec = arrays.placement_vector(placement.placement)
    refine_moves = swap_moves = 0
    if args.refine_rounds > 0:
        def _refine():
            nonlocal sched, refine_moves, swap_moves
            report = refine_placement_columns(
                arrays, placement_vec, max_rounds=args.refine_rounds
            )
            refine_moves = report.moves_applied
            sched, swap_moves = swap_refine_columns(
                arrays, sched, max_rounds=args.refine_rounds
            )
            return report
        _stage("refine", _refine)

    report_eval = _stage(
        "evaluate",
        lambda: evaluate_columns(arrays, placement_vec, sched),
    )

    total_rate = float(np.asarray(arrays.lambda_r, dtype=np.float64).sum())
    horizon = max(0.25, args.sim_packets / max(total_rate, 1.0))
    cfg = SimulationConfig(
        duration=horizon, warmup=0.1 * horizon, seed=args.seed
    )
    metrics = _stage(
        "simulate",
        lambda: simulate_columns(arrays, sched, cfg, jobs=args.jobs),
    )

    sim_speedup = None
    if args.jobs is not None and args.jobs != 1:
        # Parity gate + speedup headline: the sharded run must merge to
        # the byte-identical metrics of the in-process run.
        serial = _stage(
            "simulate1",
            lambda: simulate_columns(arrays, sched, cfg, jobs=1),
        )
        for field in (
            "generated", "delivered", "retransmitted", "latency_sum",
            "instance_arrivals", "instance_departures",
            "instance_mean_sojourn", "instance_utilization",
        ):
            a, b = getattr(metrics, field), getattr(serial, field)
            same = (
                a == b if np.isscalar(a) or a is None
                else np.array_equal(np.asarray(a), np.asarray(b))
            )
            if not same:
                raise AssertionError(
                    f"sharded simulate (jobs={args.jobs}) diverged from "
                    f"jobs=1 on {field}"
                )
        sim_speedup = stages["simulate1"] / max(stages["simulate"], 1e-9)
        print(
            f"sim parity ok: jobs={args.jobs} byte-identical to jobs=1 "
            f"({sim_speedup:.2f}x speedup)",
            file=sys.stderr,
        )

    # Packets and visits (packet hops, retries included) per second of
    # each simulate stage: a simulator change reads per visit.
    sim_visits = int(metrics.instance_arrivals.sum())
    sim_rates = {}
    for name in ("simulate", "simulate1"):
        if name in stages:
            seconds = max(stages[name], 1e-9)
            sim_rates[name] = {
                "packets_per_s": metrics.generated / seconds,
                "visits_per_s": sim_visits / seconds,
            }
            print(
                f"{name:<10} {sim_rates[name]['packets_per_s']:,.0f} "
                f"packets/s   {sim_rates[name]['visits_per_s']:,.0f} "
                f"visits/s",
                file=sys.stderr,
            )

    # The jobs=1 parity re-run is a gate, not pipeline work: exclude it
    # from the throughput denominator.
    total_s = sum(v for k, v in stages.items() if k != "simulate1")
    rss_mb = peak_rss_mb()
    headline = {
        "requests_per_sec": num_requests / total_s,
        "peak_rss_mb": rss_mb,
    }
    if sim_speedup is not None:
        headline["sim_speedup"] = sim_speedup
        headline["sim_jobs"] = args.jobs
    report = {
        "scenario": {
            "num_requests": num_requests,
            "num_nodes": num_nodes,
            "num_vnfs": num_vnfs,
            "seed": args.seed,
            "quick": args.quick,
            "stability_target": STABILITY,
            "sim_horizon_s": horizon,
            "sim_jobs": args.jobs,
            "refine_rounds": args.refine_rounds,
        },
        "stages_s": stages,
        "total_s": total_s,
        "headline": headline,
        "results": {},
        "pipeline": {
            "used_nodes": placement.num_used_nodes,
            "bfdsu_draws": placement.iterations,
            "refine_relocations": refine_moves,
            "refine_swap_moves": swap_moves,
            "max_instance_utilization": report_eval.max_instance_utilization,
            "avg_node_utilization": report_eval.average_node_utilization,
            "sim_generated": int(metrics.generated),
            "sim_visits": sim_visits,
            "sim_rates": sim_rates,
            "sim_delivered": int(metrics.total_delivered),
            "sim_mean_latency_s": float(metrics.mean_latency),
        },
    }
    print(
        f"total      {total_s:9.2f} s   "
        f"{headline['requests_per_sec']:,.0f} requests/s   "
        f"peak rss {rss_mb:,.0f} MiB   "
        f"({metrics.generated:,} packets simulated)",
        file=sys.stderr,
    )
    payload = json.dumps(report, indent=2)
    print(payload)
    if args.out:
        args.out.write_text(payload + "\n")
        print(f"wrote {args.out}", file=sys.stderr)

    status = 0
    if args.max_seconds and total_s > args.max_seconds:
        print(
            f"pipeline took {total_s:.1f} s, over the "
            f"{args.max_seconds:.1f} s budget",
            file=sys.stderr,
        )
        status = 1
    if args.max_rss_mb and rss_mb > args.max_rss_mb:
        print(
            f"peak RSS {rss_mb:,.0f} MiB, over the "
            f"{args.max_rss_mb:,.0f} MiB budget",
            file=sys.stderr,
        )
        status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
