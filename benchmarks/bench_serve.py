#!/usr/bin/env python
"""Micro-benchmark: incremental serving engine throughput and latency.

Builds deterministic scenarios at two active-set sizes (2k and 20k
requests; shrunk under ``--quick``) and times the
:class:`~repro.core.incremental.DeploymentEngine` operations the
serving layer leans on:

* ``admit_vs_resolve_2k`` — one warm-start admit against one
  from-scratch two-phase solve at 2k active requests (reference =
  the re-solve, vectorized = the admit): the headline speedup and the
  ISSUE acceptance bar (>= 50x).
* ``admit_depart_2k`` / ``admit_depart_20k`` — churn at a constant
  active-set size: each sweep admits a batch and departs as many of the
  *oldest* active requests, so departures run through the base
  population from the front of the request table; the per-op time
  prices sustained churn throughput.
* ``churn_scaling`` — the large/small ratio of the two ``admit_depart``
  per-op times.  Engine writes cost O(chain) Python work plus C-level
  array moves, so the ratio stays near 1; a per-row Python pass over
  the active set makes it grow with the size ratio.
* ``rebalance_2k`` / ``rebalance_20k`` — one full re-optimization over
  the active set (the periodic warm-start reset).

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py [--quick] [--out FILE]

``--min-speedup`` gates on ``admit_vs_resolve_2k`` and
``--max-churn-ratio`` on ``churn_scaling`` (both default 0: report
only; CI runs the gated quick smoke, the acceptance numbers come from
the full run recorded in ``BENCH_TRAJECTORY.json``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

try:  # pragma: no cover - path bootstrap for direct script runs
    import repro  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from bench_core import DEFAULT_SEED, _time
from repro.core.incremental import DeploymentEngine, solve_joint
from repro.workload.generator import WorkloadGenerator


def _build(num_active: int, num_nodes: int, num_vnfs: int, seed: int):
    """An engine warmed to ``num_active`` requests + a churn reserve."""
    gen = WorkloadGenerator(np.random.default_rng(seed))
    reserve = max(200, num_active // 10)
    w = gen.workload(
        num_vnfs=num_vnfs,
        num_nodes=num_nodes,
        num_requests=num_active + reserve,
    )
    base = list(w.requests[:num_active])
    extra = list(w.requests[num_active:])
    engine = DeploymentEngine(
        w.vnfs, w.capacities, base, target_utilization=None
    )
    return engine, w, base, extra


class _Churn:
    """Admit + oldest-first depart sweeps at a constant active-set size.

    Each :meth:`sweep` admits the incoming batch and then departs as
    many of the requests that were oldest before it.  The first sweep
    departs base requests from the front of the request table; each
    later one re-admits the requests the one before departed.
    """

    def __init__(self, engine, w, incoming) -> None:
        self.engine = engine
        self.by_id = {r.request_id: r for r in w.requests}
        self.incoming = list(incoming)

    def sweep(self) -> float:
        """Seconds per op (admit or depart) of one sweep."""
        engine = self.engine
        oldest = engine.active_requests[: len(self.incoming)]
        start = time.perf_counter()
        for request in self.incoming:
            if not engine.admit(request).admitted:
                raise SystemExit(f"churn admit of {request.request_id} refused")
        for request_id in oldest:
            engine.depart(request_id)
        elapsed = time.perf_counter() - start
        self.incoming = [self.by_id[request_id] for request_id in oldest]
        return elapsed / (2 * len(oldest))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small scenarios + fewer repeats (CI smoke)",
    )
    parser.add_argument("--out", type=Path, help="write the JSON report here")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="exit non-zero if admit_vs_resolve falls below this speedup "
        "(default 0: report only)",
    )
    parser.add_argument(
        "--max-churn-ratio",
        type=float,
        default=0.0,
        help="exit non-zero if the large/small admit_depart per-op ratio "
        "exceeds this (default 0: report only)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        sizes = {"small": 200, "large": 1000}
        num_nodes, num_vnfs, repeats, churn_rounds = 24, 12, 2, 7
    else:
        sizes = {"2k": 2000, "20k": 20000}
        num_nodes, num_vnfs, repeats, churn_rounds = 24, 12, 3, 7

    results = {}
    built = {}
    for label, num_active in sizes.items():
        print(
            f"building engine: {num_active} active requests, "
            f"{num_nodes} nodes, {num_vnfs} VNFs (seed {args.seed})",
            file=sys.stderr,
        )
        built[label] = _build(num_active, num_nodes, num_vnfs, args.seed)

    # Headline: admit vs from-scratch re-solve at the smaller size.
    first_label = next(iter(sizes))
    engine, w, base, extra = built[first_label]
    resolve = _time(lambda: solve_joint(w.vnfs, base, w.capacities), repeats)
    headline = _Churn(engine, w, extra[:200])
    admit_s = min(headline.sweep() for _ in range(churn_rounds))
    speedup = resolve["best_s"] / admit_s
    results[f"admit_vs_resolve_{first_label}"] = {
        "reference": resolve,
        "vectorized": {
            "best_s": admit_s,
            "mean_s": admit_s,
            "repeats": churn_rounds,
        },
        "speedup": speedup,
    }
    print(
        f"{'admit_vs_resolve_' + first_label:<24} "
        f"resolve {resolve['best_s'] * 1e3:9.3f} ms   "
        f"admit {admit_s * 1e6:9.3f} us   "
        f"speedup {speedup:8.1f}x",
        file=sys.stderr,
    )

    # Sustained churn, the sizes' sweeps interleaved so both see the
    # same host load; best sweep per size.
    churns = {}
    for label, (engine, w, _, extra) in built.items():
        active = set(engine.active_requests)
        idle = [r for r in w.requests if r.request_id not in active]
        churns[label] = _Churn(engine, w, idle[: len(extra)])
    sweeps = {label: [] for label in sizes}
    for _ in range(churn_rounds):
        for label, churn in churns.items():
            sweeps[label].append(churn.sweep())
    for label in sizes:
        per_op = min(sweeps[label])
        results[f"admit_depart_{label}"] = {
            "vectorized": {
                "best_s": per_op,
                "mean_s": sum(sweeps[label]) / churn_rounds,
                "repeats": churn_rounds,
            },
            "ops_per_s": 1.0 / per_op,
            "speedup": None,
        }
        print(
            f"{'admit_depart_' + label:<24} (no ref)    "
            f"{per_op * 1e6:9.3f} us/op  "
            f"({1.0 / per_op:,.0f} ops/s)",
            file=sys.stderr,
        )

    for label, (engine, *_rest) in built.items():
        rebalance = _time(engine.rebalance, repeats)
        results[f"rebalance_{label}"] = {
            "vectorized": rebalance,
            "speedup": None,
        }
        print(
            f"{'rebalance_' + label:<24} (one-time)  "
            f"{rebalance['best_s'] * 1e3:9.3f} ms",
            file=sys.stderr,
        )

    small_n, large_n = sizes.values()
    small, large = (results[f"admit_depart_{label}"] for label in sizes)
    ratio = large["vectorized"]["best_s"] / small["vectorized"]["best_s"]
    results["churn_scaling"] = {
        "sizes": list(sizes.values()),
        "per_op_us": [
            small["vectorized"]["best_s"] * 1e6,
            large["vectorized"]["best_s"] * 1e6,
        ],
        "ratio": ratio,
        "speedup": None,
    }
    print(
        f"{'churn_scaling':<24} large/small per-op {ratio:6.2f}x "
        f"(active-set ratio {large_n / small_n:.0f}x)",
        file=sys.stderr,
    )

    report = {
        "scenario": {
            "active_sizes": dict(sizes),
            "num_nodes": num_nodes,
            "num_vnfs": num_vnfs,
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

    status = 0
    speedup = results[f"admit_vs_resolve_{first_label}"]["speedup"]
    if speedup < args.min_speedup:
        print(
            f"admit_vs_resolve_{first_label} speedup {speedup:.1f}x below "
            f"{args.min_speedup}x",
            file=sys.stderr,
        )
        status = 1
    if args.max_churn_ratio and ratio > args.max_churn_ratio:
        print(
            f"churn_scaling ratio {ratio:.2f}x above {args.max_churn_ratio}x",
            file=sys.stderr,
        )
        status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
