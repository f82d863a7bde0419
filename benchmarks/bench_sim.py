#!/usr/bin/env python
"""Micro-benchmark: the column simulator vs the event loop.

Builds one deterministic chained scenario (default: 1000 requests,
100 s horizon, ~1.2M events on the event backend), cross-checks that
the two backends agree on the statistics the parity contract covers
(delivery ratio, mean end-to-end latency, mean instance utilization —
distributional agreement, see docs/SIM_BACKENDS.md), then times both:

* ``backend="events"`` — the per-packet reference event loop,
* ``backend="trace"``  — :func:`repro.sim.scale.simulate_columns`,
  pre-sampled columns through the segmented Lindley kernel, reshaped
  into the same per-request metrics.

Usage::

    PYTHONPATH=src python benchmarks/bench_sim.py [--quick] [--out FILE]

``--quick`` shrinks the scenario for CI smoke runs; ``--out`` writes
the JSON report to a file (it always prints to stdout).  Pass
``--min-speedup`` to turn the report into a gate — the acceptance bar
for the default large scenario is 20x; quick-mode scenarios are too
small to amortize the column simulator's setup and may sit well below the
full-scale speedup.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

try:  # pragma: no cover - path bootstrap for direct script runs
    import repro  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.nfv.chain import ServiceChain
from repro.nfv.request import Request
from repro.nfv.vnf import VNF
from repro.queueing.feedback import effective_arrival_rates
from repro.sim.simulator import ChainSimulator, SimulationConfig

DEFAULT_SEED = 20170605  # ICDCS'17

#: Scenario shape (catalog size, chain length, per-instance target load).
NUM_VNFS, CHAIN_LEN, TARGET_RHO = 8, 3, 0.6
RATE, MU, DELIVERY_P = 2.0, 150.0, 0.97


def build_scenario(num_requests):
    """Cyclic chains round-robined over instances sized for TARGET_RHO."""
    names = [f"v{j}" for j in range(NUM_VNFS)]
    chains = [
        [names[(i + d) % NUM_VNFS] for d in range(CHAIN_LEN)]
        for i in range(num_requests)
    ]
    effective = effective_arrival_rates(
        [RATE] * num_requests, [DELIVERY_P] * num_requests
    )
    offered = {name: 0.0 for name in names}
    for chain, rate in zip(chains, effective):
        for name in chain:
            offered[name] += float(rate)
    vnfs = [
        VNF(name, 1.0, max(1, math.ceil(offered[name] / (TARGET_RHO * MU))), MU)
        for name in names
    ]
    instances = {f.name: f.num_instances for f in vnfs}
    requests, schedule, counters = [], {}, {name: 0 for name in names}
    for i, chain in enumerate(chains):
        rid = f"r{i:05d}"
        requests.append(
            Request(rid, ServiceChain(chain), RATE, delivery_probability=DELIVERY_P)
        )
        for name in chain:
            schedule[(rid, name)] = counters[name] % instances[name]
            counters[name] += 1
    return vnfs, requests, schedule


def _run(vnfs, requests, schedule, config, backend):
    sim = ChainSimulator(vnfs, requests, schedule, config, backend=backend)
    start = time.perf_counter()
    metrics = sim.run()
    return metrics, time.perf_counter() - start


def _summary(metrics):
    utilizations = [s.utilization for s in metrics.instances]
    return {
        "generated": metrics.generated,
        "delivered": metrics.total_delivered,
        "delivery_ratio": metrics.total_delivered / max(1, metrics.generated),
        "mean_end_to_end": metrics.mean_end_to_end(),
        "mean_utilization": statistics.fmean(utilizations),
    }


def _rel_diff(a, b):
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


def check_parity(events_summary, trace_summary, tolerances):
    """Distributional cross-check gate: means must agree within bounds."""
    worst = {}
    for field, bound in tolerances.items():
        diff = _rel_diff(events_summary[field], trace_summary[field])
        worst[field] = diff
        if diff > bound:
            raise SystemExit(
                f"backend cross-check failed on {field}: events "
                f"{events_summary[field]:.6g} vs trace "
                f"{trace_summary[field]:.6g} (rel diff {diff:.3f} > {bound})"
            )
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
        help="exit non-zero if the trace backend's speedup falls below "
        "this (default 0: report only)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        num_requests, horizon, repeats = 200, 20.0, 2
    else:
        num_requests, horizon, repeats = 1000, 100.0, 3

    vnfs, requests, schedule = build_scenario(num_requests)
    config = SimulationConfig(
        duration=horizon, warmup=0.1 * horizon, seed=args.seed
    )
    print(
        f"scenario: {num_requests} requests x {RATE} pps over {horizon} s, "
        f"{sum(f.num_instances for f in vnfs)} instances, P={DELIVERY_P} "
        f"(seed {args.seed})",
        file=sys.stderr,
    )

    events_metrics, events_s = _run(vnfs, requests, schedule, config, "events")
    trace_times = []
    for _ in range(repeats):
        trace_metrics, elapsed = _run(vnfs, requests, schedule, config, "trace")
        trace_times.append(elapsed)
    trace_s = min(trace_times)

    events_summary = _summary(events_metrics)
    trace_summary = _summary(trace_metrics)
    # Mean latency carries the documented cross-pass approximation on
    # top of Monte-Carlo noise; ratios/utilizations are unbiased.
    crosscheck = check_parity(
        events_summary,
        trace_summary,
        tolerances={
            "delivery_ratio": 0.02,
            "mean_utilization": 0.05,
            "mean_end_to_end": 0.15,
        },
    )

    speedup = events_s / trace_s if trace_s > 0 else float("inf")
    print(
        f"events {events_s * 1e3:9.1f} ms   "
        f"trace (simulate_columns) {trace_s * 1e3:9.1f} ms   "
        f"{speedup:7.1f}x",
        file=sys.stderr,
    )

    report = {
        "scenario": {
            "num_requests": num_requests,
            "horizon_s": horizon,
            "num_instances": int(sum(f.num_instances for f in vnfs)),
            "chain_length": CHAIN_LEN,
            "delivery_probability": DELIVERY_P,
            "seed": args.seed,
            "quick": args.quick,
        },
        "results": {
            "events": {"best_s": events_s, "repeats": 1, **events_summary},
            "trace": {
                "engine": "repro.sim.scale.simulate_columns",
                "best_s": trace_s,
                "repeats": repeats,
                **trace_summary,
            },
            "speedup": round(speedup, 2),
        },
        "crosscheck_rel_diff": crosscheck,
    }
    payload = json.dumps(report, indent=2)
    print(payload)
    if args.out:
        args.out.write_text(payload + "\n")
        print(f"wrote {args.out}", file=sys.stderr)

    if speedup < args.min_speedup:
        print(
            f"speedup {speedup:.1f}x below required {args.min_speedup}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
