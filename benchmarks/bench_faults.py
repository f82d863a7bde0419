#!/usr/bin/env python
"""Micro-benchmark: crash handling and recovery on a loaded engine.

Builds a deterministic 2k-active-request engine (the bench_serve
scenario) and drives repeated node crash / repair cycles through the
fault path added in PR 9:

* ``fail_node`` — mass-eviction throughput: chains evicted per second
  of wall-clock eviction work (exact-inverse retraction per chain).
* ``recover`` — one :class:`~repro.faults.recovery.LeastLoadedReadmit`
  episode per crash (relocate stranded VNFs + warm-start re-admit);
  the headline is the p99 wall-clock latency per episode.
* ``readmit_parity`` — a gate on one crash-and-repair: re-admitting
  the evicted set with a loop of single ``admit`` calls and with one
  ``admit_many`` call, both behind a budget that pays for half of it,
  must leave byte-identical engines (exit 1 otherwise); both
  wall-clock timings are reported.

Each cycle fails the next node in a round-robin over the nodes that
host at least one VNF, recovers, then repairs the node — so every
cycle sees a healthy fleet and a full active set.

Usage::

    PYTHONPATH=src python benchmarks/bench_faults.py [--quick] [--out FILE]

``--max-p99-ms`` gates on the recovery p99 (default 0: report-only;
CI runs the quick smoke, the acceptance number comes from the full run
recorded in ``BENCH_TRAJECTORY.json``).
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
import time
from pathlib import Path

try:  # pragma: no cover - path bootstrap for direct script runs
    import repro  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from bench_core import DEFAULT_SEED
from repro.core.incremental import AdmitReport, DeploymentEngine
from repro.faults.recovery import LeastLoadedReadmit, MigrationBudget
from repro.workload.generator import WorkloadGenerator


def _build(num_active: int, num_nodes: int, num_vnfs: int, seed: int):
    """An engine warmed to ``num_active`` requests."""
    gen = WorkloadGenerator(np.random.default_rng(seed))
    w = gen.workload(
        num_vnfs=num_vnfs, num_nodes=num_nodes, num_requests=num_active
    )
    engine = DeploymentEngine(
        w.vnfs, w.capacities, list(w.requests), target_utilization=None
    )
    return engine, w


def _crash_cycles(engine, cycles: int):
    """Round-robin crash/recover cycles; returns per-cycle timings."""
    policy = LeastLoadedReadmit()
    evict_times = []
    evict_counts = []
    recover_times = []
    readmitted = 0
    pending = 0
    cycle = 0
    while cycle < cycles:
        hosted = sorted(set(engine.placement.values()), key=str)
        victim = hosted[cycle % len(hosted)]

        start = time.perf_counter()
        evicted = engine.fail_node(victim)
        evict_times.append(time.perf_counter() - start)
        evict_counts.append(len(evicted))

        budget = MigrationBudget(max_migrations=10_000)
        start = time.perf_counter()
        outcome = policy.recover(engine, evicted, budget=budget)
        recover_times.append(time.perf_counter() - start)
        readmitted += len(outcome.readmitted)
        pending += len(outcome.pending)

        engine.recover_node(victim)
        cycle += 1
    return evict_times, evict_counts, recover_times, readmitted, pending


def _engine_bytes(engine) -> bytes:
    """Every piece of engine state a readmit writes, as bytes."""
    arrays = engine.arrays
    parts = [
        engine.instance_loads().tobytes(),
        b"" if engine._link_loads is None else engine._link_loads.tobytes(),
        repr(sorted(engine._schedule.items())).encode(),
        repr(sorted(engine.placement.items(), key=str)).encode(),
        repr(engine.active_requests).encode(),
        repr(list(arrays.request_ids)).encode(),
        repr(list(arrays.chain_names)).encode(),
    ]
    for column in (
        "lambda_r", "P_r", "eff_rate", "chain_ptr", "chain_req", "chain_vnf",
    ):
        parts.append(getattr(arrays, column).tobytes())
    return b"\0".join(parts)


def _readmit_parity(engine):
    """Crash and repair the first hosting node on two copies of
    ``engine``, then re-admit the evicted chains one ``admit`` at a
    time on one and with one ``admit_many`` on the other."""
    victim = sorted(set(engine.placement.values()), key=str)[0]
    loop, batch = copy.deepcopy(engine), copy.deepcopy(engine)
    results = {}
    for name, twin in (("loop", loop), ("batch", batch)):
        evicted = twin.fail_node(victim)
        twin.recover_node(victim)
        budget = MigrationBudget(max_migrations=len(evicted) // 2)
        start = time.perf_counter()
        if name == "batch":
            reports = twin.admit_many(evicted, budget=budget)
        else:
            # The recovery policies' budget rule, one request at a time.
            reports = []
            for request in evicted:
                eff = float(request.effective_rate)
                if not budget.can_charge(1, eff):
                    reports.append(
                        AdmitReport(request.request_id, False, reason="budget")
                    )
                    continue
                report = twin.admit(request)
                if report.admitted:
                    budget.try_charge(1, eff)
                reports.append(report)
        seconds = time.perf_counter() - start
        results[name] = (
            seconds,
            reports,
            (budget.spent_migrations, budget.spent_load),
            _engine_bytes(twin),
        )
    (loop_s, *loop_state), (batch_s, *batch_state) = (
        results["loop"],
        results["batch"],
    )
    reports = batch_state[0]
    return {
        "victim": str(victim),
        "evicted": len(reports),
        "admitted": sum(report.admitted for report in reports),
        "identical": loop_state == batch_state,
        "loop_ms": 1e3 * loop_s,
        "batch_ms": 1e3 * batch_s,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small scenario + fewer cycles (CI smoke)",
    )
    parser.add_argument("--out", type=Path, help="write the JSON report here")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--max-p99-ms",
        type=float,
        default=0.0,
        help="exit non-zero if recovery p99 exceeds this many ms "
        "(default 0: report only)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        num_active, num_nodes, num_vnfs, cycles = 200, 24, 12, 6
    else:
        num_active, num_nodes, num_vnfs, cycles = 2000, 24, 12, 48

    print(
        f"building engine: {num_active} active requests, {num_nodes} "
        f"nodes, {num_vnfs} VNFs (seed {args.seed})",
        file=sys.stderr,
    )
    engine, w = _build(num_active, num_nodes, num_vnfs, args.seed)
    parity = _readmit_parity(engine)

    evict_times, evict_counts, recover_times, readmitted, pending = (
        _crash_cycles(engine, cycles)
    )
    total_evicted = int(sum(evict_counts))
    evictions_per_sec = (
        total_evicted / sum(evict_times) if sum(evict_times) else 0.0
    )
    recovery_ms = 1e3 * np.asarray(recover_times)
    recovery_p99_ms = float(np.percentile(recovery_ms, 99))

    results = {
        "fail_node": {
            "cycles": cycles,
            "total_evicted": total_evicted,
            "mean_evicted_per_crash": total_evicted / cycles,
            "evictions_per_sec": evictions_per_sec,
            "speedup": None,
        },
        "recover": {
            "cycles": cycles,
            "readmitted": readmitted,
            "pending": pending,
            "mean_ms": float(recovery_ms.mean()),
            "p99_ms": recovery_p99_ms,
            "speedup": None,
        },
        "readmit_parity": parity,
    }
    print(
        f"{'fail_node':<12} {total_evicted} evictions over {cycles} "
        f"crashes  ({evictions_per_sec:,.0f} evictions/s)",
        file=sys.stderr,
    )
    print(
        f"{'readmit':<12} {parity['evicted']} evicted, {parity['admitted']} "
        f"admitted: loop {parity['loop_ms']:.3f} ms, admit_many "
        f"{parity['batch_ms']:.3f} ms, "
        f"{'identical' if parity['identical'] else 'MISMATCH'}",
        file=sys.stderr,
    )
    print(
        f"{'recover':<12} mean {recovery_ms.mean():9.3f} ms   "
        f"p99 {recovery_p99_ms:9.3f} ms   "
        f"({readmitted} readmitted, {pending} pending)",
        file=sys.stderr,
    )

    report = {
        "scenario": {
            "num_requests": num_active,
            "num_nodes": num_nodes,
            "num_vnfs": num_vnfs,
            "cycles": cycles,
            "seed": args.seed,
            "quick": args.quick,
        },
        "headline": {
            "recovery_p99_ms": recovery_p99_ms,
            "evictions_per_sec": evictions_per_sec,
        },
        "results": results,
    }
    payload = json.dumps(report, indent=2)
    print(payload)
    if args.out:
        args.out.write_text(payload + "\n")
        print(f"wrote {args.out}", file=sys.stderr)

    if not parity["identical"]:
        print(
            "admit_many and a loop of single admits left different "
            "engines after the same crash",
            file=sys.stderr,
        )
        return 1
    if args.max_p99_ms and recovery_p99_ms > args.max_p99_ms:
        print(
            f"recovery p99 {recovery_p99_ms:.3f} ms exceeds "
            f"{args.max_p99_ms} ms",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
