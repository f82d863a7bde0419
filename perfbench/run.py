#!/usr/bin/env python3
"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {batch_scale,serve_churn,serve_faults}
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports ``repro`` from ``src/``
and ``bench_scale`` from ``benchmarks/``.  Sizes, offered rates and the
held-out seed live in ``perfbench/workloads.json``.

With ``--trace 0`` the workload is measured untraced for ``--seconds``
and the end-to-end metrics are reported.  With ``--trace 1`` half the
window runs untraced, then the same work runs again under spans, and
the per-layer metrics (self time per layer, counts, RSS per stage and
the tracing overhead) are reported.  Correctness checks run outside
the timed window on every run.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it is the full report
(machine, config, sample counts); the same report, and in traced runs
every span, is written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

from harness import HostSpeed, machine, stop_child_processes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("batch_scale", "serve_churn", "serve_faults")

#: The end-to-end metrics every workload reports, with their units.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("step_ms", "ms"),
)

#: Per-layer self seconds, metric name -> span name.
SPAN_METRICS = (
    ("workload.stream.construct_s", "workload.stream.construct"),
    ("placement.bfdsu.place_s", "placement.bfdsu.place"),
    ("scheduling.kernels.schedule_s", "scheduling.kernels.schedule"),
    ("core.local_search.relocate_s", "core.local_search.relocate"),
    ("scheduling.swap_refine.swap_s", "scheduling.swap_refine.swap"),
    ("core.evaluation.evaluate_s", "core.evaluation.evaluate"),
    ("sim.scale.simulate_s", "sim.scale.simulate"),
    ("core.incremental.admit_s", "core.incremental.admit"),
    ("core.incremental.depart_s", "core.incremental.depart"),
    ("core.incremental.fail_node_s", "core.incremental.fail_node"),
    ("core.incremental.rebalance_self_s", "core.incremental.rebalance"),
    ("scheduling.rckk.schedule_s", "scheduling.rckk.schedule"),
    ("faults.recovery.recover_self_s", "faults.recovery.recover"),
    ("serve.service.self_s", "serve.service"),
)

#: Per-layer counters recorded at the same boundaries.
COUNT_METRICS = (
    "placement.bfdsu.draws",
    "core.local_search.moves",
    "scheduling.swap_refine.moves",
    "sim.scale.packets_generated",
    "core.incremental.admit_calls",
    "core.incremental.admitted",
    "core.incremental.rejected_capacity",
    "core.incremental.rejected_bandwidth",
    "core.incremental.rejected_unavailable",
    "core.incremental.evicted",
    "core.incremental.migrations",
    "scheduling.rckk.calls",
    "faults.recovery.episodes",
)

#: Largest share of a traced run's wall time that may fall under no
#: layer's span: the named layers must account for the rest.
UNTRACED_SHARE = 0.1

RSS_STAGES = (
    "construct", "place", "schedule", "relocate", "swap", "evaluate", "simulate"
)

#: Serve-side numbers of the untraced half of a traced run, named as
#: the report names them; 0 where the workload has no such samples.
DETAIL_METRICS = (
    ("e2e.admit_p50_us", "us", "admit_p50_us"),
    ("e2e.admit_p99_us", "us", "admit_p99_us"),
    ("e2e.wait_p99_ms", "ms", "wait_p99_ms"),
    ("e2e.recovery_p90_ms", "ms", "recovery_p90_ms"),
)


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = [(name, "s") for name, _ in SPAN_METRICS]
    units += [(name, "count") for name in COUNT_METRICS]
    units += [
        ("sim.scale.delivered_ratio", "ratio"),
        ("faults.recovery.readmit_ratio", "ratio"),
    ]
    units += [(f"rss.{stage}_mb", "MB") for stage in RSS_STAGES]
    units += [(name, unit) for name, unit, _ in DETAIL_METRICS]
    units += [
        ("e2e.sim_packets_per_s", "1/s"),
        ("trace.wall_s", "s"),
        ("trace.untraced_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    return units


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(result: dict):
    """Per-layer values of a traced run, and the accounting failures."""
    tracer = result["tracer"]
    self_s = tracer.self_times()
    counts = tracer.counts
    values = {name: self_s.get(span, 0.0) for name, span in SPAN_METRICS}
    values.update({name: float(counts.get(name, 0)) for name in COUNT_METRICS})
    values["sim.scale.delivered_ratio"] = _ratio(
        counts.get("sim.scale.delivered", 0),
        counts.get("sim.scale.packets_generated", 0),
    )
    values["faults.recovery.readmit_ratio"] = _ratio(
        counts.get("faults.recovery.readmitted", 0),
        counts.get("core.incremental.evicted", 0),
    )
    rss = result.get("rss_mb", {})
    for stage in RSS_STAGES:
        values[f"rss.{stage}_mb"] = float(rss.get(stage, 0.0))
    stats = result["stats"]
    for name, _, key in DETAIL_METRICS:
        entry = stats.get(key)
        values[name] = float(entry["value"] or 0.0) if entry else 0.0
    sim = stats.get("sim_packets_per_s")
    values["e2e.sim_packets_per_s"] = float(sim["value"]) if sim else 0.0

    root = next(s for s in tracer.spans if s["parent"] is None)
    layer_names = {span for _, span in SPAN_METRICS}
    unnamed = sorted(set(self_s) - layer_names - {root["name"], "perfbench.probe"})
    wall = result["trace_wall_s"]
    probes = self_s.get("perfbench.probe", 0.0)
    outside = self_s[root["name"]]
    # Time under no layer: the root's own time and the host-speed probes.
    values["trace.wall_s"] = wall
    values["trace.untraced_s"] = outside + probes
    values["trace.overhead_s"] = result["overhead_s"]

    failures = []
    if unnamed:
        failures.append(f"spans without a per-layer metric: {unnamed}")
    if outside > UNTRACED_SHARE * (wall - probes):
        failures.append(
            f"{outside:.3f} s of the {wall - probes:.3f} s traced wall "
            f"(probes aside) is under no layer (limit {UNTRACED_SHARE:.0%})"
        )
    return values, failures


def import_seconds(module: str, repeats: int, speed: HostSpeed):
    """Time importing ``module`` in ``repeats`` fresh interpreters,
    host-speed normalised."""
    code = (
        "import sys, time\n"
        f"sys.path[:0] = {[str(HERE), str(ROOT / 'src'), str(ROOT / 'benchmarks')]!r}\n"
        "t = time.perf_counter()\n"
        f"import {module}\n"
        "print(time.perf_counter() - t)\n"
    )
    out = []
    for _ in range(repeats):
        speed.probe()
        start = time.perf_counter()
        with speed.sampling():
            done = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, check=True, timeout=120,
            )
        seconds = float(done.stdout.strip().splitlines()[-1])
        speed.probe()
        out.append(seconds / speed.mean_slowdown(start, time.perf_counter()))
    return out


def load_config() -> dict:
    return json.loads((HERE / "workloads.json").read_text())


def run(workload: str, seed: int, seconds: float, trace: bool,
        config=None) -> dict:
    """Run one workload; returns the full report.

    ``config`` defaults to ``workloads.json``; the self-test passes a
    shrunken copy.
    """
    from bench_scale import peak_rss_mb

    config = config or load_config()
    cfg = config["workloads"][workload]
    repeats = config["setup_repeats"]
    speed = HostSpeed()
    if workload == "batch_scale":
        import batch

        result = batch.run(
            cfg, config["infra_seed"], seed, seconds, trace, repeats,
            import_seconds("batch", repeats, speed), speed,
        )
    else:
        import serve

        result = serve.run(
            workload, cfg, config["infra_seed"], seed, seconds, trace, repeats,
            import_seconds("serve", repeats, speed), speed,
        )

    failures = list(result["failures"])
    if trace:
        values, more = per_layer_metrics(result)
        failures.extend(more)
        units = per_layer_units()
    else:
        values = {
            "setup_s": result["setup_s"],
            "peak_rss_mb": peak_rss_mb(),
            "throughput_per_s": result["throughput_per_s"],
            "step_ms": result["step_ms"],
        }
        units = END_TO_END
    config_out = {
        key: value for key, value in cfg.items()
        if key not in ("why", "loop", "load", "exercises", "bypasses", "end_to_end")
    }
    return {
        "workload": workload,
        "machine": {**machine(), "host_speed": speed.summary()},
        "config": {
            "seed": seed, "seconds": seconds, "trace": int(trace),
            "infra_seed": config["infra_seed"], "setup_repeats": repeats,
            **config_out,
        },
        "setup_samples_s": result["setup_samples"],
        "step": result["step"],
        "stats": result["stats"],
        "failures": failures,
        "result": {
            "correct": not failures,
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]) + len(failures),
            "metrics": {
                name: {"value": float(values[name]), "unit": unit}
                for name, unit in units
            },
        },
        "tracer": result.get("tracer"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"perfbench: no repro sources under {ROOT / 'src'}; run from "
            "the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

    # A SIGTERM unwinds through the ``finally`` below, so the processes
    # this one started are stopped on that path too.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    started = time.perf_counter()
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_child_processes()
    tracer = report.pop("tracer")
    report["run_wall_s"] = time.perf_counter() - started

    out_dir = Path.cwd() / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    if tracer is not None:
        tracer.dump(
            str(out_dir / f"{stem}-spans.json"),
            {"workload": args.workload, "seed": args.seed},
        )
    for failure in report["failures"]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
