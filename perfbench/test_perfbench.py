"""Self-test of the benchmark at tiny size.

    python -m pytest perfbench -q

Every named metric must be emitted with its unit, on every workload and
in both modes, and each correctness check must fail on a deliberately
corrupted plan or replay.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "benchmarks")]

import batch  # noqa: E402
import run as bench  # noqa: E402
import serve  # noqa: E402
from harness import (  # noqa: E402
    NOMINAL_PROBE_MS,
    HostSpeed,
    fcfs_response_times,
    stop_child_processes,
)
from repro.core.arrays import ScheduleArrays  # noqa: E402

SEED = 5


def tiny_config() -> dict:
    config = bench.load_config()
    config["setup_repeats"] = 2
    work = config["workloads"]
    work["batch_scale"].update(
        num_requests=3000, num_nodes=60, num_vnfs=24, sim_packets=30000,
        gate={"num_requests": 600, "num_nodes": 20, "num_vnfs": 12,
              "sim_packets": 5000, "jobs": 2},
    )
    for name in ("serve_churn", "serve_faults"):
        work[name].update(
            active=150, mean_holding_s=20.0, arrival_rate=7.5,
            warmup_events=50, trace_events=3000,
        )
    work["serve_churn"]["rebalance_every"] = 25
    work["serve_faults"].update(mtbf_s=5.0, mttr_s=1.0)
    return config


@pytest.fixture(scope="module")
def config():
    return tiny_config()


def test_benchmark_json_names_every_emitted_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        bench.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        bench.per_layer_units()
    )
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(config, workload, trace):
    report = bench.run(workload, SEED, 0.5, trace, config=config)
    result = report["result"]
    assert report["failures"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = bench.per_layer_units() if trace else bench.END_TO_END
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(want)
    for name, entry in result["metrics"].items():
        assert np.isfinite(entry["value"]), name
        if not trace:
            assert entry["value"] > 0, name
    assert report["machine"]["nproc"] >= 1
    assert report["config"]["seed"] == SEED


def _served(config, workload):
    cfg = config["workloads"][workload]
    inputs = serve.make_inputs(workload, cfg, config["infra_seed"], SEED)
    server = serve.Server(inputs, cfg)
    server.replay(inputs.events[inputs.warmup:], HostSpeed(), None, limit=400)
    assert serve.check_server(server) == []
    return server


def test_serve_checks_catch_a_load_drift(config):
    server = _served(config, "serve_churn")
    server.engine._inst_loads[0] += 1.0
    assert any("instance loads" in f for f in serve.check_server(server))


def test_serve_checks_catch_lost_accounting(config):
    server = _served(config, "serve_churn")
    server.reports[-1].arrivals += 1
    failures = serve.check_server(server)
    assert any("arrivals" in f for f in failures)


def test_serve_checks_catch_an_untracked_admit(config):
    server = _served(config, "serve_churn")
    server.reports[-1].admitted -= 1
    server.reports[-1].rejected_capacity += 1
    assert any("num_active" in f for f in serve.check_server(server))


def test_serve_checks_catch_a_chain_on_a_failed_node(config):
    server = _served(config, "serve_faults")
    engine = server.engine
    rid = engine.active_requests[0]
    vnf_name = next(iter(engine.assignment_of(rid)))
    engine._failed_nodes.add(engine.placement[vnf_name])
    assert any("failed nodes" in f for f in serve.check_server(server))


@pytest.fixture(scope="module")
def small_plan(config):
    cfg = config["workloads"]["batch_scale"]
    scn = batch.construct(cfg, SEED)
    plan = batch.plan_pass(scn, cfg, SEED, cfg["sim_packets"], 1, HostSpeed())
    assert batch.check_plan(scn.arrays, plan["pvec"], plan["sched"])["failures"] == []
    return scn, plan


def test_plan_check_catches_an_overloaded_node(small_plan):
    scn, plan = small_plan
    crowded = np.zeros_like(plan["pvec"])
    failures = batch.check_plan(scn.arrays, crowded, plan["sched"])["failures"]
    assert any("beyond capacity" in f for f in failures)


def test_plan_check_catches_an_unscheduled_hop(small_plan):
    scn, plan = small_plan
    s = plan["sched"]
    dropped = ScheduleArrays(req=s.req[1:], vnf=s.vnf[1:], k=s.k[1:], inst=s.inst[1:])
    checked = batch.check_plan(scn.arrays, plan["pvec"], dropped)
    assert checked["unserved"] == 1
    assert any("unscheduled hop" in f for f in checked["failures"])


def test_sim_parity_catches_a_diverging_shard(small_plan):
    _, plan = small_plan
    serial = plan["metrics"]
    assert batch.check_sim_parity(serial, copy.copy(serial)) == []
    skewed = copy.copy(serial)
    skewed.delivered = serial.delivered.copy()
    skewed.delivered[0] += 1
    assert batch.check_sim_parity(serial, skewed) == [
        "simulate jobs=1 and jobs=2 differ on delivered"
    ]


def _traced_serve(config, workload="serve_churn"):
    import_s = [0.0]
    return serve.run(
        workload, config["workloads"][workload], config["infra_seed"],
        SEED, 0.5, True, 1, import_s, HostSpeed(),
    )


def test_trace_accounting_catches_work_under_no_layer(config):
    report = _traced_serve(config)
    assert bench.per_layer_metrics(report)[1] == []
    # Work the named layers miss shows as the root span's own time.
    tracer = report["tracer"]
    root = next(s for s in tracer.spans if s["parent"] is None)
    root["end"] += 0.2 * report["trace_wall_s"] + 0.1
    report["trace_wall_s"] = root["end"] - root["start"]
    failures = bench.per_layer_metrics(report)[1]
    assert any("under no layer" in f for f in failures)


def test_traced_admits_and_departs_are_trace_events_only(config):
    report = _traced_serve(config, "serve_faults")
    counts = report["tracer"].counts
    stats = report["stats"]
    # Readmits inside recover and departs inside fail_node are not
    # counted as arrival admits or trace departures.
    assert counts["core.incremental.admit_calls"] == stats["arrivals"]
    rejected = sum(
        v for k, v in counts.items() if k.startswith("core.incremental.rejected_")
    )
    assert rejected == stats["rejected"]
    assert counts.get("faults.recovery.readmitted", 0) == stats["readmissions"]
    assert report["failures"] == []


def test_host_speed_normalises_by_the_probe():
    speed = HostSpeed()
    speed.at, speed.ms = [0.0, 10.0], [NOMINAL_PROBE_MS, 2 * NOMINAL_PROBE_MS]
    speed.took = [0.1, 0.1]
    # The probe at 0.0 ran inside the interval, so its time comes out.
    assert speed.normalise(0.0, 2.0) == pytest.approx(1.9 / 1.1)
    np.testing.assert_allclose(speed.slowdown([0.0, 10.0, 20.0]), [1.0, 2.0, 2.0])
    with pytest.raises(RuntimeError):
        HostSpeed().slowdown([0.0])


def test_sampling_probes_inside_the_work():
    speed = HostSpeed(every=0.02)
    speed.probe()
    start = time.perf_counter()
    with speed.sampling():
        while time.perf_counter() - start < 0.3:
            pass
    end = time.perf_counter()
    assert len(speed.at) > 5
    took = sum(t for a, t in zip(speed.at, speed.took) if start <= a <= end)
    assert took > 0
    assert speed.normalise(start, end) == pytest.approx(
        (end - start - took) / speed.mean_slowdown(start, end)
    )


def test_fcfs_replay_counts_the_wait_behind_a_stall():
    due = np.array([0.0, 1.0, 1.1, 1.2, 5.0])
    service = np.array([0.5, 2.0, 0.1, 0.1, 0.1])
    np.testing.assert_allclose(
        fcfs_response_times(due, service), [0.5, 2.0, 2.0, 2.0, 0.1]
    )


def test_no_child_process_outlives_the_run(small_plan):
    from multiprocessing import resource_tracker

    # The plan's jobs=2 simulate used shared memory; the tracker that
    # shared memory starts is made to outlive its parent.
    resource_tracker.ensure_running()
    stop_child_processes()
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
