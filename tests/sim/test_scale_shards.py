"""The sharded-simulation determinism contract, pinned.

``simulate_columns(jobs=N)`` must merge to the byte-identical
:class:`~repro.sim.scale.ScaleSimMetrics` for every ``N`` — the whole
point of the shard layer is that worker count is a throughput knob,
never a realization knob.  These suites pin each leg of the contract
documented in :mod:`repro.sim.shard`: plan determinism, the stable
partition, merge-order invariance, and the serial fallback.
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.seeding import DEFAULT_SEED
from repro.sim.scale import simulate_columns
from repro.sim.shard import (
    DEFAULT_NUM_SHARDS,
    ScaleShardPlan,
    _SerialShardExecutor,
    _ShardMeasure,
    merge_shard_measurements,
    open_shard_executor,
    partition_by_shard,
)
from repro.sim import shard
from repro.sim.simulator import SimulationConfig
from repro.exceptions import SimulationError, ValidationError
from repro.scheduling.kernels import schedule_columns
from repro.workload.stream import rescale_to_stability, stream_scenario


METRIC_FIELDS = (
    "generated",
    "delivered",
    "retransmitted",
    "latency_sum",
    "instance_arrivals",
    "instance_departures",
    "instance_mean_sojourn",
    "instance_utilization",
)


def build_case(seed, num_requests=250, num_vnfs=10, num_nodes=8):
    scn = stream_scenario(
        num_vnfs=num_vnfs,
        num_nodes=num_nodes,
        num_requests=num_requests,
        rng=np.random.default_rng(seed),
    )
    rescale_to_stability(scn, target=0.7)
    arrays = scn.arrays
    return arrays, schedule_columns(arrays)


def assert_metrics_identical(a, b, context=""):
    for field in METRIC_FIELDS:
        va, vb = getattr(a, field), getattr(b, field)
        if np.isscalar(va):
            assert va == vb, f"{context}{field}"
        else:
            np.testing.assert_array_equal(va, vb, err_msg=f"{context}{field}")


class TestShardPlan:
    def test_plan_is_deterministic(self):
        arrays, sched = build_case(DEFAULT_SEED)
        a = ScaleShardPlan.build(arrays, sched)
        b = ScaleShardPlan.build(arrays, sched)
        assert a.num_shards == b.num_shards
        np.testing.assert_array_equal(a.shard_of_inst, b.shard_of_inst)

    def test_plan_independent_of_jobs(self):
        # The plan (hence the RNG stream layout) is a function of
        # scenario + schedule only; jobs never enters it.
        arrays, sched = build_case(DEFAULT_SEED)
        plan = ScaleShardPlan.build(arrays, sched)
        assert plan.num_shards == min(DEFAULT_NUM_SHARDS, arrays.num_instances)
        assert plan.shard_of_inst.shape == (arrays.num_instances,)

    def test_plan_covers_every_instance(self):
        arrays, sched = build_case(11)
        plan = ScaleShardPlan.build(arrays, sched)
        assert plan.shard_of_inst.min() >= 0
        assert plan.shard_of_inst.max() < plan.num_shards
        # Snake dealing keeps shard sizes within one of each other.
        sizes = np.bincount(plan.shard_of_inst, minlength=plan.num_shards)
        assert sizes.max() - sizes.min() <= 1

    def test_plan_caps_at_instance_count(self):
        arrays, sched = build_case(5, num_requests=20, num_vnfs=2)
        plan = ScaleShardPlan.build(arrays, sched, num_shards=10_000)
        assert plan.num_shards <= arrays.num_instances

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValidationError):
            ScaleShardPlan(num_shards=0, shard_of_inst=np.zeros(1, np.int64))

    def test_foreign_plan_shape_rejected(self):
        arrays, sched = build_case(3)
        bad = ScaleShardPlan(
            num_shards=2,
            shard_of_inst=np.zeros(arrays.num_instances + 5, np.int64),
        )
        with pytest.raises(SimulationError):
            simulate_columns(
                arrays, sched, SimulationConfig(duration=0.5, warmup=0.0), plan=bad
            )


class TestPartition:
    def test_single_shard_identity(self):
        ids = np.zeros(7, dtype=np.int64)
        order, bounds = partition_by_shard(ids, 1)
        np.testing.assert_array_equal(order, np.arange(7))
        np.testing.assert_array_equal(bounds, [0, 7])

    def test_partition_is_stable(self):
        ids = np.asarray([2, 0, 1, 0, 2, 1, 0], dtype=np.int64)
        order, bounds = partition_by_shard(ids, 3)
        np.testing.assert_array_equal(ids[order], np.sort(ids))
        # Entries of shard 0 keep their original relative order.
        np.testing.assert_array_equal(order[bounds[0]:bounds[1]], [1, 3, 6])
        np.testing.assert_array_equal(order[bounds[2]:bounds[3]], [0, 4])


class TestJobsInvariance:
    @pytest.mark.parametrize("jobs", [2, 4, 7])
    def test_jobs_byte_identical_default_seed(self, jobs):
        arrays, sched = build_case(DEFAULT_SEED)
        cfg = SimulationConfig(duration=1.0, warmup=0.1, seed=DEFAULT_SEED)
        base = simulate_columns(arrays, sched, cfg, jobs=1)
        sharded = simulate_columns(arrays, sched, cfg, jobs=jobs)
        assert_metrics_identical(base, sharded, f"jobs={jobs}: ")

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_jobs_byte_identical_derived_seeds(self, seed):
        arrays, sched = build_case(DEFAULT_SEED + seed, num_requests=120)
        cfg = SimulationConfig(
            duration=0.8, warmup=0.05, seed=DEFAULT_SEED + seed
        )
        base = simulate_columns(arrays, sched, cfg, jobs=1)
        sharded = simulate_columns(arrays, sched, cfg, jobs=2)
        assert_metrics_identical(base, sharded, f"seed={seed}: ")

    def test_explicit_plan_respected_at_any_jobs(self):
        arrays, sched = build_case(DEFAULT_SEED, num_requests=100)
        plan = ScaleShardPlan.build(arrays, sched, num_shards=3)
        cfg = SimulationConfig(duration=0.8, warmup=0.0, seed=DEFAULT_SEED)
        base = simulate_columns(arrays, sched, cfg, jobs=1, plan=plan)
        sharded = simulate_columns(arrays, sched, cfg, jobs=2, plan=plan)
        assert_metrics_identical(base, sharded, "explicit plan: ")

    def test_spawn_start_method_safe(self):
        # Spawn-safe: either real spawned workers or (when the harness
        # cannot re-import __main__) the serial fallback — identical
        # result both ways.
        arrays, sched = build_case(DEFAULT_SEED, num_requests=80)
        cfg = SimulationConfig(duration=0.6, warmup=0.0, seed=DEFAULT_SEED)
        base = simulate_columns(arrays, sched, cfg, jobs=1)
        sharded = simulate_columns(
            arrays, sched, cfg, jobs=2, start_method="spawn"
        )
        assert_metrics_identical(base, sharded, "spawn: ")


class TestSerialFallback:
    def test_jobs_none_and_one_use_serial_executor(self):
        arrays, sched = build_case(7, num_requests=60)
        plan = ScaleShardPlan.build(arrays, sched)
        seqs = np.random.SeedSequence(0).spawn(2 * plan.num_shards)
        ex = open_shard_executor(
            arrays,
            plan,
            1.0,
            seqs[: plan.num_shards],
            seqs[plan.num_shards:],
            generated=100,
            jobs=None,
        )
        try:
            assert isinstance(ex, _SerialShardExecutor)
        finally:
            ex.close()

    def test_zero_generated_stays_serial(self):
        arrays, sched = build_case(7, num_requests=60)
        plan = ScaleShardPlan.build(arrays, sched)
        seqs = np.random.SeedSequence(0).spawn(2 * plan.num_shards)
        ex = open_shard_executor(
            arrays,
            plan,
            1.0,
            seqs[: plan.num_shards],
            seqs[plan.num_shards:],
            generated=0,
            jobs=4,
        )
        try:
            assert isinstance(ex, _SerialShardExecutor)
        finally:
            ex.close()

    def test_single_shard_plan_stays_serial(self):
        arrays, sched = build_case(7, num_requests=60)
        plan = ScaleShardPlan.build(arrays, sched, num_shards=1)
        seqs = np.random.SeedSequence(0).spawn(2)
        ex = open_shard_executor(
            arrays, plan, 1.0, seqs[:1], seqs[1:], generated=100, jobs=4
        )
        try:
            assert isinstance(ex, _SerialShardExecutor)
        finally:
            ex.close()


_SHM_DIR = "/dev/shm"
_REAL_WORKER = shard._shard_worker


def _worker_exiting_on_first_sweep(conn, *args):
    """A shard worker whose process exits as its first sweep arrives."""

    class _Conn:
        def recv(self):
            msg = conn.recv()
            if msg[0] == "sweep":
                os._exit(3)
            return msg

        def __getattr__(self, name):
            return getattr(conn, name)

    _REAL_WORKER(_Conn(), *args)


def _failing_sweep(self, pkt, inst, t):
    raise RuntimeError("injected sweep failure")


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods()
    or not os.path.isdir(_SHM_DIR),
    reason="needs fork workers and a POSIX shared-memory directory",
)
class TestDeadWorker:
    """A worker lost mid-sweep ends the run in ``SimulationError`` and
    leaves none of the run's shared-memory segments behind.  Forked
    workers inherit the patched code."""

    def _run(self):
        arrays, sched = build_case(DEFAULT_SEED, num_requests=80)
        cfg = SimulationConfig(duration=0.6, warmup=0.0, seed=DEFAULT_SEED)
        before = set(os.listdir(_SHM_DIR))
        with pytest.raises(SimulationError) as err:
            simulate_columns(arrays, sched, cfg, jobs=2, start_method="fork")
        assert set(os.listdir(_SHM_DIR)) <= before
        return str(err.value)

    def test_worker_killed_mid_sweep(self, monkeypatch):
        monkeypatch.setattr(
            shard, "_shard_worker", _worker_exiting_on_first_sweep
        )
        assert "died mid-run" in self._run()

    def test_worker_error_is_reported(self, monkeypatch):
        monkeypatch.setattr(shard._ShardSim, "sweep", _failing_sweep)
        message = self._run()
        assert "scale shard worker failed" in message
        assert "injected sweep failure" in message


def measure_strategy(num_instances, generated):
    def build(draw_seed):
        rng = np.random.default_rng(draw_seed)
        count = int(rng.integers(0, generated + 1))
        pkt_idx = np.sort(
            rng.choice(generated, size=count, replace=False)
        ).astype(np.int64)
        return _ShardMeasure(
            pkt_idx=pkt_idx,
            pkt_sums=rng.random(count),
            arrivals=rng.integers(0, 50, num_instances),
            departures=rng.integers(0, 50, num_instances),
            sojourn_done=rng.random(num_instances),
            busy=rng.random(num_instances),
        )

    return build


class TestMergeOrderInvariance:
    @given(
        perm_seed=st.integers(0, 10_000),
        data_seed=st.integers(0, 10_000),
        num_shards=st.integers(1, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_arrival_order_merges_identically(
        self, perm_seed, data_seed, num_shards
    ):
        # Workers answer in whatever order the scheduler lets them;
        # the reduction must not care.
        generated, num_instances = 37, 11
        build = measure_strategy(num_instances, generated)
        tagged = [
            (s, build(data_seed * 31 + s)) for s in range(num_shards)
        ]
        baseline = merge_shard_measurements(tagged, generated, num_instances)
        shuffled = list(tagged)
        np.random.default_rng(perm_seed).shuffle(shuffled)
        merged = merge_shard_measurements(shuffled, generated, num_instances)
        for a, b in zip(baseline, merged):
            np.testing.assert_array_equal(a, b)
