"""Exactness of the simulator's sort-once kernels.

Each kernel is checked against the code it replaced: the merged visit
log against concatenate + stable sort + ``segmented_maximum_accumulate``,
the sweep order against ``np.lexsort``, and the per-request arrival sort
against ``np.lexsort`` over (request, time).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.kernels import segmented_maximum_accumulate
from repro.sim.scale import _sorted_within
from repro.sim.shard import (
    ScaleShardPlan,
    _History,
    index_dtype,
    partition_by_shard,
    stable_argsort,
    visit_order,
)

SPAN = 2.0 * (1.0 + 1e-9) + 1.0


def reference_log(batches):
    """The log by the old recipe: every batch concatenated, one stable
    (instance, time) sort, one segmented running max."""
    inst = np.concatenate([b[0] for b in batches]).astype(np.int64)
    t = np.concatenate([b[1] for b in batches])
    pkt = np.concatenate([b[2] for b in batches])
    dep = np.concatenate([b[3] for b in batches])
    order = np.lexsort((t, inst))
    return (
        inst[order],
        t[order],
        pkt[order],
        segmented_maximum_accumulate(dep[order], inst[order]),
    )


def sorted_batch(rng, inst, t, first_pkt):
    """One swept batch in (instance, time) order with departures that
    never fall within an instance run, as FCFS departures do."""
    order = np.lexsort((t, inst))
    inst, t = inst[order], t[order]
    dep = segmented_maximum_accumulate(t + rng.exponential(0.3, t.size), inst)
    pkt = first_pkt + np.arange(t.size, dtype=np.int64)
    return inst, t, pkt, dep


def brute_rank(inst, t, log_inst, log_t):
    return np.asarray(
        [
            np.count_nonzero(
                (log_inst < i) | ((log_inst == i) & (log_t <= x))
            )
            for i, x in zip(inst.astype(np.int64), t)
        ],
        dtype=np.int64,
    )


def brute_waits(inst, t, log_inst, log_t, log_dep):
    out = np.zeros(t.size)
    for j, (i, x) in enumerate(zip(inst.astype(np.int64), t)):
        seen = (log_inst == i) & (log_t <= x)
        if seen.any():
            out[j] = max(log_dep[seen].max() - x, 0.0)
    return out


def record_all(batches, index_type=np.dtype(np.uint16)):
    log = _History(span=SPAN, index_type=index_type)
    for b_inst, b_t, b_pkt, b_dep in batches:
        b_inst = b_inst.astype(index_type)
        pos = log.rank(b_inst, b_t)
        np.testing.assert_array_equal(
            pos, brute_rank(b_inst, b_t, log.inst.astype(np.int64), log.arr)
        )
        np.testing.assert_array_equal(
            log.waits(pos, b_inst, b_t),
            brute_waits(
                b_inst, b_t, log.inst.astype(np.int64), log.arr,
                log.dep_cummax,
            ),
        )
        log.record(pos, b_inst, b_t, b_pkt, b_dep)
    return log


def assert_log_equals_reference(log, batches):
    inst, t, pkt, cummax = reference_log(batches)
    np.testing.assert_array_equal(log.inst.astype(np.int64), inst)
    np.testing.assert_array_equal(log.arr, t)
    np.testing.assert_array_equal(log.pkt, pkt)
    np.testing.assert_array_equal(log.dep_cummax, cummax)
    np.testing.assert_array_equal(log.keys, log.key_of(log.inst, log.arr))


class TestMergedLog:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_batches_match_concatenate_and_sort(self, seed):
        rng = np.random.default_rng(seed)
        batches, first = [], 0
        for _ in range(5):
            m = int(rng.integers(1, 40))
            inst = rng.integers(0, 6, m)
            t = rng.random(m) * 2.0
            batches.append(sorted_batch(rng, inst, t, first))
            first += m
        assert_log_equals_reference(record_all(batches), batches)

    def test_equal_times_keep_sweep_order(self):
        # Equal (instance, time) visits across and within batches: the
        # log keeps them in the order they were swept, old before new.
        rng = np.random.default_rng(3)
        grid = np.asarray([0.25, 0.5, 0.75])
        batches, first = [], 0
        for _ in range(4):
            inst = rng.integers(0, 3, 12)
            t = grid[rng.integers(0, grid.size, 12)]
            batches.append(sorted_batch(rng, inst, t, first))
            first += 12
        log = record_all(batches)
        assert_log_equals_reference(log, batches)
        assert (np.diff(log.arr)[np.diff(log.inst.astype(int)) == 0] == 0).any()

    def test_rounded_key_tie_breaks_on_time(self):
        # At a high instance id, inst * span + t rounds two distinct
        # times to one key; the log still orders them by time.
        high = np.asarray([60_000], dtype=np.uint16)
        early = np.asarray([0.5])
        late = np.nextafter(early, 1.0)
        log = _History(span=SPAN, index_type=np.dtype(np.uint16))
        assert log.key_of(high, early)[0] == log.key_of(high, late)[0]
        assert late[0] > early[0]

        batches = [
            (high, late, np.asarray([0]), np.asarray([0.9])),
            (high, early, np.asarray([1]), np.asarray([0.6])),
            (
                np.asarray([59_999, 60_000, 60_000, 60_001]),
                np.asarray([0.5, 0.5, 0.7, 0.1]),
                np.asarray([2, 3, 4, 5]),
                np.asarray([0.8, 0.55, 1.0, 0.4]),
            ),
        ]
        log = record_all(batches)
        assert_log_equals_reference(log, batches)
        # The late visit (swept first) sits after both visits at the
        # early time, the second of which came in a later batch.
        at = np.flatnonzero(log.inst == 60_000)
        np.testing.assert_array_equal(log.pkt[at], [1, 3, 0, 4])
        # A stable sort on the float key alone would have kept it first.
        keys = log.key_of(high, np.concatenate([late, early]))
        assert np.argsort(keys, kind="stable").tolist() == [0, 1]


class TestSweepOrder:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_lexsort(self, seed):
        rng = np.random.default_rng(seed)
        n = 500
        inst = rng.integers(0, 40, n)
        # Half the times from a coarse grid, so (instance, time) ties
        # occur and the stable order of tied entries is exercised.
        t = np.where(
            rng.random(n) < 0.5, rng.integers(0, 5, n) * 0.5, rng.random(n)
        )
        local = inst.astype(index_dtype(40))
        np.testing.assert_array_equal(
            visit_order(local, t), np.lexsort((t, inst))
        )

    def test_wide_local_index(self):
        # A shard of more than 65536 instances keys its visits on a
        # 32-bit index; only the values are drawn, not the shard.
        rng = np.random.default_rng(7)
        size = 70_000
        inst = rng.integers(size - 300, size, 400)
        t = rng.integers(0, 20, 400) * 0.1
        local = inst.astype(index_dtype(size))
        assert local.dtype == np.uint32
        np.testing.assert_array_equal(
            visit_order(local, t), np.lexsort((t, inst))
        )

    @pytest.mark.parametrize(
        "size, dtype",
        [
            (1, np.uint8),
            (256, np.uint8),
            (257, np.uint16),
            (65_536, np.uint16),
            (65_537, np.uint32),
            (2**32, np.uint32),
            (2**32 + 1, np.int64),
        ],
    )
    def test_index_dtype(self, size, dtype):
        assert index_dtype(size) == np.dtype(dtype)

    def test_stable_argsort_ties(self):
        rng = np.random.default_rng(2)
        for n in (0, 1, 2, 50, 1000):
            for distinct in (1, 3, 10**9):
                v = rng.integers(0, distinct, n).astype(np.float64)
                np.testing.assert_array_equal(
                    stable_argsort(v), np.argsort(v, kind="stable")
                )

    def test_partition_matches_int64_argsort(self):
        rng = np.random.default_rng(4)
        ids = rng.integers(0, 16, 1000)
        order, bounds = partition_by_shard(ids, 16)
        np.testing.assert_array_equal(order, np.argsort(ids, kind="stable"))
        np.testing.assert_array_equal(
            bounds, np.searchsorted(np.sort(ids), np.arange(17))
        )

    def test_local_index_orders_like_instance_id(self):
        shard_of_inst = np.asarray([2, 0, 1, 0, 2, 2, 1, 0], dtype=np.int64)
        plan = ScaleShardPlan(num_shards=3, shard_of_inst=shard_of_inst)
        local = plan.local_index()
        assert local.dtype == np.uint8
        for s in range(3):
            members = plan.members(s)
            np.testing.assert_array_equal(
                local[members], np.arange(members.size)
            )


class TestArrivalSort:
    def _reference(self, values, counts):
        req = np.repeat(np.arange(counts.size), counts)
        return values[np.lexsort((values, req))]

    def test_zero_counts_and_one_heavy_request(self):
        rng = np.random.default_rng(5)
        counts = rng.poisson(3.0, 300)
        counts[::7] = 0
        counts[123] = 5_000
        values = rng.random(int(counts.sum()))
        np.testing.assert_array_equal(
            _sorted_within(values, counts), self._reference(values, counts)
        )

    def test_all_zero_and_ties(self):
        counts = np.asarray([0, 0, 0])
        assert _sorted_within(np.empty(0), counts).size == 0
        counts = np.asarray([3, 0, 2, 1])
        values = np.asarray([0.5, 0.5, 0.1, 0.2, 0.2, 0.9])
        np.testing.assert_array_equal(
            _sorted_within(values, counts), self._reference(values, counts)
        )
