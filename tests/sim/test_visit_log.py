"""Exactness of the simulator's sort-once kernels.

Each kernel is checked against the code it replaced: the run log's
merge against concatenate + stable sort + ``segmented_maximum_accumulate``,
its backlog queries against brute force, the sweep order against
``np.lexsort``, and the per-request arrival sort against ``np.lexsort``
over (request, time).
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
    visit_order,
)

SPAN = 2.0 * (1.0 + 1e-9) + 1.0
SIZE = 60_002


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


def logged(log, col):
    """One column of every recorded run, in sweep order."""
    if not log.runs:
        return np.empty(0)
    return np.concatenate([getattr(run, col) for run in log.runs])


def record_all(batches):
    log = _History(span=SPAN, size=SIZE)
    for b_inst, b_t, b_pkt, b_dep in batches:
        b_inst = b_inst.astype(np.uint16)
        keys = log.key_of(b_inst, b_t)
        for run in log.runs:
            np.testing.assert_array_equal(
                run.rank(keys, b_inst, b_t),
                brute_rank(b_inst, b_t, run.inst.astype(np.int64), run.arr),
            )
        np.testing.assert_array_equal(
            log.waits(keys, b_inst, b_t),
            brute_waits(
                b_inst, b_t, logged(log, "inst").astype(np.int64),
                logged(log, "arr"), logged(log, "dep"),
            ),
        )
        log.record(keys, b_inst, b_t, b_pkt, b_dep)
    return log


def assert_log_equals_reference(log, batches):
    inst, t, pkt, cummax = reference_log(batches)
    m_inst, m_arr, m_pkt = log.merged()
    np.testing.assert_array_equal(m_inst.astype(np.int64), inst)
    np.testing.assert_array_equal(m_arr, t)
    np.testing.assert_array_equal(m_pkt, pkt)
    # Packet ids are unique here, so they carry each visit's departure
    # through the merge.
    dep_of = np.empty(int(logged(log, "pkt").max()) + 1)
    dep_of[logged(log, "pkt")] = logged(log, "dep")
    np.testing.assert_array_equal(
        segmented_maximum_accumulate(dep_of[m_pkt], m_inst), cummax
    )
    for run in log.runs:
        np.testing.assert_array_equal(run.keys, log.key_of(run.inst, run.arr))
        np.testing.assert_array_equal(
            run.dep, segmented_maximum_accumulate(run.dep, run.inst)
        )
        held = np.zeros(SIZE, dtype=bool)
        held[run.inst] = True
        np.testing.assert_array_equal(run.seen, held)


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
        # merge keeps them in the order they were swept, old before new.
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
        m_inst, m_arr, _ = log.merged()
        assert (np.diff(m_arr)[np.diff(m_inst.astype(int)) == 0] == 0).any()

    def test_exact_tie_across_runs_keeps_sweep_order(self):
        # One (instance, time) swept in three runs, the middle run also
        # holding an earlier visit: the merge lists them run by run.
        batches = [
            (np.asarray([4]), np.asarray([0.5]), np.asarray([7]),
             np.asarray([0.9])),
            (np.asarray([4, 4]), np.asarray([0.25, 0.5]), np.asarray([3, 1]),
             np.asarray([0.3, 1.2])),
            (np.asarray([4]), np.asarray([0.5]), np.asarray([5]),
             np.asarray([1.5])),
        ]
        log = record_all(batches)
        assert_log_equals_reference(log, batches)
        np.testing.assert_array_equal(log.merged()[2], [3, 7, 1, 5])

    def test_run_without_the_instance_adds_no_backlog(self):
        # A run busy until t=9 at instance 1 holds nothing at instance 2:
        # a visit there queues behind instance 2's own history only.
        log = _History(span=SPAN, size=SIZE)
        runs = (([2], [0.1], [0.4]), ([1, 1], [0.0, 0.2], [8.0, 9.0]))
        for inst, t, dep in runs:
            inst = np.asarray(inst, dtype=np.uint16)
            t, dep = np.asarray(t), np.asarray(dep)
            log.record(log.key_of(inst, t), inst, t, np.arange(t.size), dep)
        assert not log.runs[1].seen[2]
        inst = np.asarray([2, 2, 3], dtype=np.uint16)
        t = np.asarray([0.05, 0.3, 0.3])
        np.testing.assert_array_equal(
            log.waits(log.key_of(inst, t), inst, t), [0.0, 0.4 - 0.3, 0.0]
        )

    def test_rounded_key_tie_breaks_on_time(self):
        # At a high instance id, inst * span + t rounds two distinct
        # times to one key; the log still orders them by time.
        high = np.asarray([60_000], dtype=np.uint16)
        early = np.asarray([0.5])
        late = np.nextafter(early, 1.0)
        log = _History(span=SPAN, size=SIZE)
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
        m_inst, _, m_pkt = log.merged()
        np.testing.assert_array_equal(m_pkt[m_inst == 60_000], [1, 3, 0, 4])
        # A stable sort on the float key alone would have kept it first.
        keys = log.key_of(high, np.concatenate([late, early]))
        assert np.argsort(keys, kind="stable").tolist() == [0, 1]

    def test_rounded_key_tie_in_two_runs_merges_on_time(self):
        # The two visits of a rounded-key tie sit in different runs, the
        # later time swept first: only the merge's tie fix-up orders them.
        high = np.asarray([60_000], dtype=np.uint16)
        early = np.asarray([0.5])
        late = np.nextafter(early, 1.0)
        batches = [
            (high, late, np.asarray([0]), np.asarray([0.9])),
            (high, early, np.asarray([1]), np.asarray([0.6])),
        ]
        log = record_all(batches)
        assert log.runs[0].keys[0] == log.runs[1].keys[0]
        assert_log_equals_reference(log, batches)
        np.testing.assert_array_equal(log.merged()[2], [1, 0])
        # The early visit sees no backlog from the late one.
        np.testing.assert_array_equal(
            log.runs[0].rank(log.runs[1].keys, high, early), [0]
        )


class TestSegmentedMax:
    def test_uneven_segments_match_per_segment_accumulate(self):
        rng = np.random.default_rng(8)
        lengths = [1, 2, 1, 57, 2, 1, 300, 3]
        seg = np.repeat(np.arange(len(lengths)) * 3 % 5, lengths)
        values = rng.normal(size=seg.size)
        values[[0, 5, 70, 200]] = [np.inf, -np.inf, -np.inf, np.inf]
        values[3:5] = -np.inf
        got = segmented_maximum_accumulate(values, seg)
        bounds = np.cumsum([0] + lengths)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            np.testing.assert_array_equal(
                got[lo:hi], np.maximum.accumulate(values[lo:hi])
            )

    def test_empty_and_singletons(self):
        assert segmented_maximum_accumulate(np.empty(0), np.empty(0)).size == 0
        v = np.asarray([3.0, -np.inf, 1.0])
        np.testing.assert_array_equal(
            segmented_maximum_accumulate(v, np.arange(3)), v
        )


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
        keys = local * SPAN + t
        for kind in (None, "stable"):
            np.testing.assert_array_equal(
                visit_order(keys, local, t, kind), np.lexsort((t, inst))
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
            visit_order(local * SPAN + t, local, t), np.lexsort((t, inst))
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
        # At one instance the sweep order is a stable argsort on time.
        rng = np.random.default_rng(2)
        for n in (0, 1, 2, 50, 1000):
            for distinct in (1, 3, 10**9):
                v = rng.integers(0, distinct, n).astype(np.float64)
                np.testing.assert_array_equal(
                    visit_order(v, np.zeros(n, dtype=np.uint8), v),
                    np.argsort(v, kind="stable"),
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
