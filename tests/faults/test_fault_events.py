"""Unit tests for seeded failure-event streams (``repro.faults.events``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.faults.events import (
    FaultEvent,
    _KIND_PRIORITY,
    failure_events,
    merge_timeline,
)
from repro.serve.events import ChurnEvent

NODES = ("n0", "n1", "n2", "n3")


def _stream(seed=7, **kwargs):
    params = dict(duration=1000.0, mtbf=120.0, mttr=30.0)
    params.update(kwargs)
    return failure_events(
        NODES, rng=np.random.default_rng(seed), **params
    )


class TestFailureEvents:
    def test_same_seed_same_timeline(self):
        assert _stream(7) == _stream(7)

    def test_different_seed_different_timeline(self):
        assert _stream(7) != _stream(8)

    def test_events_within_horizon_and_sorted(self):
        events = _stream()
        assert events
        times = [e.time for e in events]
        assert times == sorted(times)
        assert all(0.0 <= t < 1000.0 for t in times)
        assert {e.kind for e in events} <= {"node_down", "node_up"}

    def test_per_node_events_alternate_down_up(self):
        events = _stream()
        for node in NODES:
            kinds = [e.kind for e in events if e.node == node]
            # Strict alternation starting with a crash; a final repair
            # may be clipped by the horizon.
            for i, kind in enumerate(kinds):
                expected = "node_down" if i % 2 == 0 else "node_up"
                assert kind == expected

    def test_rack_windows_crash_every_member(self):
        # A rack that fails almost surely within the horizon, node
        # processes that almost surely never do.
        events = failure_events(
            NODES,
            duration=100.0,
            mtbf=1e9,
            mttr=10.0,
            rng=np.random.default_rng(3),
            racks=[NODES[:2]],
            rack_mtbf=10.0,
            rack_mttr=20.0,
        )
        downs = {e.node for e in events if e.kind == "node_down"}
        assert downs == {"n0", "n1"}
        # Correlated: the first crash hits both members at one time.
        first = [e for e in events if e.kind == "node_down"][:2]
        assert first[0].time == first[1].time

    def test_unknown_rack_member_rejected(self):
        with pytest.raises(ValidationError, match="not in nodes"):
            failure_events(
                NODES,
                duration=100.0,
                mtbf=10.0,
                mttr=5.0,
                racks=[("n0", "ghost")],
            )

    @pytest.mark.parametrize(
        "bad", [dict(duration=0.0), dict(mtbf=0.0), dict(mttr=-1.0)]
    )
    def test_bad_process_parameters_rejected(self, bad):
        with pytest.raises(ValidationError):
            _stream(**bad)

    def test_no_nodes_rejected(self):
        with pytest.raises(ValidationError, match="at least one node"):
            failure_events((), duration=10.0, mtbf=1.0, mttr=1.0)


class TestMergeTimeline:
    def test_total_order_at_equal_times(self):
        churn = [
            ChurnEvent(time=5.0, kind="departure", request_id="r0"),
            ChurnEvent(time=5.0, kind="arrival", request_id="r1"),
        ]
        faults = [
            FaultEvent(time=5.0, kind="node_down", node="n0"),
            FaultEvent(time=5.0, kind="node_up", node="n1"),
        ]
        merged = merge_timeline(churn, faults)
        assert [e.kind for e in merged] == [
            "node_up", "node_down", "arrival", "departure",
        ]

    def test_stable_within_kind(self):
        a = FaultEvent(time=1.0, kind="node_down", node="a")
        b = FaultEvent(time=1.0, kind="node_down", node="b")
        assert merge_timeline([a], [b]) == [a, b]
        assert merge_timeline([b], [a]) == [b, a]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="unknown event kind"):
            merge_timeline([ChurnEvent(time=0.0, kind="boom",
                                       request_id="x")])

    def test_priorities_cover_both_event_families(self):
        assert set(_KIND_PRIORITY) == {
            "node_up", "instance_up", "node_down", "instance_down",
            "arrival", "departure",
        }
