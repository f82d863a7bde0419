"""Unit tests for SLA spell integration (``repro.faults.sla``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.faults.sla import ResilienceReport, SLASpec, SLATracker


class FakeEngine:
    """A stand-in exposing only ``request_response_times``."""

    def __init__(self, latencies):
        self.latencies = np.asarray(latencies, dtype=float)
        self.calls = 0

    def request_response_times(self, link_latency=0.0):
        self.calls += 1
        ids = tuple(f"r{i}" for i in range(len(self.latencies)))
        return ids, self.latencies


class TestSLASpec:
    @pytest.mark.parametrize("threshold", [0.0, -1.0])
    def test_bad_latency_threshold(self, threshold):
        with pytest.raises(ValidationError, match="latency_threshold"):
            SLASpec(latency_threshold=threshold)

    def test_bad_check_every(self):
        with pytest.raises(ValidationError, match="check_every"):
            SLASpec(check_every=0)

    def test_defaults_accepted(self):
        spec = SLASpec()
        assert spec.latency_threshold is None


class TestSpellIntegration:
    def test_recovery_spell_and_rejection_spell(self):
        tracker = SLATracker(SLASpec())
        tracker.on_arrival("a", 0.0)
        tracker.on_arrival("b", 0.0)
        tracker.on_reject("b", 0.0)
        tracker.on_evict("a", 10.0)
        tracker.on_readmit("a", 15.0)
        tracker.on_departure("a", 20.0)
        tracker.on_departure("b", 30.0)
        report = tracker.finish(30.0)
        # Demanded: a 20s + b 30s.  Downtime: a's 5s eviction spell +
        # b's 30s rejected lifetime.
        assert report.demanded_seconds == 50.0
        assert report.downtime_seconds == 35.0
        assert report.availability == pytest.approx(15.0 / 50.0)
        assert report.recovery_spells == [5.0]
        assert report.readmissions == 1
        assert report.evictions == 1
        assert report.lost == 0
        assert report.mean_recovery_spell == 5.0

    def test_departed_while_pending_counts_as_lost(self):
        tracker = SLATracker(SLASpec())
        tracker.on_arrival("a", 0.0)
        tracker.on_evict("a", 4.0)
        tracker.on_departure("a", 10.0)
        report = tracker.finish(10.0)
        assert report.lost == 1
        assert report.readmissions == 0
        assert report.downtime_seconds == 6.0
        assert report.recovery_spells == []

    def test_finish_clips_open_spells_to_horizon(self):
        tracker = SLATracker(SLASpec())
        tracker.on_arrival("a", 2.0)
        tracker.on_evict("a", 10.0)
        report = tracker.finish(20.0)
        assert report.demanded_seconds == 18.0
        assert report.downtime_seconds == 10.0
        # Clipped at the horizon: neither re-admitted nor lost.
        assert report.readmissions == 0
        assert report.lost == 0

    def test_readmit_without_open_spell_is_a_noop(self):
        tracker = SLATracker(SLASpec())
        tracker.on_readmit("ghost", 5.0)
        report = tracker.finish(10.0)
        assert report.downtime_seconds == 0.0
        assert report.readmissions == 0

    def test_availability_with_no_demand_is_one(self):
        report = SLATracker(SLASpec()).finish(100.0)
        assert report.availability == 1.0


class TestLatencyIntegration:
    def test_step_integration(self):
        tracker = SLATracker(SLASpec(latency_threshold=1.0))
        engine = FakeEngine([2.0, 0.5])
        tracker.sample_latency(0.0, engine)
        # One chain violating, held constant over [0, 10).
        engine.latencies = np.array([0.5, 0.5])
        tracker.sample_latency(10.0, engine)
        report = tracker.finish(20.0, engine)
        assert report.violation_seconds == 10.0
        assert report.violation_minutes == pytest.approx(10.0 / 60.0)

    def test_check_every_skips_samples_unless_forced(self):
        tracker = SLATracker(
            SLASpec(latency_threshold=1.0, check_every=3)
        )
        engine = FakeEngine([2.0])
        tracker.sample_latency(0.0, engine)
        tracker.sample_latency(1.0, engine)
        assert engine.calls == 0
        tracker.sample_latency(2.0, engine)
        assert engine.calls == 1
        tracker.sample_latency(3.0, engine, force=True)
        assert engine.calls == 2

    def test_disabled_without_threshold(self):
        tracker = SLATracker(SLASpec())
        engine = FakeEngine([100.0])
        tracker.sample_latency(0.0, engine)
        tracker.sample_latency(50.0, engine)
        report = tracker.finish(50.0, engine)
        assert engine.calls == 0
        assert report.violation_seconds == 0.0


class TestResilienceReport:
    def test_served_seconds_never_negative(self):
        report = ResilienceReport(
            demanded_seconds=5.0, downtime_seconds=9.0
        )
        assert report.served_seconds == 0.0
        assert report.availability == 0.0
