"""Unit tests for the event queue and simulation engine."""

import pytest

from repro.exceptions import SimulationError
from repro.sim.engine import SimulationEngine
from repro.sim.events import EventQueue


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        order = []
        q.push(2.0, lambda: order.append("b"))
        q.push(1.0, lambda: order.append("a"))
        q.push(3.0, lambda: order.append("c"))
        while q:
            q.pop().action()
        assert order == ["a", "b", "c"]

    def test_fifo_for_equal_times(self):
        q = EventQueue()
        order = []
        q.push(1.0, lambda: order.append("first"))
        q.push(1.0, lambda: order.append("second"))
        q.pop().action()
        q.pop().action()
        assert order == ["first", "second"]

    def test_peek(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.push(5.0, lambda: None)
        assert q.peek_time() == 5.0

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().push(-1.0, lambda: None)

    def test_len(self):
        q = EventQueue()
        q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        assert len(q) == 2


class TestSimulationEngine:
    def test_clock_advances(self):
        engine = SimulationEngine()
        times = []
        engine.schedule(1.0, lambda: times.append(engine.now))
        engine.schedule(2.5, lambda: times.append(engine.now))
        engine.run()
        assert times == [1.0, 2.5]
        assert engine.now == 2.5

    def test_run_until_horizon(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(5.0, lambda: fired.append(5))
        engine.run(until=3.0)
        assert fired == [1]
        assert engine.now == 3.0

    def test_event_at_horizon_not_dispatched(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(3.0, lambda: fired.append(3))
        engine.run(until=3.0)
        assert fired == []

    def test_schedule_in(self):
        engine = SimulationEngine()
        times = []

        def chain():
            times.append(engine.now)
            if len(times) < 3:
                engine.schedule_in(1.0, chain)

        engine.schedule_in(1.0, chain)
        engine.run(until=10.0)
        assert times == [1.0, 2.0, 3.0]

    def test_events_spawned_during_run(self):
        engine = SimulationEngine()
        log = []
        engine.schedule(1.0, lambda: engine.schedule_in(0.5, lambda: log.append(engine.now)))
        engine.run()
        assert log == [1.5]

    def test_past_scheduling_rejected(self):
        engine = SimulationEngine()
        engine.schedule(1.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            SimulationEngine().schedule_in(-1.0, lambda: None)

    def test_rounding_noise_near_now_clamped_not_rejected(self):
        # On long horizons float arithmetic produces times a few ULP
        # before `now`; the guard is relative, so these clamp to `now`.
        engine = SimulationEngine()
        engine.schedule(1e9, lambda: None)
        engine.run()
        fired = []
        engine.schedule(1e9 - 1e-5, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [1e9]

    def test_genuinely_past_time_still_rejected_on_long_horizon(self):
        engine = SimulationEngine()
        engine.schedule(1e9, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule(1e9 - 1.0, lambda: None)
