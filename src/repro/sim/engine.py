"""The simulation clock and dispatch loop."""

from __future__ import annotations

from typing import Callable, Optional

from repro.exceptions import SimulationError
from repro.sim.events import EventQueue


class SimulationEngine:
    """Advances simulated time by dispatching events in order.

    Components schedule callbacks with :meth:`schedule` (absolute time)
    or :meth:`schedule_in` (relative delay); :meth:`run` dispatches until
    the horizon or until the queue drains.
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._running = False

    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    def schedule(self, time: float, action: Callable[[], None]) -> None:
        """Schedule ``action`` at absolute time ``time`` (>= now).

        Times a hair before ``now`` are clamped to ``now`` rather than
        rejected, with a slack *relative* to the clock: float arithmetic
        on long horizons (``now >> 1``) loses absolute precision, so an
        absolute epsilon would misclassify rounding noise as genuine
        past-scheduling (or vice versa) once ``now`` is large.
        """
        tolerance = 1e-12 * max(1.0, abs(self._now))
        if time < self._now - tolerance:
            raise SimulationError(
                f"cannot schedule into the past: {time:.6g} < now={self._now:.6g}"
            )
        self._queue.push(max(time, self._now), action)

    def schedule_in(self, delay: float, action: Callable[[], None]) -> None:
        """Schedule ``action`` after ``delay`` seconds."""
        if delay < 0.0:
            raise SimulationError(f"delay must be non-negative, got {delay!r}")
        self._queue.push(self._now + delay, action)

    def run(self, until: Optional[float] = None) -> float:
        """Dispatch events in order until ``until`` (or queue exhaustion).

        Returns the final simulated time.  Events scheduled exactly at
        the horizon are not dispatched (half-open interval).
        """
        if self._running:
            raise SimulationError("engine is already running (reentrant run)")
        self._running = True
        try:
            while self._queue:
                next_time = self._queue.peek_time()
                if until is not None and next_time is not None and next_time >= until:
                    break
                event = self._queue.pop()
                self._now = event.time
                event.action()
            if until is not None:
                self._now = max(self._now, until)
        finally:
            self._running = False
        return self._now
