"""Simulation entities: packets, FCFS exponential servers, Poisson sources.

A :class:`SimServer` models one service instance: a single exponential
server with an unbounded FCFS buffer — the M/M/1 station of the analytic
model, but measured instead of solved.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional

import numpy as np

from repro.exceptions import SimulationError
from repro.sim.engine import SimulationEngine


@dataclass
class SimPacket:
    """One packet of a request's stream."""

    request_id: str
    created_at: float
    #: Index of the next chain hop to visit.
    hop: int = 0
    #: End-to-end transmission attempts so far (1 = first try).
    attempts: int = 1
    #: Arrival time at the current server (set on enqueue).
    arrived_at: float = 0.0


class SimServer:
    """A single-server FCFS queue with exponential service times.

    Parameters
    ----------
    engine:
        The simulation engine providing the clock.
    service_rate:
        Exponential rate ``mu`` (packets/s).
    rng:
        Seeded generator used for service-time draws.
    on_departure:
        Callback ``(packet, sojourn_time)`` invoked at each service
        completion; the chain simulator uses it to route the packet to
        its next hop.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        service_rate: float,
        rng: np.random.Generator,
        on_departure: Callable[[SimPacket, float], None],
    ) -> None:
        if service_rate <= 0.0:
            raise SimulationError(
                f"service rate must be positive, got {service_rate!r}"
            )
        self._engine = engine
        self._mu = service_rate
        self._rng = rng
        self._on_departure = on_departure
        self._buffer: Deque[SimPacket] = deque()
        self._busy = False
        # Measurement accumulators.
        self.arrivals = 0
        self.departures = 0
        self.busy_time = 0.0
        self.total_sojourn = 0.0
        self._busy_since: Optional[float] = None

    def enqueue(self, packet: SimPacket) -> None:
        """Packet arrival: serve immediately if idle, else buffer FCFS."""
        packet.arrived_at = self._engine.now
        self.arrivals += 1
        if not self._busy:
            self._start_service(packet)
        else:
            self._buffer.append(packet)

    def _start_service(self, packet: SimPacket) -> None:
        self._busy = True
        if self._busy_since is None:
            self._busy_since = self._engine.now
        service_time = float(self._rng.exponential(1.0 / self._mu))
        self._engine.schedule_in(service_time, lambda: self._complete(packet))

    def _complete(self, packet: SimPacket) -> None:
        sojourn = self._engine.now - packet.arrived_at
        self.departures += 1
        self.total_sojourn += sojourn
        if self._buffer:
            self._start_service(self._buffer.popleft())
        else:
            self._busy = False
            if self._busy_since is not None:
                self.busy_time += self._engine.now - self._busy_since
                self._busy_since = None
        self._on_departure(packet, sojourn)

    def finalize(self, at_time: float) -> None:
        """Close the busy-time accumulator at the end of a run."""
        if self._busy and self._busy_since is not None:
            self.busy_time += at_time - self._busy_since
            self._busy_since = self._engine.now if self._busy else None

    def mean_sojourn(self) -> float:
        """Measured mean response time over completed services."""
        if self.departures == 0:
            return 0.0
        return self.total_sojourn / self.departures

    def measured_utilization(self, elapsed: float) -> float:
        """Fraction of elapsed time the server was busy."""
        if elapsed <= 0.0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)


class PoissonSource:
    """Generates a request's Poisson packet stream into a sink callback."""

    def __init__(
        self,
        engine: SimulationEngine,
        request_id: str,
        rate: float,
        rng: np.random.Generator,
        emit: Callable[[SimPacket], None],
    ) -> None:
        if rate <= 0.0:
            raise SimulationError(f"arrival rate must be positive, got {rate!r}")
        self._engine = engine
        self._request_id = request_id
        self._rate = rate
        self._rng = rng
        self._emit = emit
        self.generated = 0

    def start(self) -> None:
        """Schedule the first arrival."""
        self._schedule_next()

    def _schedule_next(self) -> None:
        gap = float(self._rng.exponential(1.0 / self._rate))
        self._engine.schedule_in(gap, self._fire)

    def _fire(self) -> None:
        self.generated += 1
        packet = SimPacket(
            request_id=self._request_id, created_at=self._engine.now
        )
        self._emit(packet)
        self._schedule_next()
