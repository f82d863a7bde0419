"""Unit tests for simulation servers and sources."""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.sim.engine import SimulationEngine
from repro.sim.entities import PoissonSource, SimPacket, SimServer


class TestSimServer:
    def _server(self, mu=10.0, seed=0):
        engine = SimulationEngine()
        departures = []
        server = SimServer(
            engine=engine,
            service_rate=mu,
            rng=np.random.default_rng(seed),
            on_departure=lambda p, s: departures.append((p, s)),
        )
        return engine, server, departures

    def test_serves_single_packet(self):
        engine, server, departures = self._server()
        server.enqueue(SimPacket(request_id="r0", created_at=0.0))
        engine.run()
        assert len(departures) == 1
        assert server.departures == 1

    def test_fcfs_order(self):
        engine, server, departures = self._server()
        for i in range(3):
            server.enqueue(SimPacket(request_id=f"r{i}", created_at=0.0))
        engine.run()
        assert [p.request_id for p, _ in departures] == ["r0", "r1", "r2"]

    def test_busy_time_accumulates(self):
        engine, server, _ = self._server()
        server.enqueue(SimPacket(request_id="r0", created_at=0.0))
        final = engine.run()
        server.finalize(final)
        assert 0.0 < server.busy_time <= final + 1e-12

    def test_sojourn_includes_waiting(self):
        engine, server, departures = self._server()
        server.enqueue(SimPacket(request_id="a", created_at=0.0))
        server.enqueue(SimPacket(request_id="b", created_at=0.0))
        engine.run()
        # Second packet waited for the first: its sojourn is longer.
        assert departures[1][1] > departures[0][1] or departures[1][1] >= 0.0
        assert server.mean_sojourn() > 0.0

    def test_invalid_rate(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            SimServer(engine, 0.0, np.random.default_rng(0), lambda p, s: None)

    def test_utilization_bounded(self):
        engine, server, _ = self._server()
        for i in range(50):
            server.enqueue(SimPacket(request_id=f"r{i}", created_at=0.0))
        final = engine.run()
        server.finalize(final)
        assert 0.0 < server.measured_utilization(final) <= 1.0


class TestPoissonSource:
    def test_generates_at_rate(self):
        engine = SimulationEngine()
        packets = []
        source = PoissonSource(
            engine=engine,
            request_id="r0",
            rate=100.0,
            rng=np.random.default_rng(7),
            emit=packets.append,
        )
        source.start()
        engine.run(until=50.0)
        # 100 pps over 50 s -> ~5000 packets; allow 10% tolerance.
        assert 4500 <= len(packets) <= 5500
        assert source.generated == len(packets)

    def test_packets_carry_request_id_and_time(self):
        engine = SimulationEngine()
        packets = []
        PoissonSource(
            engine, "rx", 10.0, np.random.default_rng(1), packets.append
        ).start()
        engine.run(until=5.0)
        assert all(p.request_id == "rx" for p in packets)
        created = [p.created_at for p in packets]
        assert created == sorted(created)

    def test_invalid_rate(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            PoissonSource(engine, "r", 0.0, np.random.default_rng(0), lambda p: None)
