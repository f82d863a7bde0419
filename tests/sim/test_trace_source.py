"""Stress tests: a trace of MMPP or Poisson arrivals replayed into a SimServer."""

import numpy as np
import pytest

from repro.queueing.mm1 import MM1Queue
from repro.sim.engine import SimulationEngine
from repro.sim.entities import SimPacket, SimServer
from repro.workload.mmpp import MMPP2


class TestBurstinessStress:
    """MMPP/M/1 waits longer than the Poisson-equivalent M/M/1.

    This is the model-robustness boundary the paper's Jackson assumption
    lives on: with the same mean rate, burstier input means longer
    queues than the analytics predict.
    """

    def _measured_sojourn(self, arrival_times, mu, horizon, seed=0):
        engine = SimulationEngine()
        server = SimServer(
            engine=engine,
            service_rate=mu,
            rng=np.random.default_rng(seed),
            on_departure=lambda p, s: None,
        )
        for t in arrival_times:
            engine.schedule(
                float(t), lambda: server.enqueue(SimPacket("r0", engine.now))
            )
        engine.run(until=horizon)
        return server.mean_sojourn()

    def test_mmpp_waits_exceed_poisson_prediction(self):
        mmpp = MMPP2(
            rate_high=80.0, rate_low=5.0,
            switch_to_low=1.0, switch_to_high=1.0,
        )
        horizon = 2000.0
        trace = mmpp.sample_arrival_times(
            horizon, np.random.default_rng(10)
        )
        mu = mmpp.mean_rate / 0.7  # rho = 0.7 at the mean rate
        measured = self._measured_sojourn(trace, mu, horizon)
        analytic_poisson = MM1Queue(mmpp.mean_rate, mu).mean_response_time
        # Burstiness inflates the real sojourn well beyond the Poisson
        # closed form.
        assert measured > analytic_poisson * 1.3

    def test_poisson_trace_matches_prediction(self):
        from repro.workload.traces import poisson_arrival_times

        rate, horizon = 40.0, 2000.0
        trace = poisson_arrival_times(rate, horizon, np.random.default_rng(11))
        mu = rate / 0.7
        measured = self._measured_sojourn(trace, mu, horizon)
        analytic = MM1Queue(rate, mu).mean_response_time
        assert measured == pytest.approx(analytic, rel=0.15)
