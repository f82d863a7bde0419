"""Model validation: the simulator converges to the Jackson closed forms.

These are the abl-jackson checks of DESIGN.md — the paper's analytic
model (Section III-B) and our packet-level simulator must agree within
Monte-Carlo tolerance.
"""

import functools

import pytest

from repro.nfv.chain import ServiceChain
from repro.nfv.request import Request
from repro.nfv.vnf import VNF
from repro.queueing.jackson import ChainFeedbackModel
from repro.queueing.mm1 import MM1Queue
from repro.sim.simulator import ChainSimulator, SimulationConfig

LONG = SimulationConfig(duration=2000.0, warmup=200.0, seed=123)


@functools.lru_cache(maxsize=None)
def _simulate(rate, mus, p=1.0, config=LONG):
    """One seeded run per distinct argument set; tests only read it."""
    vnfs = [VNF(f"v{i}", 1.0, 1, mu) for i, mu in enumerate(mus)]
    chain = ServiceChain([f.name for f in vnfs])
    request = Request("r0", chain, rate, delivery_probability=p)
    schedule = {("r0", f.name): 0 for f in vnfs}
    return ChainSimulator(vnfs, [request], schedule, config).run()


class TestSingleQueue:
    def test_mm1_sojourn(self):
        metrics = _simulate(rate=40.0, mus=(100.0,))
        analytic = MM1Queue(40.0, 100.0)
        measured = metrics.instance("v0", 0).mean_sojourn
        assert measured == pytest.approx(
            analytic.mean_response_time, rel=0.08
        )

    def test_mm1_utilization(self):
        metrics = _simulate(rate=40.0, mus=(100.0,))
        measured = metrics.instance("v0", 0).utilization
        assert measured == pytest.approx(0.4, abs=0.03)

    def test_high_load_sojourn(self):
        metrics = _simulate(rate=80.0, mus=(100.0,))
        analytic = MM1Queue(80.0, 100.0)
        measured = metrics.instance("v0", 0).mean_sojourn
        assert measured == pytest.approx(
            analytic.mean_response_time, rel=0.20
        )


class TestTandemChain:
    def test_end_to_end_latency(self):
        metrics = _simulate(rate=30.0, mus=(90.0, 70.0))
        expected = 1.0 / (90.0 - 30.0) + 1.0 / (70.0 - 30.0)
        assert metrics.mean_end_to_end() == pytest.approx(expected, rel=0.10)

    def test_per_stage_sojourns(self):
        metrics = _simulate(rate=30.0, mus=(90.0, 70.0))
        assert metrics.instance("v0", 0).mean_sojourn == pytest.approx(
            1.0 / 60.0, rel=0.10
        )
        assert metrics.instance("v1", 0).mean_sojourn == pytest.approx(
            1.0 / 40.0, rel=0.10
        )


class TestLossFeedback:
    def test_effective_utilization(self):
        # With P the station load is lambda/(P mu).
        p = 0.8
        metrics = _simulate(rate=30.0, mus=(100.0,), p=p)
        measured = metrics.instance("v0", 0).utilization
        assert measured == pytest.approx(30.0 / (p * 100.0), abs=0.04)

    def test_per_pass_sojourn_matches_paper_formula(self):
        # Per-pass W = 1/(mu - lambda/P); the paper's per-VNF E[T_i]
        # = W/P aggregates the 1/P passes.
        p = 0.9
        rate, mu = 30.0, 100.0
        metrics = _simulate(rate=rate, mus=(mu,), p=p)
        per_pass = metrics.instance("v0", 0).mean_sojourn
        assert per_pass == pytest.approx(
            1.0 / (mu - rate / p), rel=0.10
        )

    def test_chain_model_agreement(self):
        p = 0.9
        metrics = _simulate(rate=25.0, mus=(80.0, 60.0), p=p)
        model = ChainFeedbackModel(
            external_rate=25.0,
            service_rates=[80.0, 60.0],
            delivery_probability=p,
        )
        # Simulated end-to-end includes all passes; analytic E[T] via
        # Little's law over external arrivals equals sum_i E[T_i].
        assert metrics.mean_end_to_end() == pytest.approx(
            model.total_response_time(), rel=0.12
        )

    def test_lossy_tandem_chain(self):
        # The two-station tandem above with P=0.95: end to end within
        # 15% of the feedback model, each station at lambda / (P mu).
        rate, mus, p = 30.0, (90.0, 70.0), 0.95
        metrics = _simulate(
            rate=rate,
            mus=mus,
            p=p,
            config=SimulationConfig(duration=1500.0, warmup=150.0, seed=17),
        )
        model = ChainFeedbackModel(
            external_rate=rate, service_rates=mus, delivery_probability=p
        )
        assert metrics.mean_end_to_end() == pytest.approx(
            model.total_response_time(), rel=0.15
        )
        for i, mu in enumerate(mus):
            assert metrics.instance(f"v{i}", 0).utilization == pytest.approx(
                rate / (p * mu), abs=0.05
            )
