"""The trace backend: analytic convergence, parity with events, edges.

Three layers of evidence, mirroring docs/SIM_BACKENDS.md:

* the trace backend passes the same Jackson-convergence checks (same
  scenarios, same tolerances) as the event backend's
  ``test_sim_vs_analytic.py``;
* its end-to-end latency *distribution* matches the event backend's
  (two-sample KS statistic — the backends agree in distribution, not
  sample by sample);
* edge cases (idle instance, ``warmup == 0``, ``nack_delay > 0``) are
  asserted identically on both backends;
* the backend is the column simulator: its counts and instance
  statistics equal ``simulate_columns`` on the same arrays.
"""

import numpy as np
import pytest

from repro.core.arrays import ScenarioArrays
from repro.exceptions import ValidationError
from repro.nfv.chain import ServiceChain
from repro.nfv.request import Request
from repro.nfv.vnf import VNF
from repro.queueing.jackson import ChainFeedbackModel
from repro.queueing.mm1 import MM1Queue
from repro.sim.scale import simulate_columns
from repro.sim.simulator import BACKENDS, ChainSimulator, SimulationConfig

LONG = SimulationConfig(duration=2000.0, warmup=200.0, seed=123)


def _simulate(rate, mus, p=1.0, config=LONG, backend="trace"):
    vnfs = [VNF(f"v{i}", 1.0, 1, mu) for i, mu in enumerate(mus)]
    chain = ServiceChain([f.name for f in vnfs])
    request = Request("r0", chain, rate, delivery_probability=p)
    schedule = {("r0", f.name): 0 for f in vnfs}
    return ChainSimulator(vnfs, [request], schedule, config, backend=backend).run()


class TestAnalyticConvergence:
    """Same scenarios and tolerances as the event-backend suite."""

    def test_mm1_sojourn(self):
        metrics = _simulate(rate=40.0, mus=[100.0])
        analytic = MM1Queue(40.0, 100.0)
        assert metrics.instance("v0", 0).mean_sojourn == pytest.approx(
            analytic.mean_response_time, rel=0.08
        )

    def test_mm1_utilization(self):
        metrics = _simulate(rate=40.0, mus=[100.0])
        assert metrics.instance("v0", 0).utilization == pytest.approx(
            0.4, abs=0.03
        )

    def test_high_load_sojourn(self):
        metrics = _simulate(rate=80.0, mus=[100.0])
        analytic = MM1Queue(80.0, 100.0)
        assert metrics.instance("v0", 0).mean_sojourn == pytest.approx(
            analytic.mean_response_time, rel=0.20
        )

    def test_tandem_end_to_end_latency(self):
        metrics = _simulate(rate=30.0, mus=[90.0, 70.0])
        expected = 1.0 / (90.0 - 30.0) + 1.0 / (70.0 - 30.0)
        assert metrics.mean_end_to_end() == pytest.approx(expected, rel=0.10)

    def test_feedback_effective_utilization(self):
        p = 0.8
        metrics = _simulate(rate=30.0, mus=[100.0], p=p)
        assert metrics.instance("v0", 0).utilization == pytest.approx(
            30.0 / (p * 100.0), abs=0.04
        )

    def test_feedback_per_pass_sojourn(self):
        p = 0.9
        rate, mu = 30.0, 100.0
        metrics = _simulate(rate=rate, mus=[mu], p=p)
        assert metrics.instance("v0", 0).mean_sojourn == pytest.approx(
            1.0 / (mu - rate / p), rel=0.10
        )

    def test_chain_feedback_model_agreement(self):
        p = 0.9
        metrics = _simulate(rate=25.0, mus=[80.0, 60.0], p=p)
        model = ChainFeedbackModel(
            external_rate=25.0,
            service_rates=[80.0, 60.0],
            delivery_probability=p,
        )
        assert metrics.mean_end_to_end() == pytest.approx(
            model.total_response_time(), rel=0.12
        )


def _ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic, plain numpy."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def _ks_bound(n, m, safety=2.0):
    """alpha=0.05 two-sample KS critical value, times a safety factor."""
    return safety * 1.36 * np.sqrt((n + m) / (n * m))


class TestDistributionalParity:
    def test_mm1_end_to_end_distribution_matches_events(self):
        # Single station, no loss: the trace backend's replay is exact
        # in distribution, so both latency samples come from the same
        # stationary law.
        kwargs = dict(rate=40.0, mus=[100.0])
        ev = _simulate(backend="events", **kwargs).end_to_end["r0"]
        tr = _simulate(backend="trace", **kwargs).end_to_end["r0"]
        stat = _ks_statistic(ev, tr)
        assert stat < _ks_bound(len(ev), len(tr))

    def test_feedback_chain_distribution_close(self):
        # Tandem + loss feedback exercises the approximation layer;
        # allow a wider (but still tight) distributional margin.
        kwargs = dict(rate=25.0, mus=[80.0, 60.0], p=0.9)
        ev = _simulate(backend="events", **kwargs).end_to_end["r0"]
        tr = _simulate(backend="trace", **kwargs).end_to_end["r0"]
        stat = _ks_statistic(ev, tr)
        assert stat < _ks_bound(len(ev), len(tr), safety=4.0)


def _shared_scenario():
    """Two requests; VNF 'fw' has a second, never-scheduled instance."""
    vnf = VNF("fw", 1.0, 2, 200.0)
    chain = ServiceChain(["fw"])
    requests = [Request("a", chain, 30.0), Request("b", chain, 40.0)]
    schedule = {("a", "fw"): 0, ("b", "fw"): 0}
    return [vnf], requests, schedule


@pytest.mark.parametrize("backend", BACKENDS)
class TestEdgeCasesBothBackends:
    def test_zero_traffic_instance_reports_zeros(self, backend):
        vnfs, requests, schedule = _shared_scenario()
        metrics = ChainSimulator(
            vnfs, requests, schedule,
            SimulationConfig(duration=50.0, warmup=5.0, seed=17),
            backend=backend,
        ).run()
        idle = metrics.instance("fw", 1)
        assert idle.arrivals == 0
        assert idle.departures == 0
        assert idle.mean_sojourn == 0.0
        assert idle.utilization == 0.0
        assert metrics.instance("fw", 0).arrivals > 0

    def test_zero_warmup_counts_from_time_origin(self, backend):
        vnfs, requests, schedule = _shared_scenario()
        metrics = ChainSimulator(
            vnfs, requests, schedule,
            SimulationConfig(duration=50.0, warmup=0.0, seed=17),
            backend=backend,
        ).run()
        # With no warmup every generated packet is measurable; only
        # horizon truncation can hold deliveries below generation.
        assert 0 < metrics.total_delivered <= metrics.generated
        assert len(metrics.end_to_end["a"]) == metrics.delivered["a"]

    def test_nack_delay_inflates_latency(self, backend):
        vnfs = [VNF("v0", 1.0, 1, 100.0)]
        request = Request(
            "r0", ServiceChain(["v0"]), 30.0, delivery_probability=0.7
        )
        schedule = {("r0", "v0"): 0}

        def run(nack_delay):
            return ChainSimulator(
                vnfs, [request], schedule,
                SimulationConfig(
                    duration=300.0, warmup=30.0, seed=6, nack_delay=nack_delay
                ),
                backend=backend,
            ).run()

        assert run(0.5).mean_end_to_end() > run(0.0).mean_end_to_end()


class TestBackendPlumbing:
    def test_unknown_backend_rejected(self):
        vnfs, requests, schedule = _shared_scenario()
        with pytest.raises(ValidationError):
            ChainSimulator(vnfs, requests, schedule, backend="quantum")

    def test_trace_run_is_deterministic(self):
        vnfs, requests, schedule = _shared_scenario()
        cfg = SimulationConfig(duration=100.0, warmup=10.0, seed=42)
        runs = [
            ChainSimulator(
                vnfs, requests, schedule, cfg, backend="trace"
            ).run()
            for _ in range(2)
        ]
        assert runs[0].delivered == runs[1].delivered
        assert runs[0].end_to_end == runs[1].end_to_end
        assert [s.utilization for s in runs[0].instances] == [
            s.utilization for s in runs[1].instances
        ]

    def test_generated_counts_match_between_backends(self):
        # Same scenario on both backends: fresh arrivals are Poisson
        # with identical rate/horizon, so counts agree closely though
        # the streams differ.
        vnfs, requests, schedule = _shared_scenario()
        cfg = SimulationConfig(duration=200.0, warmup=20.0, seed=5)
        ev = ChainSimulator(
            vnfs, requests, schedule, cfg, backend="events"
        ).run()
        tr = ChainSimulator(
            vnfs, requests, schedule, cfg, backend="trace"
        ).run()
        assert tr.generated == pytest.approx(ev.generated, rel=0.10)


class TestColumnRoute:
    """``backend="trace"`` is ``simulate_columns`` on the same arrays,
    reshaped: every count and instance statistic matches exactly."""

    @staticmethod
    def _scenario():
        vnfs = [
            VNF("fw", 1.0, 2, 120.0),
            VNF("nat", 1.0, 1, 150.0),
            VNF("ids", 1.0, 2, 90.0),
        ]
        requests = [
            Request("a", ServiceChain(["fw", "nat", "ids"]), 20.0, 0.8),
            Request("b", ServiceChain(["nat", "fw"]), 15.0, 0.9),
            Request("c", ServiceChain(["ids"]), 25.0, 0.7),
            Request("d", ServiceChain(["fw", "ids"]), 10.0, 1.0),
        ]
        schedule = {
            ("a", "fw"): 0, ("a", "nat"): 0, ("a", "ids"): 1,
            ("b", "nat"): 0, ("b", "fw"): 1,
            ("c", "ids"): 0,
            ("d", "fw"): 0, ("d", "ids"): 1,
        }
        return vnfs, requests, schedule

    def test_matches_simulate_columns(self):
        vnfs, requests, schedule = self._scenario()
        cfg = SimulationConfig(
            duration=80.0, warmup=8.0, nack_delay=0.02, seed=31
        )
        got = ChainSimulator(
            vnfs, requests, schedule, cfg, backend="trace"
        ).run()
        arrays = ScenarioArrays.build(vnfs, requests, {})
        ref = simulate_columns(arrays, arrays.schedule_arrays(schedule), cfg)

        rids = arrays.request_ids
        assert got.generated == ref.generated
        assert got.delivered == dict(zip(rids, ref.delivered.tolist()))
        assert got.retransmitted == dict(
            zip(rids, ref.retransmitted.tolist())
        )
        assert sum(got.retransmitted.values()) > 0
        keys = [(f.name, k) for f in vnfs for k in range(f.num_instances)]
        assert [s.key for s in got.instances] == keys
        for i, stats in enumerate(got.instances):
            assert stats.arrivals == ref.instance_arrivals[i]
            assert stats.departures == ref.instance_departures[i]
            assert stats.mean_sojourn == ref.instance_mean_sojourn[i]
            assert stats.utilization == ref.instance_utilization[i]
        for i, rid in enumerate(rids):
            assert len(got.end_to_end[rid]) == got.delivered[rid]
            assert sum(got.end_to_end[rid]) == pytest.approx(
                ref.latency_sum[i], rel=1e-12
            )

    def test_schedule_entries_off_the_chains_are_ignored(self):
        vnfs, requests, schedule = self._scenario()
        cfg = SimulationConfig(duration=20.0, warmup=2.0, seed=5)
        extra = {**schedule, ("c", "fw"): 1, ("ghost", "nat"): 0}
        runs = [
            ChainSimulator(vnfs, requests, s, cfg, backend="trace").run()
            for s in (schedule, extra)
        ]
        assert runs[0] == runs[1]
