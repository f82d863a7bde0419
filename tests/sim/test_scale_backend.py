"""Column-native simulation backend: kernel exactness + distributional
parity with the analytic M/M/1 model and the event backend."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.arrays import ScenarioArrays
from repro.exceptions import SimulationError
from repro.nfv.chain import ServiceChain
from repro.nfv.request import Request
from repro.nfv.vnf import VNF
from repro.scheduling.kernels import schedule_columns
from repro.sim.kernels import (
    lindley_departure_times,
    segmented_lindley,
    segmented_maximum_accumulate,
)
from repro.sim.scale import simulate_columns
from repro.sim.simulator import ChainSimulator, SimulationConfig
from repro.workload.stream import rescale_to_stability, stream_scenario


class TestSegmentedKernels:
    def test_segmented_cummax_exact(self):
        rng = np.random.default_rng(1)
        seg = np.sort(rng.integers(0, 40, size=3000))
        v = rng.normal(size=3000)
        got = segmented_maximum_accumulate(v, seg)
        for s in np.unique(seg):
            m = seg == s
            np.testing.assert_array_equal(
                got[m], np.maximum.accumulate(v[m]), err_msg=f"seg {s}"
            )

    def test_segmented_cummax_single_segment(self):
        v = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        got = segmented_maximum_accumulate(v, np.zeros(5, dtype=int))
        np.testing.assert_array_equal(got, np.maximum.accumulate(v))

    def test_segmented_lindley_matches_per_segment(self):
        rng = np.random.default_rng(2)
        seg = np.sort(rng.integers(0, 64, size=8000))
        t = rng.uniform(0.0, 50.0, size=8000)
        order = np.lexsort((t, seg))
        seg, A = seg[order], t[order]
        S = rng.exponential(0.05, size=8000)
        D = segmented_lindley(A, S, seg)
        for s in np.unique(seg):
            m = seg == s
            np.testing.assert_allclose(
                D[m], lindley_departure_times(A[m], S[m]),
                rtol=1e-9, err_msg=f"seg {s}",
            )

    def test_segmented_lindley_validation(self):
        with pytest.raises(SimulationError):
            segmented_lindley(
                np.zeros(3), np.zeros(2), np.zeros(3, dtype=int)
            )
        with pytest.raises(SimulationError):
            segmented_lindley(
                np.zeros(3), np.array([-1.0, 0.0, 0.0]),
                np.zeros(3, dtype=int),
            )
        assert segmented_lindley(
            np.empty(0), np.empty(0), np.empty(0, dtype=int)
        ).size == 0


def single_queue_scenario(lam=40.0, mu=100.0):
    vnf = VNF("fw", demand_per_instance=1.0, num_instances=1,
              service_rate=mu)
    chain = ServiceChain(["fw"])
    request = Request("r0", chain, lam)
    arrays = ScenarioArrays.build([vnf], [request], {"n0": 10.0})
    sched = schedule_columns(arrays, policy="least_loaded")
    return arrays, sched


class TestScaleBackend:
    def test_mm1_analytic_sojourn(self):
        # M/M/1 at rho = 0.4: W = 1 / (mu - lambda) = 1/60 s.
        arrays, sched = single_queue_scenario(lam=40.0, mu=100.0)
        metrics = simulate_columns(
            arrays, sched,
            SimulationConfig(duration=400.0, warmup=40.0, seed=3),
        )
        assert metrics.generated > 10_000
        assert metrics.total_delivered > 0
        assert metrics.mean_latency == pytest.approx(1.0 / 60.0, rel=0.10)
        # Utilization ~ rho.
        assert metrics.instance_utilization[0] == pytest.approx(0.4, abs=0.05)

    def test_throughput_matches_offered_load(self):
        arrays, sched = single_queue_scenario(lam=50.0, mu=200.0)
        metrics = simulate_columns(
            arrays, sched,
            SimulationConfig(duration=200.0, warmup=20.0, seed=5),
        )
        # Post-warmup deliveries over the full duration: ~lambda * 0.9.
        assert metrics.total_delivered / metrics.duration == pytest.approx(
            50.0 * (200.0 - 20.0) / 200.0, rel=0.08
        )

    def test_aggregates_track_event_backend(self):
        scn = stream_scenario(
            num_vnfs=6, num_nodes=8, num_requests=30,
            rng=np.random.default_rng(11), delivery_probability=0.97,
        )
        rescale_to_stability(scn, target=0.5)
        sched = schedule_columns(scn.arrays, policy="least_loaded")
        cfg = SimulationConfig(duration=60.0, warmup=6.0, seed=7)
        got = simulate_columns(scn.arrays, sched, cfg)

        from repro.workload.stream import materialize_requests

        requests = materialize_requests(scn)
        schedule = {}
        names = scn.arrays.vnf_names
        for r, f, k in zip(sched.req, sched.vnf, sched.k):
            schedule[
                (scn.arrays.request_ids[int(r)], names[int(f)])
            ] = int(k)
        ref = ChainSimulator(
            scn.vnfs, requests, schedule, cfg, backend="events"
        ).run()

        assert got.generated == pytest.approx(
            ref.generated, rel=0.05
        )
        ref_delivered = sum(ref.delivered.values())
        assert got.total_delivered == pytest.approx(ref_delivered, rel=0.05)
        ref_latencies = [
            x for latencies in ref.end_to_end.values() for x in latencies
        ]
        assert got.mean_latency == pytest.approx(
            float(np.mean(ref_latencies)), rel=0.15
        )

    def test_retransmission_and_nack_delay(self):
        arrays, sched = single_queue_scenario(lam=30.0, mu=150.0)
        # Force heavy loss so retransmissions occur.
        arrays.P_r[:] = 0.5
        arrays.eff_rate[:] = arrays.lambda_r / arrays.P_r
        metrics = simulate_columns(
            arrays, sched,
            SimulationConfig(
                duration=100.0, warmup=10.0, nack_delay=0.01, seed=9
            ),
        )
        assert metrics.retransmitted[0] > 0
        assert metrics.total_delivered > 0
        # NACK delay inflates end-to-end latency above the pure M/M/1
        # sojourn of the *winning* attempt.
        assert metrics.mean_latency > 1.0 / (150.0 - 60.0)

    def test_incomplete_schedule_rejected(self):
        arrays, sched = single_queue_scenario()
        import dataclasses

        empty = dataclasses.replace(
            sched,
            req=sched.req[:0], vnf=sched.vnf[:0],
            k=sched.k[:0], inst=sched.inst[:0],
        )
        with pytest.raises(SimulationError):
            simulate_columns(arrays, empty)

    def test_deterministic_per_seed(self):
        scn = stream_scenario(
            num_vnfs=5, num_nodes=6, num_requests=12,
            rng=np.random.default_rng(2),
        )
        rescale_to_stability(scn, target=0.5)
        sched = schedule_columns(scn.arrays)
        cfg = SimulationConfig(duration=20.0, warmup=2.0, seed=4)
        a = simulate_columns(scn.arrays, sched, cfg)
        b = simulate_columns(scn.arrays, sched, cfg)
        np.testing.assert_array_equal(a.delivered, b.delivered)
        np.testing.assert_array_equal(a.latency_sum, b.latency_sum)
        np.testing.assert_array_equal(
            a.instance_utilization, b.instance_utilization
        )
