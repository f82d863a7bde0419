"""Integration: a jointly optimized deployment, simulated packet by packet.

The strongest end-to-end check in the suite: generate a workload, run
the paper's full two-phase pipeline, then feed the *same* schedule into
the discrete-event simulator and require the measured per-instance
behaviour to match the analytic model the optimizer reasoned with.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.joint import JointOptimizer
from repro.placement.bfdsu import BFDSUPlacement
from repro.scheduling.rckk import RCKKScheduler
from repro.sim.simulator import ChainSimulator, SimulationConfig
from repro.workload.generator import WorkloadGenerator


@pytest.fixture(scope="module")
def optimized_and_simulated():
    gen = WorkloadGenerator(np.random.default_rng(2024))
    vnfs = gen.vnfs(4, instance_range=(1, 2))
    chains = gen.chains(vnfs, 2, max_length=3)
    requests = gen.requests(
        chains, 10, rate_range=(5.0, 40.0), delivery_probability=0.99
    )
    # Scale service rates so the busiest instance sits near rho ~ 0.5:
    # fast enough to simulate long runs, loaded enough to queue.
    total = sum(r.effective_rate for r in requests)
    vnfs = [replace(f, service_rate=total) for f in vnfs]
    capacities = gen.capacities_fitting(3, vnfs, headroom=1.5)

    solution = JointOptimizer(
        placement=BFDSUPlacement(rng=np.random.default_rng(7)),
        scheduler=RCKKScheduler(),
    ).optimize(vnfs, requests, capacities)
    solution.state.validate()

    simulator = ChainSimulator(
        vnfs,
        requests,
        solution.schedule,
        SimulationConfig(duration=800.0, warmup=80.0, seed=99),
    )
    return solution, simulator.run()


class TestJointSimulation:
    def test_all_requests_served(self, optimized_and_simulated):
        _, metrics = optimized_and_simulated
        for request_id, delivered in metrics.delivered.items():
            assert delivered > 0, f"request {request_id} starved"

    def test_instance_utilizations_match_model(self, optimized_and_simulated):
        solution, metrics = optimized_and_simulated
        for instance in solution.state.instances():
            if not instance.requests:
                continue
            measured = metrics.instance(*instance.key).utilization
            assert measured == pytest.approx(
                instance.utilization, abs=0.05
            ), f"instance {instance.key} utilization mismatch"

    def test_instance_sojourns_match_model(self, optimized_and_simulated):
        solution, metrics = optimized_and_simulated
        for instance in solution.state.instances():
            if not instance.requests:
                continue
            # Per-pass sojourn: 1 / (mu - Lambda).
            expected = 1.0 / (
                instance.vnf.service_rate
                - instance.equivalent_arrival_rate
            )
            measured = metrics.instance(*instance.key).mean_sojourn
            assert measured == pytest.approx(expected, rel=0.25), (
                f"instance {instance.key} sojourn mismatch"
            )

    def test_idle_instances_see_no_traffic(self, optimized_and_simulated):
        solution, metrics = optimized_and_simulated
        for instance in solution.state.instances():
            if instance.requests:
                continue
            assert metrics.instance(*instance.key).arrivals == 0
