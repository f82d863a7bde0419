"""Failure-injection: the simulator under sustained overload.

The analytics refuse unstable configurations; the simulator must instead
*behave* like an overloaded system — queue growth, utilization pinned at
1, throughput capped at ``mu`` — so the admission-control story can be
validated end to end.
"""

import pytest

from repro.nfv.chain import ServiceChain
from repro.nfv.request import Request
from repro.nfv.vnf import VNF
from repro.sim.simulator import ChainSimulator, SimulationConfig


def _overloaded(rate=150.0, mu=100.0, duration=200.0, seed=0):
    vnf = VNF("fw", 1.0, 1, mu)
    chain = ServiceChain(["fw"])
    request = Request("r0", chain, rate)
    return ChainSimulator(
        [vnf],
        [request],
        {("r0", "fw"): 0},
        SimulationConfig(duration=duration, warmup=duration / 10, seed=seed),
    )


class TestOverloadBehaviour:
    def test_utilization_pinned_at_one(self):
        metrics = _overloaded().run()
        assert metrics.instance("fw", 0).utilization == pytest.approx(
            1.0, abs=0.02
        )

    def test_throughput_capped_at_mu(self):
        duration = 200.0
        metrics = _overloaded(duration=duration).run()
        departures = metrics.instance("fw", 0).departures
        assert departures / duration == pytest.approx(100.0, rel=0.05)

    def test_backlog_grows(self):
        short = _overloaded(duration=100.0, seed=1).run()
        long = _overloaded(duration=400.0, seed=1).run()
        short_backlog = (
            short.instance("fw", 0).arrivals
            - short.instance("fw", 0).departures
        )
        long_backlog = (
            long.instance("fw", 0).arrivals
            - long.instance("fw", 0).departures
        )
        # Excess arrivals accumulate ~ (lambda - mu) * t.
        assert long_backlog > short_backlog * 2

    def test_sojourn_grows_with_runtime(self):
        short = _overloaded(duration=100.0, seed=2).run()
        long = _overloaded(duration=400.0, seed=2).run()
        assert (
            long.instance("fw", 0).mean_sojourn
            > short.instance("fw", 0).mean_sojourn
        )

    def test_admission_would_have_prevented_it(self):
        """The admission layer rejects exactly the overload the
        simulator exhibits."""
        from repro.core.admission import admission_mask
        from repro.nfv.state import DeploymentState

        state = DeploymentState(
            vnfs=[VNF("fw", 1.0, 1, 100.0)],
            requests=[Request("r0", ServiceChain(["fw"]), 150.0)],
            node_capacities={"n0": 1.0},
            placement={"fw": "n0"},
            schedule={("r0", "fw"): 0},
        )
        arrays = state.arrays()
        sched = state.schedule_arrays()
        admitted = admission_mask(
            sched.req, sched.inst, arrays.eff_rate, arrays.mu_inst
        )
        assert admitted.tolist() == [False]
