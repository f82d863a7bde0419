"""Unit and property tests for admission control."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.admission import (
    DEFAULT_TARGET_UTILIZATION,
    admission_mask,
    power_of_two_admit,
)
from repro.core.evaluation import evaluate_columns, evaluate_deployment
from repro.core.incremental import DeploymentEngine
from repro.exceptions import SchedulingError, ValidationError
from repro.nfv.chain import ServiceChain
from repro.nfv.request import Request
from repro.nfv.state import DeploymentState
from repro.nfv.vnf import VNF

CHAIN = ServiceChain(["fw"])


def _mask(rates, mu=100.0, p=1.0, **kwargs):
    """Admission over one instance serving one request per rate."""
    rates = np.asarray(rates, dtype=float)
    n = len(rates)
    return admission_mask(
        np.arange(n), np.zeros(n, dtype=np.int64), rates / p,
        np.array([mu]), **kwargs
    )


class TestStableInstances:
    def test_nothing_rejected(self):
        assert _mask([30.0, 40.0]).tolist() == [True, True]

    def test_instances_not_mutated(self):
        req = np.array([0, 1])
        inst = np.array([0, 0])
        rate = np.array([200.0, 10.0])
        mu = np.array([100.0])
        admission_mask(req, inst, rate, mu)
        assert req.tolist() == [0, 1] and inst.tolist() == [0, 0]
        assert rate.tolist() == [200.0, 10.0] and mu.tolist() == [100.0]


class TestOverloadedInstances:
    def test_sheds_heaviest_first(self):
        assert _mask([80.0, 30.0]).tolist() == [False, True]

    def test_sheds_minimum_needed(self):
        # 60 + 30 + 20 = 110 > 99.9; dropping only the 60 suffices.
        assert _mask([60.0, 30.0, 20.0]).tolist() == [False, True, True]

    def test_rejection_rate(self):
        # A tie admits the lower request index first.
        admitted = _mask([80.0, 80.0])
        assert admitted.tolist() == [True, False]
        assert (~admitted).mean() == pytest.approx(0.5)

    def test_all_rejected_when_every_request_oversized(self):
        assert _mask([150.0, 120.0]).tolist() == [False, False]

    def test_post_shedding_utilization_under_target(self):
        rates = np.array([70.0, 60.0, 50.0])
        admitted = _mask(rates, target_utilization=0.9)
        assert rates[admitted].sum() <= 100.0 * 0.9

    def test_effective_rates_drive_shedding(self):
        # 55 raw at P=0.5 is 110 effective: must shed.
        assert _mask([55.0], p=0.5).tolist() == [False]

    def test_load_exactly_at_target_is_admitted(self):
        assert _mask([0.5, 0.25], mu=1.0, target_utilization=0.75).all()


class TestMultipleInstances:
    def test_independent_shedding(self):
        # r0 alone on instance 0; r1, r2 share the overloaded instance 1.
        admitted = admission_mask(
            np.array([0, 1, 2]), np.array([0, 1, 1]),
            np.array([10.0, 90.0, 50.0]), np.array([100.0, 100.0]),
        )
        assert admitted.tolist() == [True, False, True]

    def test_a_request_is_rejected_whole(self):
        # fw (mu=40) -> nat (mu=1000), rates (10, 10, 30): r2 does not
        # fit at fw, so it is rejected and loads nat neither.
        req = np.array([0, 0, 1, 1, 2, 2])
        inst = np.array([0, 1, 0, 1, 0, 1])
        admitted = admission_mask(
            req, inst, np.array([10.0, 10.0, 30.0]),
            np.array([40.0, 1000.0]),
        )
        assert admitted.tolist() == [True, True, False]

    def test_a_rejection_frees_room_on_the_rest_of_the_chain(self):
        # r1 (50, on B) comes first; r0 (60, on A and B) fits at A but
        # not at B, so it is rejected whole and loads A neither; r2 (70,
        # on A) then fits at A, which it would not beside r0's 60.
        req = np.array([0, 0, 1, 2])
        inst = np.array([0, 1, 1, 0])
        admitted = admission_mask(
            req, inst, np.array([60.0, 50.0, 70.0]),
            np.array([100.0, 100.0]),
        )
        assert admitted.tolist() == [False, True, True]

    def test_unscheduled_requests_are_admitted(self):
        admitted = admission_mask(
            np.array([1]), np.array([0]), np.array([5.0, 500.0, 7.0]),
            np.array([100.0]),
        )
        assert admitted.tolist() == [True, False, True]

    def test_empty_input(self):
        empty = np.zeros(0, dtype=np.int64)
        admitted = admission_mask(empty, empty, np.zeros(0), np.zeros(0))
        assert admitted.dtype == bool and len(admitted) == 0


class TestValidation:
    def test_bad_target(self):
        empty = np.zeros(0, dtype=np.int64)
        for target in (1.0, 0.0, -0.5, 1.5):
            with pytest.raises(ValidationError, match="target utilization"):
                admission_mask(
                    empty, empty, np.zeros(0), np.zeros(0),
                    target_utilization=target,
                )


def _reference_mask(req, inst, rate, mu, target=DEFAULT_TARGET_UTILIZATION):
    """The rule without the shortcut: every request, every instance."""
    rows = {}
    for r, i in zip(req.tolist(), inst.tolist()):
        rows.setdefault(r, []).append(i)
    caps = [float(m) * target for m in mu]
    running = [0.0] * len(caps)
    admitted = [True] * len(rate)
    for r in sorted(range(len(rate)), key=lambda r: (rate[r], r)):
        chain = rows.get(r, [])
        x = float(rate[r])
        if all(running[i] + x <= caps[i] for i in chain):
            for i in chain:
                running[i] += x
        else:
            admitted[r] = False
    return np.array(admitted, dtype=bool)


@st.composite
def _deployments(draw):
    """Random chains of 1-4 VNFs over several instances each, with
    service rates drawn so that some draws overload and some do not."""
    num_vnfs = draw(st.integers(1, 4))
    vnfs = [
        VNF(
            f"f{j}",
            1.0,
            draw(st.integers(1, 3)),
            draw(st.sampled_from([20.0, 60.0, 150.0, 1000.0])),
        )
        for j in range(num_vnfs)
    ]
    requests = []
    schedule = {}
    for r in range(draw(st.integers(0, 25))):
        chain = draw(
            st.lists(
                st.integers(0, num_vnfs - 1),
                min_size=1,
                max_size=num_vnfs,
                unique=True,
            )
        )
        request = Request(
            f"r{r}",
            ServiceChain([vnfs[j].name for j in chain]),
            draw(st.floats(1.0, 60.0)),
            delivery_probability=draw(st.sampled_from([1.0, 0.95, 0.9])),
        )
        requests.append(request)
        for j in chain:
            schedule[(request.request_id, vnfs[j].name)] = draw(
                st.integers(0, vnfs[j].num_instances - 1)
            )
    return DeploymentState(
        vnfs=vnfs,
        requests=requests,
        node_capacities={"n0": 1000.0},
        placement={v.name: "n0" for v in vnfs},
        schedule=schedule,
    )


class TestAdmissionProperties:
    @settings(max_examples=60, deadline=None)
    @given(state=_deployments(), seed=st.integers(0, 2**16))
    def test_the_mask_over_random_chains(self, state, seed):
        arrays = state.arrays()
        sched = state.schedule_arrays()
        rate = arrays.eff_rate
        mu = arrays.mu_inst
        admitted = admission_mask(sched.req, sched.inst, rate, mu)

        # The shortcut past under-target instances is exact.
        assert admitted.tolist() == _reference_mask(
            sched.req, sched.inst, rate, mu
        ).tolist()

        # Every instance is at or below target after admission: each
        # instance's admitted load, summed lightest request first.
        order = sorted(range(len(rate)), key=lambda r: (rate[r], r))
        rank = {r: pos for pos, r in enumerate(order)}
        loads = [[] for _ in mu]
        for r, i in sorted(
            zip(sched.req.tolist(), sched.inst.tolist()),
            key=lambda row: rank[row[0]],
        ):
            if admitted[r]:
                loads[i].append(float(rate[r]))
        for i, load in enumerate(loads):
            assert sum(load) <= float(mu[i]) * DEFAULT_TARGET_UTILIZATION

        # No rejected request loads any instance: scoring with the mask
        # equals scoring a deployment of the admitted requests alone.
        placement_vec = arrays.placement_vector(state.placement)
        report = evaluate_columns(
            arrays, placement_vec, sched, 0.1, admitted=admitted
        )
        kept_ids = {
            r.request_id for r, ok in zip(state.requests, admitted) if ok
        }
        kept = DeploymentState(
            vnfs=state.vnfs,
            requests=[r for r in state.requests if r.request_id in kept_ids],
            node_capacities=state.node_capacities,
            placement=state.placement,
            schedule={
                key: k for key, k in state.schedule.items()
                if key[0] in kept_ids
            },
        )
        alone = evaluate_deployment(kept, 0.1, with_admission=False)
        assert report.average_response_latency == pytest.approx(
            alone.average_response_latency, rel=1e-12
        )
        assert report.total_latency == pytest.approx(
            alone.total_latency, rel=1e-12
        )
        assert report.is_stable() == bool(kept_ids)

        # rejection_rate is rejected requests over offered requests.
        rejected = int((~admitted).sum())
        assert report.num_rejected == rejected
        offered = len(state.requests)
        assert report.rejection_rate == (
            rejected / offered if offered else 0.0
        )

        # The mask does not depend on how the instances are numbered.
        perm = np.random.default_rng(seed).permutation(len(mu))
        renumbered_mu = np.empty_like(mu)
        renumbered_mu[perm] = mu
        assert admission_mask(
            sched.req, perm[sched.inst], rate, renumbered_mu
        ).tolist() == admitted.tolist()


class _PickRng:
    """Deterministic probe stand-in: returns queued index pairs."""

    def __init__(self, *pairs):
        self._pairs = list(pairs)

    def integers(self, low, high, size):
        return np.asarray(self._pairs.pop(0))


class TestPowerOfTwoAdmit:
    def test_lower_load_wins(self):
        loads = np.array([5.0, 1.0, 3.0])
        assert power_of_two_admit(loads, 1.0, _PickRng((0, 1))) == 1
        assert power_of_two_admit(loads, 1.0, _PickRng((2, 0))) == 2

    def test_tie_resolves_to_lower_index(self):
        loads = np.array([2.0, 2.0])
        assert power_of_two_admit(loads, 1.0, _PickRng((1, 0))) == 0

    def test_same_probe_twice_is_fine(self):
        loads = np.array([4.0, 9.0])
        assert power_of_two_admit(loads, 1.0, _PickRng((1, 1))) == 1

    def test_capacity_gate(self):
        loads = np.array([10.0, 20.0])
        picks = _PickRng((0, 1))
        assert power_of_two_admit(loads, 5.0, picks, capacity=14.0) == -1
        # Exactly at capacity passes (the fit_eps slack).
        picks = _PickRng((0, 1))
        assert power_of_two_admit(loads, 5.0, picks, capacity=15.0) == 0

    def test_masked_winner_rejected(self):
        loads = np.array([np.inf, np.inf])
        assert power_of_two_admit(loads, 1.0, _PickRng((0, 1))) == -1

    def test_empty_loads_rejected_without_probes(self):
        assert power_of_two_admit(np.zeros(0), 1.0, _PickRng()) == -1

    def test_two_probes_consumed_even_on_rejection(self):
        """The stream position is a pure function of the admit count."""
        loads = np.array([10.0, 10.0])
        rng = np.random.default_rng(5)
        assert (
            power_of_two_admit(loads, 5.0, rng, capacity=1.0) == -1
        )
        after_reject = power_of_two_admit(loads, 5.0, rng)
        replay = np.random.default_rng(5)
        replay.integers(0, 2, size=2)  # the rejected call's probes
        expected = power_of_two_admit(loads, 5.0, replay)
        assert after_reject == expected


class TestEnginePowerOfTwo:
    def _vnfs(self):
        return [VNF("fw", 1.0, 4, 100.0), VNF("lb", 1.0, 4, 100.0)]

    def _caps(self):
        return {"n0": 40.0, "n1": 40.0}

    def test_policy_is_selectable_and_deterministic(self):
        outcomes = []
        for _ in range(2):
            engine = DeploymentEngine(
                self._vnfs(),
                self._caps(),
                admission="power-of-two",
                admission_rng=np.random.default_rng(42),
            )
            outcomes.append(
                tuple(
                    tuple(
                        sorted(
                            engine.admit(
                                Request(f"r{i}", CHAIN, 5.0)
                            ).assignment.items()
                        )
                    )
                    for i in range(12)
                )
            )
        assert outcomes[0] == outcomes[1]

    def test_default_policy_unchanged(self):
        engine = DeploymentEngine(self._vnfs(), self._caps())
        # Least-loaded breaks ties to the lowest index, so four equal
        # admits fill fw's four instances in order.
        ks = [
            engine.admit(Request(f"r{i}", CHAIN, 5.0)).assignment["fw"]
            for i in range(4)
        ]
        assert ks == [0, 1, 2, 3]

    def test_unknown_policy_raises(self):
        with pytest.raises(SchedulingError, match="unknown admission"):
            DeploymentEngine(
                self._vnfs(), self._caps(), admission="random"
            )
