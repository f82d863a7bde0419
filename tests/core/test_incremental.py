"""Unit + identity tests for the incremental deployment engine.

The load-bearing property (docs/SERVING.md): after ANY admit/depart/
rebalance sequence, a ``rebalance()`` leaves the engine exactly where
``solve_joint`` over the surviving request set (same seed policy)
lands from scratch — same placement dict, same schedule dict — with
and without ``bandwidth=``.
"""

from __future__ import annotations

import copy
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.incremental import (
    AdmitReport,
    DeploymentEngine,
    RebalanceReport,
    solve_joint,
)
from repro.exceptions import SchedulingError
from repro.nfv.chain import ServiceChain
from repro.nfv.request import Request
from repro.nfv.vnf import VNF
from repro.scheduling.cga import CGAScheduler
from repro.scheduling.ckk import CKKScheduler
from repro.scheduling.least_loaded import LeastLoadedScheduler
from repro.scheduling.random_assign import RandomScheduler
from repro.scheduling.rckk import RCKKScheduler
from repro.scheduling.round_robin import RoundRobinScheduler
from repro.scheduling.swap_refine import SwapRefinedScheduler
from repro.seeding import derive_seed
from repro.topology.leafspine import leaf_spine
from repro.topology.network import NetworkModel
from repro.topology.random_topology import random_datacenter
from repro.workload.generator import WorkloadGenerator

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from _reference_impl import reference_schedule_all_vnfs  # noqa: E402


def _request(i, names, rate, p=1.0, prefix="q"):
    return Request(
        f"{prefix}{i}", ServiceChain(list(names)), rate,
        delivery_probability=p,
    )


@pytest.fixture
def small_vnfs():
    return [
        VNF("fw", demand_per_instance=10.0, num_instances=2,
            service_rate=100.0),
        VNF("lb", demand_per_instance=8.0, num_instances=2,
            service_rate=100.0),
    ]


@pytest.fixture
def small_caps():
    return {"n0": 40.0, "n1": 40.0}


class TestAdmit:
    def test_admit_assigns_least_loaded(self, small_vnfs, small_caps):
        engine = DeploymentEngine(small_vnfs, small_caps)
        first = engine.admit(_request(0, ["fw", "lb"], 10.0))
        assert isinstance(first, AdmitReport)
        assert first.admitted and first.reason is None
        assert first.assignment == {"fw": 0, "lb": 0}
        # Second arrival joins the other (now less loaded) instances.
        second = engine.admit(_request(1, ["fw"], 5.0))
        assert second.assignment == {"fw": 1}
        assert engine.assignment_of("q1") == {"fw": 1}
        assert engine.num_active == 2
        assert engine.active_requests == ("q0", "q1")

    def test_duplicate_id_raises(self, small_vnfs, small_caps):
        engine = DeploymentEngine(small_vnfs, small_caps)
        engine.admit(_request(0, ["fw"], 1.0))
        with pytest.raises(SchedulingError, match="already active"):
            engine.admit(_request(0, ["lb"], 2.0))

    def test_unknown_vnf_raises(self, small_vnfs, small_caps):
        engine = DeploymentEngine(small_vnfs, small_caps)
        with pytest.raises(SchedulingError, match="unknown VNF"):
            engine.admit(_request(0, ["ghost"], 1.0))

    def test_duplicate_initial_ids_raise(self, small_vnfs, small_caps):
        twice = [_request(0, ["fw"], 1.0), _request(0, ["lb"], 2.0)]
        with pytest.raises(SchedulingError, match="duplicate"):
            DeploymentEngine(small_vnfs, small_caps, twice)

    def test_capacity_rejection_is_side_effect_free(
        self, small_vnfs, small_caps
    ):
        # Cap per instance: mu * 0.5 = 50.  Two instances => a third
        # heavy request has no instance with headroom.
        engine = DeploymentEngine(
            small_vnfs, small_caps, target_utilization=0.5
        )
        assert engine.admit(_request(0, ["fw"], 45.0)).admitted
        assert engine.admit(_request(1, ["fw"], 45.0)).admitted
        before_loads = engine.instance_loads()
        report = engine.admit(_request(2, ["fw", "lb"], 45.0))
        assert not report.admitted
        assert report.reason == "capacity"
        assert report.assignment == {}
        assert engine.num_active == 2
        np.testing.assert_array_equal(
            engine.instance_loads(), before_loads
        )
        # The rejected id was never registered - it can retry smaller.
        assert engine.admit(_request(2, ["fw", "lb"], 1.0)).admitted


class TestBandwidthGate:
    @pytest.fixture
    def fabric(self):
        """Two fat VNFs that cannot colocate on a 3-node line fabric."""
        vnfs = [
            VNF("fw", demand_per_instance=60.0, num_instances=1,
                service_rate=1000.0),
            VNF("lb", demand_per_instance=60.0, num_instances=1,
                service_rate=1000.0),
        ]
        caps = {"node0": 100.0, "node1": 100.0, "node2": 100.0}
        topo = random_datacenter(
            3,
            rng=np.random.default_rng(7),
            capacities=[100.0, 100.0, 100.0],
        )
        return vnfs, caps, topo

    def test_bandwidth_rejection_is_side_effect_free(self, fabric):
        vnfs, caps, topo = fabric
        engine = DeploymentEngine(
            vnfs, caps, topology=topo, bandwidth=10.0,
            target_utilization=None,
        )
        # fw and lb sit on different nodes, so the chain flow crosses
        # at least one link of budget 10.
        assert len(set(engine.placement.values())) == 2
        assert engine.admit(_request(0, ["fw", "lb"], 6.0)).admitted
        before = engine._link_loads.copy()
        report = engine.admit(_request(1, ["fw", "lb"], 6.0))
        assert not report.admitted
        assert report.reason == "bandwidth"
        assert engine.num_active == 1
        np.testing.assert_array_equal(engine._link_loads, before)
        # A flow that fits the residual is still welcome.
        assert engine.admit(_request(1, ["fw", "lb"], 3.0)).admitted

    def test_depart_restores_link_residuals_exactly(self, fabric):
        vnfs, caps, topo = fabric
        engine = DeploymentEngine(
            vnfs, caps, topology=topo, bandwidth=100.0,
            target_utilization=None,
        )
        baseline = engine._link_loads.copy()
        engine.admit(_request(0, ["fw", "lb"], 7.25))
        engine.admit(_request(1, ["lb", "fw"], 2.5))
        engine.depart("q1")
        engine.depart("q0")
        np.testing.assert_array_equal(engine._link_loads, baseline)


class TestDepart:
    def test_depart_is_exact_inverse(self, small_vnfs, small_caps):
        engine = DeploymentEngine(small_vnfs, small_caps)
        baseline = engine.instance_loads()
        engine.admit(_request(0, ["fw", "lb"], 10.0, 0.8))
        engine.admit(_request(1, ["lb"], 3.0))
        engine.depart("q0")
        engine.depart("q1")
        np.testing.assert_array_equal(engine.instance_loads(), baseline)
        assert engine.num_active == 0

    def test_unknown_id_raises(self, small_vnfs, small_caps):
        engine = DeploymentEngine(small_vnfs, small_caps)
        with pytest.raises(SchedulingError, match="unknown request"):
            engine.depart("ghost")
        with pytest.raises(SchedulingError, match="unknown request"):
            engine.assignment_of("ghost")


def _churn(engine, requests, rng, admits=18, departs=9):
    """A deterministic admit/depart interleaving; returns survivors."""
    pool = list(requests)
    for request in pool[:admits]:
        engine.admit(request)
    active = list(engine.active_requests)
    for _ in range(departs):
        victim = active.pop(int(rng.integers(len(active))))
        engine.depart(victim)
    return [engine._requests[rid] for rid in engine.active_requests]


def _assert_lands_on(engine, ref):
    """The engine's state is ``ref``'s, down to the order of the
    schedule items and the bytes of the instance loads."""
    got = engine.state()
    assert got.placement == ref.placement
    # The item order fixes the order of the float sums behind the loads.
    assert list(got.schedule.items()) == list(ref.schedule.items())
    arrays = engine.arrays
    loads, _, _ = arrays.instance_rates(arrays.schedule_arrays(ref.schedule))
    assert engine.instance_loads().tobytes() == loads.tobytes()


class TestBatchIdentity:
    """Engine state after rebalance == solve_joint over survivors."""

    def test_identity_without_bandwidth(self):
        gen = WorkloadGenerator(np.random.default_rng(20170605))
        w = gen.workload(num_vnfs=8, num_nodes=10, num_requests=40)
        engine = DeploymentEngine(
            w.vnfs, w.capacities, w.requests[:15], seed=123
        )
        rng = np.random.default_rng(99)
        survivors = _churn(engine, w.requests[15:], rng)
        engine.rebalance()
        ref = solve_joint(w.vnfs, survivors, w.capacities, seed=123)
        _assert_lands_on(engine, ref)

    def test_identity_with_bandwidth(self):
        gen = WorkloadGenerator(np.random.default_rng(20170605))
        w = gen.workload(num_vnfs=6, num_nodes=8, num_requests=30)
        topo = random_datacenter(
            8,
            rng=np.random.default_rng(derive_seed(5, "fabric")),
            capacities=[w.capacities[f"node{i}"] for i in range(8)],
        )
        bw = 1e9  # generous: constrain the code path, not feasibility
        engine = DeploymentEngine(
            w.vnfs, w.capacities, w.requests[:12], seed=321,
            topology=topo, bandwidth=bw,
        )
        rng = np.random.default_rng(77)
        survivors = _churn(engine, w.requests[12:], rng, admits=14,
                           departs=7)
        engine.rebalance()
        ref = solve_joint(
            w.vnfs, survivors, w.capacities, seed=321,
            topology=topo, bandwidth=bw,
        )
        _assert_lands_on(engine, ref)
        # Link residuals agree with a from-scratch reload too.
        np.testing.assert_allclose(
            engine._link_loads,
            engine._network.link_loads(engine._placement_vec),
            rtol=0, atol=1e-9,
        )

    @pytest.mark.parametrize(
        "make",
        [
            CGAScheduler,
            CKKScheduler,
            LeastLoadedScheduler,
            RoundRobinScheduler,
            lambda: RandomScheduler(np.random.default_rng(5)),
            SwapRefinedScheduler,
        ],
        ids=["cga", "ckk", "least_loaded", "round_robin", "random", "swap"],
    )
    def test_identity_per_scheduler(self, make):
        gen = WorkloadGenerator(np.random.default_rng(20170605))
        # Two instances per VNF keep CKK in its domain.
        w = gen.workload(
            num_vnfs=8, num_nodes=10, num_requests=40, instance_range=(2, 2)
        )
        engine = DeploymentEngine(
            w.vnfs, w.capacities, w.requests[:15], seed=123, scheduler=make()
        )
        rng = np.random.default_rng(99)
        survivors = _churn(engine, w.requests[15:], rng)
        # The reference starts from the engine's scheduler as it stands
        # (RandomScheduler's stream has advanced over the first solve).
        scheduler = copy.deepcopy(engine._scheduler)
        engine.rebalance()
        ref = solve_joint(
            w.vnfs, survivors, w.capacities, seed=123, scheduler=scheduler
        )
        _assert_lands_on(engine, ref)

    def test_solve_joint_schedule_is_the_object_route(self):
        """The column solve schedules exactly as the per-VNF object
        route does over the survivors, item for item and in order."""
        gen = WorkloadGenerator(np.random.default_rng(20170605))
        w = gen.workload(num_vnfs=8, num_nodes=10, num_requests=40)
        engine = DeploymentEngine(
            w.vnfs, w.capacities, w.requests[:15], seed=123
        )
        survivors = _churn(engine, w.requests[15:], np.random.default_rng(99))
        ref = solve_joint(w.vnfs, survivors, w.capacities, seed=123)
        want = reference_schedule_all_vnfs(w.vnfs, survivors, RCKKScheduler())
        assert list(ref.schedule.items()) == list(want.items())

    def test_empty_engine_loads_are_float(self, small_vnfs, small_caps):
        engine = DeploymentEngine(small_vnfs, small_caps)
        assert engine.instance_loads().dtype == np.float64
        assert engine.admit(_request(0, ["fw"], 2.5)).admitted
        assert engine.instance_loads().max() == 2.5

    def test_rebalance_report_counts(self):
        gen = WorkloadGenerator(np.random.default_rng(20170605))
        w = gen.workload(num_vnfs=8, num_nodes=10, num_requests=30)
        engine = DeploymentEngine(w.vnfs, w.capacities, w.requests[:20])
        report = engine.rebalance()
        assert isinstance(report, RebalanceReport)
        # Nothing churned: the re-solve reproduces itself exactly.
        assert report.placement_moves == 0
        assert report.schedule_migrations == 0
        assert report.active_requests == 20
        assert report.total_migrations == 0


class TestResidualBookkeeping:
    def test_instance_loads_match_recompute_before_rebalance(self):
        """Warm-start drift is zero: residuals == from-scratch bincount."""
        gen = WorkloadGenerator(np.random.default_rng(20170605))
        w = gen.workload(num_vnfs=8, num_nodes=10, num_requests=40)
        engine = DeploymentEngine(
            w.vnfs, w.capacities, w.requests[:15],
            target_utilization=None,
        )
        rng = np.random.default_rng(31)
        _churn(engine, w.requests[15:], rng)
        state = engine.state()
        recomputed, _, _ = state.arrays().instance_rates(
            state.schedule_arrays()
        )
        np.testing.assert_allclose(
            engine.instance_loads(), recomputed, rtol=0, atol=1e-9
        )

    def test_state_roundtrip_validates(self, small_vnfs, small_caps):
        engine = DeploymentEngine(
            small_vnfs, small_caps, [_request(0, ["fw"], 5.0)]
        )
        engine.admit(_request(1, ["fw", "lb"], 2.0))
        state = engine.state()  # validates internally
        assert set(state.schedule) == {
            ("q0", "fw"), ("q1", "fw"), ("q1", "lb"),
        }


class TestFaultOps:
    """Crash/repair primitives added in PR 9 (docs/RESILIENCE.md)."""

    def test_fail_node_evicts_and_gates_admission(
        self, small_vnfs, small_caps
    ):
        engine = DeploymentEngine(small_vnfs, small_caps)
        engine.admit(_request(0, ["fw", "lb"], 10.0))
        engine.admit(_request(1, ["lb"], 3.0))
        victim = engine.placement["fw"]
        evicted = engine.fail_node(victim)
        assert engine.failed_nodes == frozenset({victim})
        assert [r.request_id for r in evicted] == [
            rid
            for rid in ("q0", "q1")
            if any(
                engine.placement[name] == victim
                for name in (["fw", "lb"] if rid == "q0" else ["lb"])
            )
        ]
        assert "q0" not in engine.active_requests
        # Chains touching the dead node are now unavailable.
        report = engine.admit(_request(9, ["fw"], 1.0))
        assert not report.admitted
        assert report.reason == "unavailable"
        # Repair re-opens admission (placement is untouched).
        engine.recover_node(victim)
        assert engine.failed_nodes == frozenset()
        assert engine.admit(_request(9, ["fw"], 1.0)).admitted

    def test_fail_node_twice_is_noop(self, small_vnfs, small_caps):
        engine = DeploymentEngine(small_vnfs, small_caps)
        engine.admit(_request(0, ["fw"], 1.0))
        victim = engine.placement["fw"]
        assert engine.fail_node(victim)
        assert engine.fail_node(victim) == []

    def test_fail_unknown_node_raises(self, small_vnfs, small_caps):
        engine = DeploymentEngine(small_vnfs, small_caps)
        with pytest.raises(SchedulingError, match="unknown node"):
            engine.fail_node("ghost")
        with pytest.raises(SchedulingError, match="unknown node"):
            engine.recover_node("ghost")

    def test_fail_instance_masks_and_recovers(
        self, small_vnfs, small_caps
    ):
        engine = DeploymentEngine(small_vnfs, small_caps)
        first = engine.admit(_request(0, ["fw"], 10.0))
        k = first.assignment["fw"]
        evicted = engine.fail_instance("fw", k)
        assert [r.request_id for r in evicted] == ["q0"]
        assert engine._down_inst.sum() == 1
        # The surviving instance still admits.
        report = engine.admit(_request(1, ["fw"], 5.0))
        assert report.admitted
        assert report.assignment["fw"] == 1 - k
        # All instances down => unavailable.
        second = engine.fail_instance("fw", 1 - k)
        assert [r.request_id for r in second] == ["q1"]
        rejected = engine.admit(_request(2, ["fw"], 1.0))
        assert not rejected.admitted
        assert rejected.reason == "unavailable"
        engine.recover_instance("fw", k)
        assert engine.admit(_request(2, ["fw"], 1.0)).admitted
        assert engine._down_inst.sum() == 1

    def test_rebalance_keeps_down_instances_empty(self):
        gen = WorkloadGenerator(np.random.default_rng(20170605))
        w = gen.workload(num_vnfs=8, num_nodes=10, num_requests=40)
        engine = DeploymentEngine(w.vnfs, w.capacities, w.requests, seed=123)
        vnf = w.requests[0].chain.vnf_names[0]
        evicted = engine.fail_instance(vnf, 0)
        assert evicted
        assert all(engine.admit(r).admitted for r in evicted)
        assert engine.rebalance().committed
        gi = int(engine.arrays.instance_offset[engine.arrays.vnf_index[vnf]])
        assert engine._down_inst[gi]
        assert engine.instance_loads()[gi] == 0.0
        assert all(
            engine.assignment_of(rid).get(vnf) != 0
            for rid in engine.active_requests
        )
        # Instance loads still match a from-scratch recompute.
        state = engine.state()
        recomputed, _, _ = state.arrays().instance_rates(
            state.schedule_arrays()
        )
        assert engine.instance_loads().tobytes() == recomputed.tobytes()

    def test_rebalance_with_a_used_vnf_all_down_is_uncommitted(
        self, small_vnfs, small_caps
    ):
        engine = DeploymentEngine(small_vnfs, small_caps)
        engine.admit(_request(0, ["fw"], 10.0))
        before = engine.state()
        # Unreachable through the public API (failing the last live
        # instance evicts its users), so set the mask directly.
        engine._down_inst = np.zeros(engine.arrays.num_instances, dtype=bool)
        engine._down_inst[:2] = True
        report = engine.rebalance()
        assert not report.committed
        after = engine.state()
        assert after.placement == before.placement
        assert after.schedule == before.schedule

    def test_fail_instance_validates_arguments(
        self, small_vnfs, small_caps
    ):
        engine = DeploymentEngine(small_vnfs, small_caps)
        with pytest.raises(SchedulingError, match="unknown VNF"):
            engine.fail_instance("ghost", 0)
        with pytest.raises(SchedulingError, match="no instance"):
            engine.fail_instance("fw", 7)
        with pytest.raises(SchedulingError, match="no instance"):
            engine.recover_instance("fw", -1)

    def test_move_vnf(self, small_vnfs, small_caps):
        engine = DeploymentEngine(
            small_vnfs, small_caps, target_utilization=None
        )
        engine.admit(_request(0, ["fw", "lb"], 10.0))
        source = engine.placement["fw"]
        other = next(n for n in small_caps if n != source)
        # Moving onto the current node is a trivial success.
        assert engine.move_vnf("fw", source)
        assert engine.placement["fw"] == source
        # A failed target refuses the move.
        engine.fail_node(other)
        assert not engine.move_vnf("fw", other)
        engine.recover_node(other)
        assert engine.move_vnf("fw", other)
        assert engine.placement["fw"] == other
        with pytest.raises(SchedulingError, match="unknown VNF"):
            engine.move_vnf("ghost", source)
        with pytest.raises(SchedulingError, match="unknown node"):
            engine.move_vnf("fw", "ghost")

    def test_move_vnf_checks_capacity(self, small_vnfs):
        # n1 cannot hold both VNFs (20 + 16 > 21).
        caps = {"n0": 40.0, "n1": 21.0}
        engine = DeploymentEngine(
            small_vnfs, caps, target_utilization=None
        )
        heavy, light = "fw", "lb"
        if engine.placement[heavy] != "n0":
            engine.move_vnf(heavy, "n0")
        engine.move_vnf(light, "n1")
        assert not engine.move_vnf(heavy, "n1")
        assert engine.placement[heavy] == "n0"

    def test_request_response_times(self, small_vnfs, small_caps):
        engine = DeploymentEngine(
            small_vnfs, small_caps, target_utilization=None
        )
        ids, latencies = engine.request_response_times()
        assert ids == ()
        engine.admit(_request(0, ["fw", "lb"], 10.0))
        ids, latencies = engine.request_response_times()
        assert ids == ("q0",)
        # One request on empty instances: 1/(mu - rate) per chain VNF.
        assert latencies[0] == pytest.approx(2.0 / 90.0)

    def test_saturated_instance_reports_inf(self, small_vnfs, small_caps):
        engine = DeploymentEngine(
            small_vnfs, small_caps, target_utilization=None
        )
        engine.admit(_request(0, ["fw"], 150.0))
        _, latencies = engine.request_response_times()
        assert np.isinf(latencies[0])


def _parity_workload():
    gen = WorkloadGenerator(np.random.default_rng(20170809))
    return gen.workload(num_vnfs=8, num_nodes=10, num_requests=24)


class TestMassDepartParity:
    """A failure's eviction is the exact inverse of the victims' admits.

    ``fail_node`` and ``fail_instance`` retract their victims in one
    pass (``DeploymentEngine._evict_rows``).  Because each retraction
    is the exact admit inverse, the residuals are bit-identical to
    departing the victims one by one in arrival order, and failing,
    recovering and re-solving leaves the engine bit-identical
    (placement + schedule) to one rebuilt from the survivors.
    """

    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_evict_subset_matches_rebuilt_engine(self, data):
        w = _parity_workload()
        engine = DeploymentEngine(
            w.vnfs, w.capacities, list(w.requests), seed=7,
            target_utilization=None,
        )
        ids = list(engine.active_requests)
        nodes = data.draw(
            st.lists(
                st.sampled_from(sorted(set(engine.placement.values()))),
                unique=True, max_size=3,
            )
        )
        vnf = data.draw(st.sampled_from(sorted(engine.placement)))
        victims = set()
        for node in nodes:
            evicted = [r.request_id for r in engine.fail_node(node)]
            # Returned in arrival order.
            assert evicted == [rid for rid in ids if rid in evicted]
            victims.update(evicted)
        evicted = [r.request_id for r in engine.fail_instance(vnf, 0)]
        assert evicted == [rid for rid in ids if rid in evicted]
        victims.update(evicted)
        assert set(engine.active_requests) == set(ids) - victims
        # Residual bookkeeping equals a from-scratch recompute over
        # the surviving schedule.
        state = engine.state()
        recomputed, _, _ = state.arrays().instance_rates(
            state.schedule_arrays()
        )
        np.testing.assert_allclose(
            engine.instance_loads(), recomputed, rtol=0, atol=1e-9
        )
        # Once the faults heal, a re-solve is indistinguishable from an
        # engine that never saw the evicted requests.
        for node in nodes:
            engine.recover_node(node)
        engine.recover_instance(vnf, 0)
        engine.rebalance()
        survivors = [
            r for r in w.requests if r.request_id not in victims
        ]
        rebuilt = DeploymentEngine(
            w.vnfs, w.capacities, survivors, seed=7,
            target_utilization=None,
        )
        assert engine.placement == rebuilt.placement
        assert engine.state().schedule == rebuilt.state().schedule
        np.testing.assert_array_equal(
            engine.instance_loads(), rebuilt.instance_loads()
        )

    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_evict_matches_sequential_departs(self, data):
        """One-pass node eviction == departing the victims one by one
        in arrival order, bit for bit, with and without a fabric."""
        w = _parity_workload()
        fabric = _parity_fabric(w)
        for vnfs, caps, requests, topo in (
            (w.vnfs, w.capacities, list(w.requests), None),
            fabric,
        ):
            kwargs = dict(
                topology=topo,
                bandwidth=None if topo is None else 1e6,
                target_utilization=None,
            )
            mass = DeploymentEngine(vnfs, caps, requests, **kwargs)
            serial = DeploymentEngine(vnfs, caps, requests, **kwargs)
            node = data.draw(
                st.sampled_from(sorted(set(mass.placement.values())))
            )
            victims = mass.fail_node(node)
            assert victims
            # Same arrival-order retraction sequence as the eviction's
            # internals — float subtraction is order-sensitive.
            for request in victims:
                serial.depart(request.request_id)
            assert mass.active_requests == serial.active_requests
            np.testing.assert_array_equal(
                mass.instance_loads(), serial.instance_loads()
            )
            assert dict(mass.state().schedule) == dict(
                serial.state().schedule
            )
            if topo is not None:
                assert mass._link_loads.tobytes() == (
                    serial._link_loads.tobytes()
                )


def _parity_fabric(w):
    """The parity workload on a 2x2 leaf-spine with 5 servers a leaf."""
    sizes = list(w.capacities.values())
    caps = {f"server{i}": cap for i, cap in enumerate(sizes)}
    topo = leaf_spine(2, 2, 5, capacity_fn=lambda i: sizes[i])
    return w.vnfs, caps, list(w.requests), topo


def _fresh_link_loads(engine, topo, bandwidth):
    """Link loads of the engine's active set, recomputed from scratch."""
    model = NetworkModel.for_deployment(engine.state(), topo, bandwidth)
    return model.link_loads(engine.placement_vector())


class TestCachedRouteVerdicts:
    def test_admit_verdicts_match_chain_fits(self):
        """Cached-route probes decide exactly as
        ``NetworkModel.chain_fits`` does, down to links a chain crosses
        twice, while the fabric fills up."""
        w = _parity_workload()
        vnfs, caps, requests, topo = _parity_fabric(w)
        engine = DeploymentEngine(
            vnfs, caps, requests[:8], topology=topo, bandwidth=2000.0,
            target_utilization=None,
        )
        index = engine.arrays.vnf_index
        verdicts = []
        for i in range(300):
            request = _request(
                i, requests[i % len(requests)].chain, 5.0 + i % 7,
                prefix="fill",
            )
            chain_idx = np.asarray(
                [index[name] for name in request.chain], dtype=np.int64
            )
            expected = engine._network.chain_fits(
                chain_idx, engine.placement_vector(), engine._link_loads,
                float(request.effective_rate),
            )
            assert engine.admit(request).admitted == expected
            verdicts.append(expected)
        assert True in verdicts and False in verdicts


class TestRouteInvalidation:
    """Cached chain routes follow every placement change.

    Admits after a committed ``move_vnf``, a reverted one and a
    ``rebalance`` must charge the routes of the placement in force, so
    the engine's link loads stay equal to a from-scratch recompute over
    the active set.
    """

    BANDWIDTH = 2000.0

    def test_admits_after_moves_and_rebalance_route_correctly(self):
        w = _parity_workload()
        vnfs, caps, requests, topo = _parity_fabric(w)
        engine = DeploymentEngine(
            vnfs, caps, requests[:16], topology=topo,
            bandwidth=self.BANDWIDTH, target_utilization=None,
        )
        # Light flows, so most admits fit wherever the chains route.
        pool = (
            _request(i, requests[i % len(requests)].chain, 1.0, prefix="x")
            for i in itertools.count()
        )

        def admit_and_check():
            admitted = engine.admit(next(pool)).admitted
            np.testing.assert_allclose(
                engine._link_loads,
                _fresh_link_loads(engine, topo, self.BANDWIDTH),
                rtol=1e-9, atol=1e-9,
            )
            return admitted

        assert admit_and_check()
        arrays = engine.arrays
        outcomes = set()
        for name in arrays.vnf_names:
            fi = arrays.vnf_index[name]
            for node in arrays.node_keys:
                pvec = engine.placement_vector()
                ni = arrays.node_index[node]
                free = arrays.A_v[ni] - arrays.node_loads(pvec)[ni]
                if pvec[fi] == ni or free < arrays.total_demand_f[fi]:
                    continue
                # Capacity fits, so False means the bandwidth revert.
                moved = engine.move_vnf(name, node)
                outcomes.add((moved, admit_and_check()))
        # Admits went through after committed and after reverted moves.
        assert {(True, True), (False, True)} <= outcomes
        assert engine.rebalance().committed
        assert admit_and_check()


class TestMoveRevert:
    """A move that does not fit the fabric leaves the engine untouched.

    ``move_vnf`` retracts every affected flow before it routes them at
    the target; when one does not fit it must restore the link loads
    byte for byte, not re-add the flows (float round trips would leave
    the residuals a few ulps off and could flip a later admit).
    """

    BANDWIDTH = 2000.0

    def test_reverted_moves_restore_state_exactly(self):
        w = _parity_workload()
        vnfs, caps, requests, topo = _parity_fabric(w)
        engine = DeploymentEngine(
            vnfs, caps, requests[:16], topology=topo,
            bandwidth=self.BANDWIDTH, target_utilization=None,
        )
        probes = [
            _request(i, requests[i % len(requests)].chain,
                     5.0 + 40.0 * (i % 6), prefix="probe")
            for i in range(30)
        ]

        def verdicts(snapshot):
            return [snapshot.admit(r).admitted for r in probes]

        arrays = engine.arrays
        reverted = 0
        seen = set()
        for name in arrays.vnf_names:
            fi = arrays.vnf_index[name]
            for node in arrays.node_keys:
                pvec = engine.placement_vector()
                ni = arrays.node_index[node]
                free = arrays.A_v[ni] - arrays.node_loads(pvec)[ni]
                if pvec[fi] == ni or free < arrays.total_demand_f[fi]:
                    continue
                before = copy.deepcopy(engine)
                link_bytes = engine._link_loads.tobytes()
                # Capacity fits, so False means the bandwidth revert.
                if engine.move_vnf(name, node):
                    continue
                reverted += 1
                assert engine._link_loads.tobytes() == link_bytes
                np.testing.assert_array_equal(engine.placement_vector(), pvec)
                assert engine.placement == before.placement
                expected = verdicts(before)
                assert verdicts(copy.deepcopy(engine)) == expected
                seen.update(expected)
        assert reverted
        assert seen == {True, False}
