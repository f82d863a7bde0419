"""Parity tests: column-native scheduling vs the per-VNF object path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.arrays import ScenarioArrays
from repro.core.dtypes import LEAN_POLICY
from repro.core.evaluation import evaluate_columns, evaluate_deployment
from repro.exceptions import SchedulingError, ValidationError
from repro.nfv.state import DeploymentState
from repro.placement.bfdsu import BFDSUPlacement
from repro.placement.base import PlacementProblem
from repro.scheduling.base import schedule_all_vnfs
from repro.scheduling.kernels import schedule_columns
from repro.scheduling.cga import CGAScheduler
from repro.scheduling.ckk import CKKScheduler
from repro.scheduling.least_loaded import LeastLoadedScheduler
from repro.scheduling.random_assign import RandomScheduler
from repro.scheduling.rckk import RCKKScheduler
from repro.scheduling.round_robin import RoundRobinScheduler
from repro.scheduling.swap_refine import SwapRefinedScheduler
from repro.workload.generator import WorkloadGenerator


@pytest.fixture
def workload():
    gen = WorkloadGenerator(rng=np.random.default_rng(13))
    return gen.workload(num_vnfs=10, num_nodes=16, num_requests=80)


@pytest.fixture
def two_instance_workload():
    """Every VNF deploys exactly two instances (CKK's domain)."""
    gen = WorkloadGenerator(rng=np.random.default_rng(13))
    return gen.workload(
        num_vnfs=10, num_nodes=16, num_requests=80, instance_range=(2, 2)
    )


#: Factories, so each route gets its own scheduler (RandomScheduler's
#: stream advances with every VNF it schedules).
SCHEDULERS = {
    "least_loaded": LeastLoadedScheduler,
    "round_robin": RoundRobinScheduler,
    "rckk": RCKKScheduler,
    "cga": CGAScheduler,
    "ckk": CKKScheduler,
    "random": lambda: RandomScheduler(np.random.default_rng(7)),
    "swap_refined": SwapRefinedScheduler,
}


class TestAssignKernels:
    def test_least_loaded_matches_heap_semantics(self):
        rates = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]
        k = LeastLoadedScheduler().assign(rates, 3).ways
        # Replay by hand: loads start at 0, ties break on lowest index.
        loads = [0.0, 0.0, 0.0]
        expected = []
        for r in rates:
            j = min(range(3), key=lambda i: (loads[i], i))
            expected.append(j)
            loads[j] += r
        assert list(k) == expected

    def test_round_robin_closed_form(self):
        assert list(RoundRobinScheduler().assign([1.0] * 7, 3).ways) == [
            0, 1, 2, 0, 1, 2, 0,
        ]

    def test_rejects_zero_instances(self):
        with pytest.raises(SchedulingError):
            LeastLoadedScheduler().assign([1.0], 0)
        with pytest.raises(SchedulingError):
            RoundRobinScheduler().assign([1.0], 0)


class TestScheduleColumnsParity:
    @pytest.mark.parametrize("policy", sorted(SCHEDULERS))
    def test_rows_identical_to_object_path(
        self, workload, two_instance_workload, policy
    ):
        # Rows in the same order, not just the same row set: the order
        # is the order of the per-instance float sums.
        if policy == "ckk":
            workload = two_instance_workload
        arrays = ScenarioArrays.build(
            workload.vnfs, workload.requests, workload.capacities
        )
        joint = schedule_all_vnfs(
            workload.vnfs, workload.requests, SCHEDULERS[policy]()
        )
        ref = arrays.schedule_arrays(joint)
        got = schedule_columns(arrays, SCHEDULERS[policy]())
        for name in ("req", "vnf", "k", "inst"):
            np.testing.assert_array_equal(
                getattr(got, name), getattr(ref, name), err_msg=name
            )
            assert getattr(got, name).dtype == getattr(ref, name).dtype
        got_loads = arrays.instance_rates(got)[0]
        assert got_loads.tobytes() == arrays.instance_rates(ref)[0].tobytes()

    @pytest.mark.parametrize("policy", ["least_loaded", "round_robin"])
    def test_policy_names_run_their_schedulers(self, workload, policy):
        arrays = ScenarioArrays.build(
            workload.vnfs, workload.requests, workload.capacities
        )
        by_name = schedule_columns(arrays, policy=policy)
        by_object = schedule_columns(arrays, SCHEDULERS[policy]())
        np.testing.assert_array_equal(by_name.req, by_object.req)
        np.testing.assert_array_equal(by_name.k, by_object.k)

    def test_lean_dtype_indices_exact(self, workload):
        lean = ScenarioArrays.build(
            workload.vnfs, workload.requests, workload.capacities,
            dtypes=LEAN_POLICY,
        )
        default = ScenarioArrays.build(
            workload.vnfs, workload.requests, workload.capacities
        )
        got = schedule_columns(lean, policy="round_robin")
        ref = schedule_columns(default, policy="round_robin")
        assert got.req.dtype == np.int32
        np.testing.assert_array_equal(got.req.astype(np.int64), ref.req)
        np.testing.assert_array_equal(got.k.astype(np.int64), ref.k)

    def test_custom_callable_policy(self, workload):
        arrays = ScenarioArrays.build(
            workload.vnfs, workload.requests, workload.capacities
        )
        got = schedule_columns(
            arrays, policy=lambda rates, m: np.zeros(len(rates), dtype=np.int64)
        )
        assert (got.k == 0).all()

    @pytest.mark.parametrize("way", ["m", -1])
    def test_custom_policy_way_out_of_range_rejected(self, workload, way):
        # k == m would be the next VNF's first instance (or past the
        # instance table for the last VNF); k < 0 would index from the end.
        arrays = ScenarioArrays.build(
            workload.vnfs, workload.requests, workload.capacities
        )

        def policy(rates, m):
            return np.full(len(rates), m if way == "m" else way)

        with pytest.raises(SchedulingError, match="outside 0..") as info:
            schedule_columns(arrays, policy)
        assert f"instance {arrays.M_f[0] if way == 'm' else way} " in str(
            info.value
        )
        assert f"for VNF {arrays.vnf_names[0]!r}" in str(info.value)

    def test_custom_policy_checked_against_live_instances(self, workload):
        # With an instance down, ``m`` is the live count: way m - 1 is
        # the last live instance and way m is out of range.
        arrays = ScenarioArrays.build(
            workload.vnfs, workload.requests, workload.capacities
        )
        ptr, users = arrays.vnf_requests()
        f = int(np.argmax(np.diff(ptr) * (arrays.M_f > 2)))
        off, m_f = int(arrays.instance_offset[f]), int(arrays.M_f[f])
        down = np.zeros(arrays.num_instances, dtype=bool)
        down[off] = True
        mine = arrays.eff_rate[users[ptr[f] : ptr[f + 1]]].tolist()

        def last_way_plus(extra):
            # Way m - 1 + extra on VNF f, way 0 everywhere else.
            return lambda rates, m: np.full(
                len(rates), m - 1 + extra if rates == mine else 0
            )

        with pytest.raises(SchedulingError) as info:
            schedule_columns(arrays, last_way_plus(1), down=down)
        assert f"outside 0..{m_f - 2} for VNF {arrays.vnf_names[f]!r}" in str(
            info.value
        )
        got = schedule_columns(arrays, last_way_plus(0), down=down)
        assert (got.inst[got.vnf == f] == off + m_f - 1).all()

    def test_down_instances_get_no_rows(self, workload):
        arrays = ScenarioArrays.build(
            workload.vnfs, workload.requests, workload.capacities
        )
        ptr, users = arrays.vnf_requests()
        f = int(np.argmax(np.diff(ptr) * (arrays.M_f > 2)))
        m, off = int(arrays.M_f[f]), int(arrays.instance_offset[f])
        assert m > 2 and ptr[f + 1] > ptr[f]
        down = np.zeros(arrays.num_instances, dtype=bool)
        down[off] = down[off + 2] = True
        got = schedule_columns(arrays, RCKKScheduler(), down=down)
        assert not down[got.inst].any()
        # VNF f gets RCKK's (m - 2)-way split, way j on its j-th live
        # instance; every other VNF is scheduled as without the mask.
        users = users[ptr[f] : ptr[f + 1]]
        split = RCKKScheduler().assign(arrays.eff_rate[users].tolist(), m - 2)
        live = np.flatnonzero(~down[off : off + m])
        mine = got.vnf == f
        assert got.req[mine].tolist() == users[split.order].tolist()
        assert got.k[mine].tolist() == live[split.ways].tolist()
        ref = schedule_columns(arrays, RCKKScheduler())
        np.testing.assert_array_equal(got.k[~mine], ref.k[ref.vnf != f])

    def test_used_vnf_with_every_instance_down_raises(self, workload):
        arrays = ScenarioArrays.build(
            workload.vnfs, workload.requests, workload.capacities
        )
        ptr, _ = arrays.vnf_requests()
        f = int(np.flatnonzero(np.diff(ptr))[0])
        off = int(arrays.instance_offset[f])
        down = np.zeros(arrays.num_instances, dtype=bool)
        down[off : off + int(arrays.M_f[f])] = True
        with pytest.raises(SchedulingError, match="every instance is down"):
            schedule_columns(arrays, RCKKScheduler(), down=down)

    def test_unknown_policy_rejected(self, workload):
        arrays = ScenarioArrays.build(
            workload.vnfs, workload.requests, workload.capacities
        )
        with pytest.raises(ValidationError):
            schedule_columns(arrays, policy="nope")


class TestEvaluateColumnsParity:
    def test_matches_state_evaluation(self, workload):
        arrays = ScenarioArrays.build(
            workload.vnfs, workload.requests, workload.capacities
        )
        placement = BFDSUPlacement(rng=np.random.default_rng(5)).place(
            PlacementProblem(
                vnfs=workload.vnfs, capacities=workload.capacities
            )
        )
        joint = schedule_all_vnfs(
            workload.vnfs, workload.requests, LeastLoadedScheduler()
        )
        state = DeploymentState(
            vnfs=workload.vnfs,
            requests=workload.requests,
            node_capacities=workload.capacities,
            placement=placement.placement,
            schedule=joint,
        )
        ref = evaluate_deployment(state, with_admission=False)
        got = evaluate_columns(
            arrays,
            arrays.placement_vector(placement.placement),
            schedule_columns(arrays, policy="least_loaded"),
        )
        # evaluate_deployment is evaluate_columns on the state's columns,
        # and schedule_columns reproduces the object schedule row for row,
        # so the two reports are equal field for field.
        assert got == ref
        assert got.num_rejected == 0
