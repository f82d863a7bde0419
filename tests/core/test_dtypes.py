"""Dtype-policy tests: lean int32/float32 columns vs the defaults.

Index columns must stay *exact* under the lean policy (guarded against
overflow at construction); float columns carry single-precision
rounding pinned here at explicit tolerances.  The default policy must
remain byte-identical to the historical columns — the existing parity
suites enforce that transitively, but the identity checks here fail
fast if a dtype leaks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.arrays import ScenarioArrays
from repro.core.dtypes import (
    DEFAULT_POLICY,
    LEAN_POLICY,
    DtypePolicy,
    ensure_index_capacity,
    resolve_policy,
)
from repro.core.evaluation import evaluate_deployment
from repro.core.joint import JointOptimizer
from repro.exceptions import ValidationError
from repro.placement.bfdsu import BFDSUPlacement
from repro.sim.kernels import fcfs_sojourn_times, lindley_departure_times
from repro.workload.generator import WorkloadGenerator


@pytest.fixture
def workload():
    gen = WorkloadGenerator(rng=np.random.default_rng(7))
    return gen.workload(num_vnfs=8, num_nodes=12, num_requests=40)


INDEX_COLUMNS = (
    "M_f", "instance_offset", "inst_vnf", "chain_req", "chain_vnf",
    "chain_ptr",
)
FLOAT_COLUMNS = (
    "D_f", "mu_f", "total_demand_f", "A_v", "lambda_r", "P_r",
    "eff_rate", "mu_inst",
)


class TestPolicyObjects:
    def test_resolve_none_is_default(self):
        assert resolve_policy(None) is DEFAULT_POLICY

    def test_resolve_passthrough(self):
        assert resolve_policy(LEAN_POLICY) is LEAN_POLICY

    def test_resolve_rejects_raw_dtypes(self):
        with pytest.raises(ValidationError):
            resolve_policy(np.int32)

    def test_policy_validates_kinds(self):
        with pytest.raises(ValidationError):
            DtypePolicy(np.dtype(np.uint32), np.dtype(np.float64))
        with pytest.raises(ValidationError):
            DtypePolicy(np.dtype(np.int64), np.dtype(np.int64))

    def test_capacity_guard(self):
        ensure_index_capacity(2**31 - 1, np.int32, "ok")
        with pytest.raises(ValidationError, match="chain CSR"):
            ensure_index_capacity(2**31, np.int32, "chain CSR table")


class TestLeanColumns:
    def test_default_dtypes_unchanged(self, workload):
        arr = ScenarioArrays.build(
            workload.vnfs, workload.requests, workload.capacities
        )
        for name in INDEX_COLUMNS:
            assert getattr(arr, name).dtype == np.int64, name
        for name in FLOAT_COLUMNS:
            assert getattr(arr, name).dtype == np.float64, name
        assert arr.index_dtype == np.int64
        assert arr.float_dtype == np.float64

    def test_lean_index_columns_exact(self, workload):
        ref = ScenarioArrays.build(
            workload.vnfs, workload.requests, workload.capacities
        )
        lean = ScenarioArrays.build(
            workload.vnfs, workload.requests, workload.capacities,
            dtypes=LEAN_POLICY,
        )
        for name in INDEX_COLUMNS:
            col = getattr(lean, name)
            assert col.dtype == np.int32, name
            np.testing.assert_array_equal(
                col.astype(np.int64), getattr(ref, name), err_msg=name
            )

    def test_lean_float_columns_close(self, workload):
        ref = ScenarioArrays.build(
            workload.vnfs, workload.requests, workload.capacities
        )
        lean = ScenarioArrays.build(
            workload.vnfs, workload.requests, workload.capacities,
            dtypes=LEAN_POLICY,
        )
        for name in FLOAT_COLUMNS:
            col = getattr(lean, name)
            assert col.dtype == np.float32, name
            np.testing.assert_allclose(
                col.astype(np.float64), getattr(ref, name),
                rtol=1e-6, err_msg=name,
            )

    def test_schedule_arrays_follow_policy(self, workload):
        lean = ScenarioArrays.build(
            workload.vnfs, workload.requests, workload.capacities,
            dtypes=LEAN_POLICY,
        )
        solution = JointOptimizer(
            placement=BFDSUPlacement(rng=np.random.default_rng(3))
        ).optimize(
            workload.vnfs, workload.requests, workload.capacities
        )
        sched = lean.schedule_arrays(solution.schedule)
        assert sched.req.dtype == np.int32
        assert sched.vnf.dtype == np.int32
        assert sched.k.dtype == np.int32

    def test_mutation_keeps_lean_dtypes(self, workload):
        lean = ScenarioArrays.build(
            workload.vnfs, workload.requests, workload.capacities,
            dtypes=LEAN_POLICY,
        )
        req = workload.requests[0]
        extra = type(req)(
            request_id="extra",
            chain=req.chain,
            arrival_rate=5.0,
            delivery_probability=1.0,
        )
        row = lean.append_requests([extra])
        assert row == len(workload.requests)
        assert lean.lambda_r.dtype == np.float32
        assert lean.chain_req.dtype == np.int32
        assert lean.lambda_r[row] == np.float32(5.0)


class TestLeanEndToEnd:
    def test_evaluation_close_to_default(self, workload):
        solution = JointOptimizer(
            placement=BFDSUPlacement(rng=np.random.default_rng(11))
        ).optimize(
            workload.vnfs, workload.requests, workload.capacities
        )
        state = solution.state
        ref = evaluate_deployment(state)
        lean_arrays = ScenarioArrays.build(
            workload.vnfs, workload.requests, workload.capacities,
            dtypes=LEAN_POLICY,
        )
        # Seed the state's column cache with the lean build so the
        # whole evaluation pipeline runs on int32/float32 columns.
        state._schedule_arrays_cache = None
        state._scenario_arrays = lean_arrays
        lean = evaluate_deployment(state)
        assert lean.total_latency == pytest.approx(
            ref.total_latency, rel=1e-5
        )
        assert lean.average_response_latency == pytest.approx(
            ref.average_response_latency, rel=1e-5
        )
        assert lean.nodes_in_service == ref.nodes_in_service
        assert lean.num_rejected == ref.num_rejected

    def test_sim_kernels_preserve_float32(self):
        rng = np.random.default_rng(0)
        A64 = np.sort(rng.uniform(0.0, 10.0, size=256))
        S64 = rng.uniform(0.01, 0.1, size=256)
        D64 = lindley_departure_times(A64, S64)
        D32 = lindley_departure_times(
            A64.astype(np.float32), S64.astype(np.float32)
        )
        assert D32.dtype == np.float32
        np.testing.assert_allclose(D32, D64, rtol=1e-5)
        W32 = fcfs_sojourn_times(
            A64.astype(np.float32), S64.astype(np.float32), horizon=9.0
        )
        assert W32.dtype == np.float32
        W64 = fcfs_sojourn_times(A64, S64, horizon=9.0)
        assert len(W32) == len(W64)


class TestOverflowGuards:
    def test_build_rejects_oversized_chain_table(self, workload):
        tiny = DtypePolicy(np.dtype(np.int8), np.dtype(np.float32))
        with pytest.raises(ValidationError, match="int8"):
            ScenarioArrays.build(
                workload.vnfs, workload.requests * 10, workload.capacities,
                dtypes=tiny,
            )

    def test_instance_count_guarded_before_cumsum(self):
        from repro.nfv.vnf import VNF

        tiny = DtypePolicy(np.dtype(np.int8), np.dtype(np.float32))
        vnfs = [
            VNF(f"f{i}", demand_per_instance=1.0, num_instances=25,
                service_rate=10.0)
            for i in range(8)
        ]
        with pytest.raises(ValidationError, match="instance"):
            ScenarioArrays.build(vnfs, (), {"n0": 100.0}, dtypes=tiny)
