"""Construction-parity and invariance tests for ``repro.workload.stream``.

The streamed columns must exactly equal ``ScenarioArrays.build`` over
the request objects the same scenario materializes — that pins the
stream path to the object path without requiring identical RNG
consumption (the stream path has its own documented draw layout).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.arrays import ScenarioArrays
from repro.core.dtypes import LEAN_POLICY
from repro.exceptions import ConfigurationError
from repro.workload.stream import (
    ChainNamesView,
    SequentialIds,
    SequentialIndex,
    materialize_requests,
    rescale_to_stability,
    stream_scenario,
)

REQUEST_COLUMNS = (
    "lambda_r", "P_r", "eff_rate", "chain_req", "chain_vnf", "chain_ptr",
)


def small_scenario(seed=0, **kw):
    kw.setdefault("num_vnfs", 9)
    kw.setdefault("num_nodes", 15)
    kw.setdefault("num_requests", 120)
    return stream_scenario(rng=np.random.default_rng(seed), **kw)


class TestConstructionParity:
    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_columns_match_object_build(self, seed):
        scn = small_scenario(seed, delivery_probability=0.99)
        ref = ScenarioArrays.build(
            scn.vnfs, materialize_requests(scn), scn.capacities
        )
        for name in REQUEST_COLUMNS:
            got = getattr(scn.arrays, name)
            np.testing.assert_array_equal(
                got, getattr(ref, name), err_msg=name
            )
            assert got.dtype == getattr(ref, name).dtype, name
        np.testing.assert_array_equal(scn.arrays.A_v, ref.A_v)
        np.testing.assert_array_equal(scn.arrays.M_f, ref.M_f)
        assert list(scn.arrays.request_ids) == list(ref.request_ids)
        assert list(scn.arrays.chain_names) == list(ref.chain_names)
        assert dict(scn.arrays.request_index) == dict(ref.request_index)

    def test_chunk_size_invariance(self):
        base = small_scenario(3)
        for chunk in (1, 7, 64, 10_000):
            other = small_scenario(3, chunk_size=chunk)
            for name in REQUEST_COLUMNS:
                np.testing.assert_array_equal(
                    getattr(other.arrays, name),
                    getattr(base.arrays, name),
                    err_msg=f"{name} @ chunk={chunk}",
                )

    def test_lean_policy_parity(self):
        default = small_scenario(5)
        lean = small_scenario(5, dtypes=LEAN_POLICY)
        assert lean.arrays.index_dtype == np.int32
        assert lean.arrays.float_dtype == np.float32
        np.testing.assert_array_equal(
            lean.arrays.chain_vnf.astype(np.int64), default.arrays.chain_vnf
        )
        np.testing.assert_allclose(
            lean.arrays.lambda_r.astype(np.float64),
            default.arrays.lambda_r,
            rtol=1e-6,
        )
        # Lean columns equal the lean object build exactly, too.
        ref = ScenarioArrays.build(
            lean.vnfs, materialize_requests(lean), lean.capacities,
            dtypes=LEAN_POLICY,
        )
        np.testing.assert_array_equal(lean.arrays.lambda_r, ref.lambda_r)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            small_scenario(0, num_requests=0)
        with pytest.raises(ConfigurationError):
            small_scenario(0, chunk_size=0)
        with pytest.raises(ConfigurationError):
            small_scenario(0, rate_range=(0.0, 1.0))
        with pytest.raises(ConfigurationError):
            small_scenario(0, delivery_probability=0.0)


class TestLazyViews:
    def test_sequential_ids(self):
        ids = SequentialIds("r", 5)
        assert len(ids) == 5
        assert ids[0] == "r0"
        assert ids[-1] == "r4"
        assert ids[1:3] == ["r1", "r2"]
        assert list(ids) == ["r0", "r1", "r2", "r3", "r4"]
        with pytest.raises(IndexError):
            ids[5]

    def test_sequential_index(self):
        idx = SequentialIndex("r", 5)
        assert idx["r3"] == 3
        assert idx.get("r9") is None
        assert idx.get("r03") is None  # non-canonical: leading zero
        assert idx.get("x1") is None
        assert "r0" in idx and "r5" not in idx
        assert len(idx) == 5
        assert dict(idx) == {f"r{i}": i for i in range(5)}
        with pytest.raises(KeyError):
            idx["nope"]

    def test_chain_names_view(self):
        view = ChainNamesView(("fw", "nat"), np.array([1, 0, 1]))
        assert len(view) == 3
        assert view[0] == "nat"
        assert view[1:] == ["fw", "nat"]
        assert list(view) == ["nat", "fw", "nat"]

    def test_streamed_scenario_is_mutable_after_materialization(self):
        scn = small_scenario(2, num_requests=10)
        reqs = materialize_requests(scn)
        extra = type(reqs[0])(
            request_id="extra",
            chain=reqs[0].chain,
            arrival_rate=2.0,
        )
        row = scn.arrays.append_requests([extra])
        assert row == 10
        assert scn.arrays.request_index["extra"] == 10
        assert scn.arrays.request_index["r3"] == 3


class TestStabilityRescale:
    def test_matches_object_reference(self):
        scn = small_scenario(4, num_requests=300)
        arr = scn.arrays
        # Object-path reference: worst pool utilization and per-request
        # rescale, exactly as benchmarks/bench_core.py does it.
        requests = materialize_requests(scn)
        load = {f.name: 0.0 for f in scn.vnfs}
        for r in requests:
            for name in r.chain.vnf_names:
                load[name] += r.effective_rate
        worst = max(
            load[f.name] / (f.num_instances * f.service_rate)
            for f in scn.vnfs
        )
        scale = rescale_to_stability(scn, target=0.7)
        if worst <= 0.7:
            assert scale == 1.0
        else:
            assert scale == pytest.approx(0.7 / worst, abs=0.0)
            expected = np.array(
                [r.arrival_rate * (0.7 / worst) for r in requests]
            )
            np.testing.assert_array_equal(arr.lambda_r, expected)
            np.testing.assert_array_equal(
                arr.eff_rate, arr.lambda_r / arr.P_r
            )
        assert scn.stability_scale == scale

    def test_noop_when_stable(self):
        scn = small_scenario(6, num_requests=5, num_nodes=8)
        rescale_to_stability(scn, target=0.999999)
        before = scn.arrays.lambda_r.copy()
        scale = rescale_to_stability(scn, target=0.999999)
        # Second pass is (at most) a tiny correction; a stable scenario
        # returns exactly 1.0 and leaves the columns untouched.
        if scale == 1.0:
            np.testing.assert_array_equal(scn.arrays.lambda_r, before)

    def test_rejects_bad_target(self):
        scn = small_scenario(1, num_requests=5)
        with pytest.raises(ConfigurationError):
            rescale_to_stability(scn, target=1.5)
