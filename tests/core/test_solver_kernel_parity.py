"""Golden parity: array-native solver kernels vs the legacy loops.

The PR-3 kernels (BFDSU residual-vector construction, flat-array RCKK,
delta-evaluated local search, sorted-partner swap refinement) must be
*byte-identical* to the pre-kernel implementations preserved under
``benchmarks/_reference_impl.py`` — same placements, same assignments,
same move sequences, same iteration counts — for the default seed and
ten derived seeds.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from _reference_impl import (  # noqa: E402
    ReferenceBFDSU,
    reference_kk_multiway,
    reference_refine_assignment,
    reference_refine_placement,
)
from bench_core import build_scenario  # noqa: E402
from repro.core.arrays import ScheduleArrays  # noqa: E402
from repro.core.local_search import (  # noqa: E402
    refine_placement,
    refine_placement_columns,
)
from repro.exceptions import ValidationError  # noqa: E402
from repro.scheduling.kernels import schedule_columns  # noqa: E402
from repro.scheduling.swap_refine import swap_refine_columns  # noqa: E402
from repro.partition.karmarkar_karp import (  # noqa: E402
    karmarkar_karp_multiway,
)
from repro.partition.kernels import kk_multiway_kernel  # noqa: E402
from repro.partition.rckk import (  # noqa: E402
    forward_ckk_partition,
    rckk_partition,
)
from repro.placement.base import PlacementProblem  # noqa: E402
from repro.placement.bfdsu import BFDSUPlacement  # noqa: E402
from repro.scheduling import swap_refine  # noqa: E402
from repro.scheduling.swap_refine import refine_assignment  # noqa: E402
from repro.seeding import DEFAULT_SEED, derive_seed  # noqa: E402
from repro.workload.generator import WorkloadGenerator  # noqa: E402

SEEDS = [DEFAULT_SEED] + [
    derive_seed(DEFAULT_SEED, f"solver-parity-{i}") for i in range(10)
]


@pytest.fixture(scope="module", params=SEEDS)
def seed(request):
    return request.param


@pytest.fixture(scope="module")
def workload(seed):
    gen = WorkloadGenerator(rng=np.random.default_rng(seed))
    return gen.workload(
        num_vnfs=8,
        num_nodes=15,
        num_requests=60,
        instance_range=(2, 6),
        tight_capacities=True,
    )


class TestBFDSUParity:
    def test_identical_placement_and_iterations(self, seed, workload):
        problem = PlacementProblem(
            vnfs=workload.vnfs, capacities=workload.capacities
        )
        kernel = BFDSUPlacement(rng=np.random.default_rng(seed)).place(
            problem
        )
        legacy = ReferenceBFDSU(rng=np.random.default_rng(seed)).place(
            problem
        )
        assert kernel.placement == legacy.placement
        assert kernel.iterations == legacy.iterations


class TestRCKKParity:
    @pytest.mark.parametrize("num_ways", [1, 3, 7])
    def test_identical_subsets_and_iterations(
        self, seed, workload, num_ways
    ):
        rates = [r.effective_rate for r in workload.requests]
        kernel = rckk_partition(rates, num_ways)
        legacy = reference_kk_multiway(
            rates, num_ways, reverse_combine=True
        )
        assert kernel.subsets == legacy.subsets
        assert kernel.iterations == legacy.iterations

    def test_forward_ablation_identical(self, seed, workload):
        rates = [r.effective_rate for r in workload.requests]
        kernel = forward_ckk_partition(rates, 4)
        legacy = reference_kk_multiway(rates, 4, reverse_combine=False)
        assert kernel.subsets == legacy.subsets
        assert kernel.iterations == legacy.iterations


# Tie-heavy rates: zeros, small ints, multiples of 0.1 (inexact in
# binary, so sums of them tie or miss by an ulp) and a few repeated
# floats.  Distinct uniform rates never reach the stable-sort tie order
# that the kernel's insertion path has to reproduce.
_TIE_ATOMS = st.one_of(
    st.just(0.0),
    st.just(0),
    st.integers(0, 6),
    st.integers(0, 30).map(lambda k: k * 0.1),
    st.sampled_from([0.5, 1.0, 2.5]),
    st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def _tie_heavy_values(draw):
    pool = draw(st.lists(_TIE_ATOMS, min_size=1, max_size=6))
    return draw(st.lists(st.sampled_from(pool) | _TIE_ATOMS, max_size=80))


def _assert_kernel_matches_legacy(values, num_ways, reverse_combine):
    kernel = kk_multiway_kernel(values, num_ways, reverse_combine)
    legacy = karmarkar_karp_multiway(values, num_ways, reverse_combine)
    # List equality covers the subsets and the order inside each one.
    assert kernel.subsets == legacy.subsets
    assert kernel.iterations == legacy.iterations


class TestRCKKTieParity:
    @settings(max_examples=300, deadline=None)
    @given(
        values=_tie_heavy_values(),
        num_ways=st.integers(1, 24),
        reverse_combine=st.booleans(),
    )
    def test_tie_heavy_inputs(self, values, num_ways, reverse_combine):
        _assert_kernel_matches_legacy(values, num_ways, reverse_combine)

    def test_singleton_wins_a_tie_with_a_combined_head(self):
        # 4 and 3 combine into (1, 0) with subsets [0] | [1].  Its head
        # 1 ties both remaining singletons; each singleton's counter (its
        # index) is below every combined counter, so the singletons pop
        # first: 2 and 3 combine to (0, 0), and (1, 0) then takes it
        # reversed.  Were the tie broken the other way, (1, 0) would
        # absorb 2 and give [[3, 1, 2], [0]].
        values = [4.0, 3.0, 1.0, 1.0]
        assert kk_multiway_kernel(values, 2).subsets == [[0, 3], [1, 2]]
        _assert_kernel_matches_legacy(values, 2, True)

    @pytest.mark.parametrize("reverse_combine", [True, False])
    def test_serve_shape(self, reverse_combine):
        # One VNF's users at a serving-engine rebalance: ~300 rates into
        # ~20 ways, rounded to 0.05 so equal rates and equal sums occur.
        rng = np.random.default_rng(derive_seed(DEFAULT_SEED, "rckk-serve"))
        rates = np.round(rng.uniform(0.5, 4.0, size=300) * 20) / 20
        _assert_kernel_matches_legacy(rates.tolist(), 20, reverse_combine)


class TestLocalSearchParity:
    def test_identical_moves_report_and_placement(self, seed):
        solution, _, _ = build_scenario(60, 15, 8, seed=seed)
        state = solution.state
        baseline = dict(state.placement)

        kernel_trace = []
        kernel_report = refine_placement(state, trace=kernel_trace)
        kernel_final = dict(state.placement)

        state.placement.clear()
        state.placement.update(baseline)
        legacy_trace = []
        legacy_report = reference_refine_placement(
            state, trace=legacy_trace
        )
        legacy_final = dict(state.placement)

        assert kernel_trace == legacy_trace
        assert kernel_report == legacy_report
        assert kernel_final == legacy_final


class TestSwapRefineParity:
    def test_identical_assignment_and_moves(self, seed, workload):
        rates = [r.effective_rate for r in workload.requests]
        num_ways = max(f.num_instances for f in workload.vnfs)
        start = [i % num_ways for i in range(len(rates))]
        assert refine_assignment(
            rates, start, num_ways
        ) == reference_refine_assignment(rates, start, num_ways)


@st.composite
def refine_cases(draw):
    """Tie-heavy refine inputs with an arbitrary start assignment.

    Integer rates and one-decimal rates repeat values often, and sums of
    decimals round, so many candidates tie or near-tie; continuous rates
    cover the generic case.
    """
    num_ways = draw(st.integers(2, 8))
    rates = draw(
        st.one_of(
            st.lists(st.integers(0, 6).map(float), max_size=40),
            st.lists(
                st.sampled_from([0.1, 0.2, 0.3, 0.7, 0.8, 1.1]), max_size=40
            ),
            st.lists(st.floats(0.0, 100.0), max_size=40),
        )
    )
    start = draw(
        st.lists(
            st.integers(0, num_ways - 1),
            min_size=len(rates),
            max_size=len(rates),
        )
    )
    return rates, start, num_ways, draw(st.integers(1, 20))


class TestSwapRefineTieParity:
    """The sorted-partner kernel selects exactly the legacy scan's move."""

    @settings(max_examples=300, deadline=None)
    @given(refine_cases())
    def test_matches_reference(self, case):
        assert refine_assignment(*case) == reference_refine_assignment(*case)

    @pytest.mark.parametrize(
        "rates, start, expected",
        [
            # Swapping 9 with 4.0 (delta 2 - 1e-13) comes before swapping
            # it with 4.0 + 1e-13 (delta 2.0) in the same block: the
            # second does not beat the first by the margin.
            ([9.0, 1.0, 5.0, 4.0, 4.0 + 1e-13], [0, 0, 0, 1, 1],
             [1, 0, 0, 0, 1]),
            # Moving 3.0 (delta 3.0) comes before moving 3.0 + 1e-13
            # (delta 3.0 + 1e-13), a block later.
            ([3.0, 3.0 + 1e-13, 1.0, 1.0], [0, 0, 0, 0], [1, 0, 0, 0]),
        ],
    )
    def test_margin_keeps_the_first_near_tie(self, rates, start, expected):
        assert refine_assignment(rates, start, 2, 1) == (expected, 1)
        assert reference_refine_assignment(rates, start, 2, 1) == (
            expected,
            1,
        )

    def test_rounded_crossing_is_confirmed_exactly(self, monkeypatch):
        # Key 0.8 - (0.9 - 0.7) / 2 lands on the partner 0.7, but the
        # exact sums (0.7999999999999999 < 0.8) put the crossing past it.
        calls = []
        exact = swap_refine._first_crossing
        monkeypatch.setattr(
            swap_refine,
            "_first_crossing",
            lambda *args: calls.append(args) or exact(*args),
        )
        case = ([0.8, 0.7, 0.1], [0, 2, 0], 3)
        assert refine_assignment(*case) == reference_refine_assignment(*case)
        assert calls


#: Float columns subject to the dtype policy (quantized for parity).
_FLOAT_COLS = (
    "D_f", "mu_f", "total_demand_f", "mu_inst", "A_v",
    "lambda_r", "P_r", "eff_rate",
)
#: Index columns subject to the dtype policy.
_INT_COLS = (
    "instance_offset", "inst_vnf", "chain_req", "chain_vnf", "chain_ptr",
)


def quantized_twins(arrays):
    """Default- and lean-policy views of the same column *values*.

    Float values are quantized through float32 first, so the lean twin
    (float32 storage) and the default twin (float64 storage) represent
    bit-for-bit identical numbers — the precondition for byte-identical
    refinement, since widening float32 to float64 is exact.
    """
    quantized = {
        c: getattr(arrays, c).astype(np.float32) for c in _FLOAT_COLS
    }
    default = dataclasses.replace(
        arrays,
        **{c: quantized[c].astype(np.float64) for c in _FLOAT_COLS},
    )
    lean = dataclasses.replace(
        arrays,
        **quantized,
        **{c: getattr(arrays, c).astype(np.int32) for c in _INT_COLS},
    )
    return default, lean


class TestLeanRefineParity:
    """LEAN int32/float32 columns refine byte-identically to DEFAULT."""

    def test_refine_placement_columns_lean_parity(self, seed):
        solution, _, _ = build_scenario(60, 15, 8, seed=seed)
        state = solution.state
        arrays = state.arrays()
        vec = arrays.placement_vector(state.placement)
        default, lean = quantized_twins(arrays)

        vec_d = vec.copy()
        vec_l = vec.astype(np.int32)
        trace_d, trace_l = [], []
        report_d = refine_placement_columns(default, vec_d, trace=trace_d)
        report_l = refine_placement_columns(lean, vec_l, trace=trace_l)

        assert trace_d == trace_l
        assert report_d == report_l
        np.testing.assert_array_equal(vec_d, vec_l.astype(np.int64))

    def test_swap_refine_columns_lean_parity(self, seed):
        solution, _, _ = build_scenario(60, 15, 8, seed=seed)
        arrays = solution.state.arrays()
        default, lean = quantized_twins(arrays)
        sched = schedule_columns(default)
        sched_lean = ScheduleArrays(
            req=sched.req.astype(np.int32),
            vnf=sched.vnf.astype(np.int32),
            k=sched.k.astype(np.int32),
            inst=sched.inst.astype(np.int32),
        )

        refined_d, moves_d = swap_refine_columns(default, sched)
        refined_l, moves_l = swap_refine_columns(lean, sched_lean)

        assert moves_d == moves_l
        np.testing.assert_array_equal(
            refined_d.k, refined_l.k.astype(np.int64)
        )
        np.testing.assert_array_equal(
            refined_d.inst, refined_l.inst.astype(np.int64)
        )
        assert refined_l.k.dtype == np.int32
        assert refined_l.inst.dtype == np.int32

    def test_swap_refine_overflow_guard(self, seed):
        # Refinement may pick ANY of a VNF's M_f slots, so a slot-index
        # dtype too narrow for max(M_f) must fail loudly up front
        # instead of wrapping int8 slot indices silently.
        solution, _, _ = build_scenario(30, 10, 5, seed=seed)
        arrays = solution.state.arrays()
        sched = schedule_columns(arrays)
        tiny = ScheduleArrays(
            req=sched.req,
            vnf=sched.vnf,
            k=sched.k.astype(np.int8),
            inst=sched.inst,
        )
        swap_refine_columns(arrays, tiny)  # max(M_f) fits int8: fine
        oversubscribed = dataclasses.replace(
            arrays, M_f=arrays.M_f + np.int64(200)
        )
        with pytest.raises(ValidationError):
            swap_refine_columns(oversubscribed, tiny)

    def test_refine_placement_overflow_guard(self, seed):
        solution, _, _ = build_scenario(30, 150, 5, seed=seed)
        arrays = solution.state.arrays()
        # A full placement on node 0 is representable in int8, but
        # relocation targets range over all 150 nodes — reject.
        vec8 = np.zeros(len(arrays.vnf_names), dtype=np.int8)
        with pytest.raises(ValidationError):
            refine_placement_columns(arrays, vec8)
