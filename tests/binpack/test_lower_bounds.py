"""Unit tests for the bin-count lower bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.binpack.lower_bounds import (
    best_l2_lower_bound,
    continuous_lower_bound,
    l2_lower_bound,
    min_bins_possible,
)
from repro.exceptions import ValidationError
from repro.nfv.vnf import VNF
from repro.placement.base import PlacementProblem
from repro.placement.bfdsu import BFDSUPlacement
from repro.placement.exact import ExactPlacement
from repro.placement.ffd import FFDPlacement


class TestContinuousBound:
    def test_uniform_bins(self):
        # Total 10 over capacity-4 bins -> at least 3 bins.
        assert continuous_lower_bound([4.0, 3.0, 3.0], [4.0] * 5) == 3

    def test_heterogeneous_prefers_largest(self):
        # Total 10; one big bin of 10 suffices.
        assert continuous_lower_bound([5.0, 5.0], [10.0, 2.0, 2.0]) == 1

    def test_zero_items(self):
        assert continuous_lower_bound([], [5.0]) == 0

    def test_infeasible_raises(self):
        with pytest.raises(ValidationError):
            continuous_lower_bound([10.0], [4.0, 4.0])


class TestL2Bound:
    def test_threshold_zero_is_volume(self):
        assert l2_lower_bound([3.0, 3.0, 3.0], 5.0, threshold=0.0) == 2

    def test_big_items_counted_individually(self):
        # Threshold 2: items > 3 get private bins.
        bound = l2_lower_bound([4.0, 4.0, 1.0], 5.0, threshold=2.0)
        assert bound >= 2

    def test_improves_on_volume(self):
        # Six items of 0.6 into unit bins: volume says 4, L2 with t=0.5
        # says 6 (no two 0.6 items share a bin).
        sizes = [0.6] * 6
        assert l2_lower_bound(sizes, 1.0, threshold=0.0) == 4
        assert best_l2_lower_bound(sizes, 1.0) == 6

    def test_invalid_threshold(self):
        with pytest.raises(ValidationError):
            l2_lower_bound([1.0], 2.0, threshold=1.5)

    def test_invalid_capacity(self):
        with pytest.raises(ValidationError):
            l2_lower_bound([1.0], 0.0)


class TestMinBinsPossible:
    def test_uniform_uses_l2(self):
        assert min_bins_possible([0.6] * 6, [1.0] * 10) == 6

    def test_heterogeneous_uses_continuous(self):
        assert min_bins_possible([5.0, 5.0], [10.0, 2.0]) == 1

    def test_bound_is_sound_for_ffd(self):
        # Any heuristic solution must use at least the bound.
        sizes = [3.0, 3.0, 2.0, 2.0, 2.0, 4.0]
        caps = [5.0] * 6
        bound = min_bins_possible(sizes, caps)
        problem = PlacementProblem(
            vnfs=[VNF(f"f{i}", s, 1, 100.0) for i, s in enumerate(sizes)],
            capacities={f"n{i}": c for i, c in enumerate(caps)},
        )
        assert FFDPlacement().place(problem).num_used_nodes >= bound


@st.composite
def _instances(draw):
    """Small placement instances with exactly representable sizes.

    Demands are multiples of 0.25 and capacities integers, so every sum
    is exact and no verdict hangs on a fit tolerance.  One node per VNF
    with capacity >= the largest demand keeps every instance feasible
    for BFDSU and FFD as well as for the exact search.
    """
    quarters = draw(st.lists(st.integers(2, 20), min_size=1, max_size=8))
    demands = [q / 4.0 for q in quarters]
    cap = st.integers(5, 10).map(float)
    if draw(st.booleans()):
        caps = [draw(cap)] * len(demands)  # uniform: the L2 bound applies
    else:
        caps = draw(
            st.lists(cap, min_size=len(demands), max_size=len(demands))
        )
    return demands, caps


@given(instance=_instances(), seed=st.integers(min_value=0, max_value=99))
@settings(max_examples=60, deadline=None)
def test_bound_sandwiches_exact_and_heuristics(instance, seed):
    """``min_bins_possible <= OPT <= BFDSU, FFD`` on nodes in service."""
    demands, caps = instance
    problem = PlacementProblem(
        vnfs=[VNF(f"f{i}", d, 1, 100.0) for i, d in enumerate(demands)],
        capacities={f"n{i}": c for i, c in enumerate(caps)},
    )
    optimum = ExactPlacement().place(problem).num_used_nodes
    bfdsu = BFDSUPlacement(rng=np.random.default_rng(seed)).place(problem)
    ffd = FFDPlacement().place(problem)
    assert min_bins_possible(demands, caps) <= optimum
    assert optimum <= bfdsu.num_used_nodes
    assert optimum <= ffd.num_used_nodes
