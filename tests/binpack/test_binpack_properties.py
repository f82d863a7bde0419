"""Property-based tests: the placement heuristics respect the bin bound."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.binpack.lower_bounds import min_bins_possible
from repro.nfv.vnf import VNF
from repro.placement.base import PlacementProblem
from repro.placement.bfdsu import BFDSUPlacement
from repro.placement.ffd import FFDPlacement

# Multiples of 1/64 up to 3.0: every sum is exact, so no verdict hangs
# on a fit tolerance, and each item fits a capacity-4 node on its own.
sizes_strategy = st.lists(
    st.integers(min_value=1, max_value=192).map(lambda k: k / 64.0),
    min_size=1,
    max_size=25,
)


def _problem(sizes, caps):
    return PlacementProblem(
        vnfs=[VNF(f"f{i}", s, 1, 100.0) for i, s in enumerate(sizes)],
        capacities={f"n{i}": c for i, c in enumerate(caps)},
    )


@given(sizes=sizes_strategy, seed=st.integers(min_value=0, max_value=99))
@settings(max_examples=40, deadline=None)
def test_heuristics_respect_lower_bound(sizes, seed):
    caps = [4.0] * len(sizes)
    bound = min_bins_possible(sizes, caps)
    problem = _problem(sizes, caps)
    for placer in (
        FFDPlacement(),
        BFDSUPlacement(rng=np.random.default_rng(seed)),
    ):
        assert placer.place(problem).num_used_nodes >= bound
