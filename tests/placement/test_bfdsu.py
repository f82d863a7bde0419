"""Unit tests for the BFDSU placement algorithm (Algorithm 1)."""

import numpy as np
import pytest

from repro.nfv.vnf import VNF
from repro.placement.base import PlacementProblem
from repro.placement.bfdsu import BFDSUPlacement, placement_weights


def _problem(demands, capacities):
    vnfs = [VNF(f"f{i}", d, 1, 100.0) for i, d in enumerate(demands)]
    caps = {f"n{i}": c for i, c in enumerate(capacities)}
    return PlacementProblem(vnfs=vnfs, capacities=caps)


class TestWeights:
    def test_formula(self):
        # P_rst(v) = 1 / (1 + RST(v) - demand).
        weights = placement_weights([5.0, 8.0], demand=5.0)
        assert weights == [pytest.approx(1.0), pytest.approx(0.25)]

    def test_tightest_gets_largest_weight(self):
        weights = placement_weights([3.0, 5.0, 10.0], demand=3.0)
        assert weights[0] > weights[1] > weights[2]

    def test_exact_fit_weight_is_one(self):
        assert placement_weights([4.0], 4.0) == [pytest.approx(1.0)]


class TestPlacement:
    def test_feasible_and_valid(self):
        problem = _problem([6.0, 5.0, 4.0, 3.0], [10.0, 10.0])
        result = BFDSUPlacement(rng=np.random.default_rng(0)).place(problem)
        result.validate()
        assert result.algorithm == "BFDSU"

    def test_prefers_used_nodes(self):
        # Plenty of nodes; consolidation should not use them all.
        problem = _problem([2.0] * 6, [20.0] * 6)
        result = BFDSUPlacement(rng=np.random.default_rng(1)).place(problem)
        assert result.num_used_nodes == 1

    def test_single_vnf(self):
        problem = _problem([5.0], [10.0, 10.0])
        result = BFDSUPlacement(rng=np.random.default_rng(2)).place(problem)
        assert result.num_used_nodes == 1

    def test_exact_fit_instance(self):
        problem = _problem([5.0, 5.0], [5.0, 5.0])
        result = BFDSUPlacement(rng=np.random.default_rng(3)).place(problem)
        result.validate()
        assert result.num_used_nodes == 2

    def test_deterministic_given_seed(self):
        problem_a = _problem([6.0, 5.0, 4.0], [10.0, 10.0])
        problem_b = _problem([6.0, 5.0, 4.0], [10.0, 10.0])
        a = BFDSUPlacement(rng=np.random.default_rng(7)).place(problem_a)
        b = BFDSUPlacement(rng=np.random.default_rng(7)).place(problem_b)
        assert a.placement == b.placement

    def test_iterations_at_least_num_vnfs(self):
        problem = _problem([3.0, 2.0, 1.0], [10.0])
        result = BFDSUPlacement(rng=np.random.default_rng(4)).place(problem)
        assert result.iterations >= 3

    def test_infeasible_detected_fast(self):
        problem = _problem([6.0, 6.0], [7.0])
        with pytest.raises(Exception):
            BFDSUPlacement(rng=np.random.default_rng(5)).place(problem)

    def test_restart_budget_exhaustion(self):
        # Feasible only via a perfect split; with max_restarts=0 a single
        # unlucky attempt raises MaxRestartsExceededError.  Use a seed
        # known to draw the dead-end branch.
        problem = _problem([4.0, 3.0, 3.0, 2.0], [6.0, 6.0])
        algo = BFDSUPlacement(
            rng=np.random.default_rng(0), max_restarts=200
        )
        result = algo.place(problem)  # must eventually succeed
        result.validate()

    def test_hard_instance_succeeds_with_restarts(self):
        # Tight pack: items sum exactly to capacities.
        problem = _problem([5.0, 4.0, 3.0, 3.0, 3.0], [9.0, 9.0])
        result = BFDSUPlacement(rng=np.random.default_rng(11)).place(problem)
        result.validate()
        assert result.num_used_nodes == 2


class TestConsolidationQuality:
    def test_beats_or_ties_worst_fit_on_average(self):
        from repro.placement.random_fit import RandomFitPlacement

        rng = np.random.default_rng(42)
        bfdsu_nodes, random_nodes = [], []
        for rep in range(20):
            demands = list(rng.uniform(2.0, 8.0, size=10))
            caps = [15.0] * 10
            p1 = _problem(demands, caps)
            p2 = _problem(demands, caps)
            bfdsu_nodes.append(
                BFDSUPlacement(rng=np.random.default_rng(rep)).place(p1).num_used_nodes
            )
            random_nodes.append(
                RandomFitPlacement(rng=np.random.default_rng(rep)).place(p2).num_used_nodes
            )
        assert np.mean(bfdsu_nodes) < np.mean(random_nodes)


class TestBatchedDraws:
    """``draw_block`` amortizes RNG dispatch without changing placements."""

    def test_uniform_block_matches_scalar_stream(self):
        from repro.core.deltas import UniformBlock

        block = UniformBlock(np.random.default_rng(5), block=7)
        scalar = np.random.default_rng(5)
        for _ in range(25):
            assert block.next() == scalar.random()

    def test_scaled_block_draw_is_uniform_bitwise(self):
        # The identity the whole feature rests on:
        # uniform(0, s) == s * random(), one double consumed.
        for seed in range(10):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            s = 3.7215
            assert a.uniform(0.0, s) == s * b.random()

    def test_block_validates(self):
        from repro.core.deltas import UniformBlock

        with pytest.raises(ValueError):
            UniformBlock(np.random.default_rng(0), block=0)

    @pytest.mark.parametrize("block", [1, 3, 4096])
    def test_placements_identical_any_block_size(self, block):
        rng = np.random.default_rng(99)
        for seed in range(8):
            demands = list(rng.uniform(2.0, 8.0, size=30))
            problem_a = _problem(demands, [15.0] * 12)
            problem_b = _problem(demands, [15.0] * 12)
            plain = BFDSUPlacement(rng=np.random.default_rng(seed)).place(
                problem_a
            )
            batched = BFDSUPlacement(
                rng=np.random.default_rng(seed), draw_block=block
            ).place(problem_b)
            assert batched.placement == plain.placement
            assert batched.iterations == plain.iterations

    def test_parity_through_restarts(self):
        # Tight pack forces "go back to Begin"; the draw sequence must
        # stay aligned across discarded attempts.
        for seed in (11, 23, 57):
            problem_a = _problem([5.0, 4.0, 3.0, 3.0, 3.0], [9.0, 9.0])
            problem_b = _problem([5.0, 4.0, 3.0, 3.0, 3.0], [9.0, 9.0])
            plain = BFDSUPlacement(rng=np.random.default_rng(seed)).place(
                problem_a
            )
            batched = BFDSUPlacement(
                rng=np.random.default_rng(seed), draw_block=2
            ).place(problem_b)
            assert batched.placement == plain.placement
            assert batched.iterations == plain.iterations

    def test_parity_across_repeated_place_calls(self):
        # The block persists on the object: the second place() continues
        # from the buffered stream position, matching two scalar calls.
        plain = BFDSUPlacement(rng=np.random.default_rng(4))
        batched = BFDSUPlacement(rng=np.random.default_rng(4), draw_block=5)
        for demands in ([6.0, 5.0, 4.0, 3.0], [2.0] * 9, [7.0, 7.0, 1.0]):
            problem_a = _problem(demands, [10.0] * 6)
            problem_b = _problem(demands, [10.0] * 6)
            assert (
                batched.place(problem_b).placement
                == plain.place(problem_a).placement
            )
