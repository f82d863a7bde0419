"""Unit tests for the FFD, NAH, BFD and random-fit baselines."""

import numpy as np
import pytest

from repro.exceptions import InfeasiblePlacementError
from repro.nfv.chain import ServiceChain
from repro.nfv.vnf import VNF
from repro.placement.base import PlacementProblem
from repro.placement.bfd import BFDPlacement
from repro.placement.ffd import FFDPlacement
from repro.placement.nah import NAHPlacement
from repro.placement.random_fit import RandomFitPlacement


def _problem(demands, capacities, chains=()):
    vnfs = [VNF(f"f{i}", d, 1, 100.0) for i, d in enumerate(demands)]
    caps = {f"n{i}": c for i, c in enumerate(capacities)}
    return PlacementProblem(vnfs=vnfs, capacities=caps, chains=chains)


class TestFFD:
    def test_picks_largest_residual(self):
        problem = _problem([3.0], [5.0, 9.0, 7.0])
        result = FFDPlacement().place(problem)
        assert result.placement["f0"] == "n1"

    def test_single_iteration(self):
        problem = _problem([3.0, 2.0], [9.0, 9.0])
        assert FFDPlacement().place(problem).iterations == 1

    def test_spreads_load(self):
        # Worst-fit style: equal nodes get one item each.
        problem = _problem([2.0, 2.0, 2.0], [10.0, 10.0, 10.0])
        result = FFDPlacement().place(problem)
        assert result.num_used_nodes == 3

    def test_infeasible_raises(self):
        problem = _problem([6.0, 6.0], [7.0, 4.0])
        with pytest.raises(InfeasiblePlacementError):
            FFDPlacement().place(problem)

    def test_demand_sorted(self):
        # The largest VNF lands on the largest node first.
        problem = _problem([2.0, 8.0], [9.0, 5.0])
        result = FFDPlacement().place(problem)
        assert result.placement["f1"] == "n0"


class TestNAH:
    def test_chain_anchored_at_largest_node(self):
        chains = [ServiceChain(["f0", "f1"])]
        problem = _problem([4.0, 2.0], [10.0, 20.0], chains=chains)
        result = NAHPlacement().place(problem)
        # Heaviest VNF of the chain at the biggest node; the rest co-locate.
        assert result.placement["f0"] == "n1"
        assert result.placement["f1"] == "n1"

    def test_overflow_falls_back(self):
        chains = [ServiceChain(["f0", "f1", "f2"])]
        problem = _problem([6.0, 5.0, 4.0], [12.0, 9.0], chains=chains)
        result = NAHPlacement().place(problem)
        result.validate()
        # f0+f1 fill n0 (11/12); f2 must fall back to n1.
        assert result.placement["f2"] == "n1"

    def test_vnfs_without_chains_treated_singleton(self):
        problem = _problem([4.0, 3.0], [10.0, 10.0])
        result = NAHPlacement().place(problem)
        result.validate()

    def test_iterations_counted(self):
        chains = [ServiceChain(["f0", "f1", "f2"])]
        problem = _problem([4.0, 3.0, 2.0], [20.0, 20.0], chains=chains)
        result = NAHPlacement().place(problem)
        # 1 anchor + 2 same-node placements.
        assert result.iterations == 3

    def test_infeasible_raises(self):
        problem = _problem([6.0, 6.0], [7.0, 5.0])
        with pytest.raises(InfeasiblePlacementError):
            NAHPlacement().place(problem)

    def test_chains_processed_heaviest_first(self):
        chains = [
            ServiceChain(["f0"]),  # light
            ServiceChain(["f1"]),  # heavy
        ]
        problem = _problem([2.0, 9.0], [10.0, 6.0], chains=chains)
        result = NAHPlacement().place(problem)
        # The heavy anchor gets the big node even though its chain is
        # listed second.
        assert result.placement["f1"] == "n0"


class TestBFD:
    def test_tightest_node_chosen(self):
        problem = _problem([3.0], [9.0, 4.0, 6.0])
        result = BFDPlacement().place(problem)
        assert result.placement["f0"] == "n1"

    def test_used_list_priority(self):
        # After f0 opens n1 (tightest fit), f1 joins it rather than the
        # tighter-but-spare n2 when used-first is on.
        problem = _problem([3.0, 1.0], [9.0, 5.0, 1.0])
        with_used = BFDPlacement(use_used_list=True).place(problem)
        assert with_used.placement["f1"] == with_used.placement["f0"]

    def test_without_used_list(self):
        problem = _problem([3.0, 1.0], [9.0, 5.0, 1.0])
        result = BFDPlacement(use_used_list=False).place(problem)
        # Pure best fit: f1 (size 1) takes the capacity-1 node.
        assert result.placement["f1"] == "n2"

    def test_infeasible_raises(self):
        problem = _problem([6.0, 6.0], [7.0, 4.0])
        with pytest.raises(InfeasiblePlacementError):
            BFDPlacement().place(problem)

    def test_valid_on_tight_instance(self):
        problem = _problem([5.0, 4.0, 3.0, 3.0, 3.0], [9.0, 9.0])
        result = BFDPlacement().place(problem)
        result.validate()
        assert result.num_used_nodes == 2


class TestRandomFit:
    def test_valid_placement(self):
        problem = _problem([3.0, 2.0, 4.0], [10.0, 10.0])
        result = RandomFitPlacement(np.random.default_rng(0)).place(problem)
        result.validate()

    def test_deterministic_given_seed(self):
        p1 = _problem([3.0, 2.0, 4.0], [10.0, 10.0])
        p2 = _problem([3.0, 2.0, 4.0], [10.0, 10.0])
        a = RandomFitPlacement(np.random.default_rng(9)).place(p1)
        b = RandomFitPlacement(np.random.default_rng(9)).place(p2)
        assert a.placement == b.placement

    def test_infeasible_raises(self):
        problem = _problem([6.0, 6.0], [7.0])
        with pytest.raises(InfeasiblePlacementError):
            RandomFitPlacement(np.random.default_rng(1)).place(problem)
