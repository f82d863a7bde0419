"""Unit tests for the move/swap schedule refinement."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.nfv.chain import ServiceChain
from repro.nfv.request import Request
from repro.nfv.vnf import VNF
from repro.scheduling.base import SchedulingProblem
from repro.scheduling.rckk import RCKKScheduler
from repro.scheduling.round_robin import RoundRobinScheduler
from repro.scheduling.swap_refine import SwapRefinedScheduler, refine_assignment

CHAIN = ServiceChain(["fw"])


def _problem(rates, instances=3):
    vnf = VNF("fw", 1.0, instances, 1e6)
    requests = [
        Request(f"r{i}", CHAIN, rate) for i, rate in enumerate(rates)
    ]
    return SchedulingProblem(vnf=vnf, requests=requests)


class TestRefineAssignment:
    def test_move_fixes_gross_imbalance(self):
        # All on way 0.
        rates = [5.0, 5.0, 5.0, 5.0]
        assignment, moves = refine_assignment(rates, [0, 0, 0, 0], 2)
        sums = [0.0, 0.0]
        for idx, way in enumerate(assignment):
            sums[way] += rates[idx]
        assert max(sums) == pytest.approx(10.0)
        assert moves > 0

    def test_swap_when_move_cannot_help(self):
        # Ways: [9, 1] and [5, 5]: moving 9 or 1 can't beat swapping 9<->5.
        rates = [9.0, 1.0, 5.0, 5.0]
        assignment, _ = refine_assignment(rates, [0, 0, 1, 1], 2)
        sums = [0.0, 0.0]
        for idx, way in enumerate(assignment):
            sums[way] += rates[idx]
        assert max(sums) == pytest.approx(10.0)

    def test_never_increases_makespan(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            rates = list(rng.uniform(1.0, 50.0, size=12))
            start = list(rng.integers(0, 4, size=12))
            before = max(
                sum(rates[i] for i in range(12) if start[i] == w)
                for w in range(4)
            )
            refined, _ = refine_assignment(rates, start, 4)
            after = max(
                sum(rates[i] for i in range(12) if refined[i] == w)
                for w in range(4)
            )
            assert after <= before + 1e-9

    def test_input_not_mutated(self):
        start = [0, 0, 1]
        refine_assignment([3.0, 2.0, 1.0], start, 2)
        assert start == [0, 0, 1]

    def test_bad_rounds(self):
        with pytest.raises(ValidationError):
            refine_assignment([1.0], [0], 1, max_rounds=0)

    def test_empty_target_way(self):
        # Sums [8, 4, 0]: the best candidate is moving 6 to the empty
        # way 2 (makespan 6), which beats the swap 6 <-> 3 (makespan 7).
        assert refine_assignment([6.0, 2.0, 3.0, 1.0], [0, 0, 1, 1], 3) == (
            [2, 0, 1, 1],
            1,
        )

    def test_no_valid_swap_partner(self):
        # Every worst-way item (1.0) is smaller than the only partner, so
        # round 1 has no swap; moving the first item helps once, and
        # nothing improves after it.
        assert refine_assignment([1.0, 1.0, 1.0, 1.5], [0, 0, 0, 1], 2) == (
            [1, 0, 0, 1],
            1,
        )
        # And when moving cannot help either, nothing changes.
        assert refine_assignment([1.0, 1.0, 1.0, 2.5], [0, 0, 0, 1], 2) == (
            [0, 0, 0, 1],
            0,
        )

    def test_one_way_holds_all_items(self):
        # 4 -> way 1 (makespan 5), then 3 -> way 2 (makespan 4, optimal).
        assert refine_assignment([4.0, 3.0, 2.0], [0, 0, 0], 3) == (
            [1, 2, 0],
            2,
        )

    def test_no_items_or_single_way(self):
        assert refine_assignment([], [], 3) == ([], 0)
        assert refine_assignment([2.0, 1.0], [0, 0], 1) == ([0, 0], 0)


class TestSwapRefinedScheduler:
    def test_improves_round_robin(self):
        rng = np.random.default_rng(1)
        rates = list(rng.uniform(1.0, 100.0, size=15))
        problem = _problem(rates, instances=4)
        rr = RoundRobinScheduler().schedule(problem)
        refined = SwapRefinedScheduler(
            base=RoundRobinScheduler()
        ).schedule(problem)
        assert max(refined.instance_rates()) <= max(rr.instance_rates()) + 1e-9

    def test_no_worse_than_rckk(self):
        rng = np.random.default_rng(2)
        for rep in range(10):
            rates = list(rng.uniform(1.0, 100.0, size=20))
            problem = _problem(rates, instances=5)
            rckk = RCKKScheduler().schedule(problem)
            refined = SwapRefinedScheduler().schedule(problem)
            assert (
                max(refined.instance_rates())
                <= max(rckk.instance_rates()) + 1e-9
            )

    def test_valid_schedule(self):
        problem = _problem([5.0, 4.0, 3.0, 2.0, 1.0])
        result = SwapRefinedScheduler().schedule(problem)
        result.validate()
        assert result.algorithm == "SwapRefined(RCKK)"
