"""Unit tests for all request-scheduling algorithms."""

import numpy as np
import pytest

from repro.nfv.chain import ServiceChain
from repro.nfv.request import Request
from repro.nfv.vnf import VNF
from repro.scheduling import (
    CGAScheduler,
    LeastLoadedScheduler,
    RandomScheduler,
    RCKKScheduler,
    RoundRobinScheduler,
)
from repro.scheduling.base import SchedulingProblem

CHAIN = ServiceChain(["fw"])


def _problem(rates, instances=3, mu=1000.0, p=1.0):
    vnf = VNF("fw", 1.0, instances, mu)
    requests = [
        Request(f"r{i}", CHAIN, rate, delivery_probability=p)
        for i, rate in enumerate(rates)
    ]
    return SchedulingProblem(vnf=vnf, requests=requests)


ALL_SCHEDULERS = [
    RCKKScheduler(),
    CGAScheduler(),
    CGAScheduler(presort=True),
    RoundRobinScheduler(),
    LeastLoadedScheduler(),
    RandomScheduler(rng=np.random.default_rng(0)),
]


@pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
class TestCommonBehaviour:
    def test_every_request_assigned(self, scheduler):
        problem = _problem([5.0, 3.0, 8.0, 2.0, 7.0])
        result = scheduler.schedule(problem)
        result.validate()
        assert set(result.assignment) == {f"r{i}" for i in range(5)}

    def test_rates_conserved(self, scheduler):
        problem = _problem([5.0, 3.0, 8.0])
        result = scheduler.schedule(problem)
        assert sum(result.instance_rates()) == pytest.approx(16.0)

    def test_single_instance(self, scheduler):
        problem = _problem([5.0, 3.0], instances=1)
        result = scheduler.schedule(problem)
        assert set(result.assignment.values()) == {0}


class TestRCKK:
    def test_balances_better_than_round_robin(self):
        rng = np.random.default_rng(1)
        rates = list(rng.uniform(1.0, 100.0, size=20))
        problem = _problem(rates, instances=4)
        rckk = RCKKScheduler().schedule(problem)
        rr = RoundRobinScheduler().schedule(problem)

        def spread(result):
            r = result.instance_rates()
            return max(r) - min(r)

        assert spread(rckk) < spread(rr)

    def test_perfect_split(self):
        problem = _problem([8.0, 7.0, 6.0, 5.0], instances=2)
        result = RCKKScheduler().schedule(problem)
        rates = sorted(result.instance_rates())
        assert rates == [pytest.approx(13.0), pytest.approx(13.0)]

    def test_partitions_effective_rates(self):
        # With loss, balancing happens on lambda/P.
        problem = _problem([9.8, 9.8], instances=2, p=0.98)
        result = RCKKScheduler().schedule(problem)
        rates = result.instance_rates()
        assert rates[0] == pytest.approx(rates[1])
        assert rates[0] == pytest.approx(10.0)


class TestCGA:
    def test_arrival_order_default(self):
        # presort=False: first leaf is online least-loaded in given order.
        problem = _problem([1.0, 10.0, 1.0, 10.0], instances=2)
        result = CGAScheduler(max_nodes=6).schedule(problem)
        rates = sorted(result.instance_rates())
        assert rates == [pytest.approx(10.0), pytest.approx(12.0)]

    def test_presort_improves_balance(self):
        rng = np.random.default_rng(2)
        rates = list(rng.uniform(1.0, 100.0, size=12))
        problem = _problem(rates, instances=4)
        plain = CGAScheduler().schedule(problem)
        sorted_cga = CGAScheduler(presort=True, max_nodes=5000).schedule(problem)

        def spread(result):
            r = result.instance_rates()
            return max(r) - min(r)

        assert spread(sorted_cga) <= spread(plain) + 1e-9

    def test_unlimited_budget_is_optimal(self):
        problem = _problem([5.0, 5.0, 4.0, 3.0, 3.0], instances=2)
        result = CGAScheduler(max_nodes=0, presort=True).schedule(problem)
        rates = sorted(result.instance_rates())
        assert rates == [pytest.approx(10.0), pytest.approx(10.0)]


    def test_thousands_of_users_on_one_vnf(self):
        # One greedy descent is 3,000 levels deep: far past the
        # interpreter's recursion limit, so the search keeps its own stack.
        rates = np.random.default_rng(3).uniform(1.0, 100.0, 3000).tolist()
        rule = CGAScheduler().assign(rates, 4)
        assert sorted(rule.order) == list(range(3000))
        way_of = np.empty(3000, dtype=np.int64)
        way_of[list(rule.order)] = rule.ways
        # The first leaf in arrival order is online least-loaded.
        expected = LeastLoadedScheduler().assign(rates, 4).ways
        assert way_of.tolist() == list(expected)
        assert rule.iterations == 3000 + 3  # budget n + 2, then one over

class TestLeastLoaded:
    def test_online_greedy(self):
        problem = _problem([10.0, 10.0, 1.0], instances=2)
        result = LeastLoadedScheduler().schedule(problem)
        # 10 -> i0, 10 -> i1, 1 -> i0.
        assert result.assignment["r2"] == result.assignment["r0"]


class TestRoundRobin:
    def test_cyclic(self):
        problem = _problem([1.0] * 5, instances=2)
        result = RoundRobinScheduler().schedule(problem)
        assert [result.assignment[f"r{i}"] for i in range(5)] == [0, 1, 0, 1, 0]


class TestRandom:
    def test_deterministic_given_seed(self):
        p1 = _problem([1.0, 2.0, 3.0])
        p2 = _problem([1.0, 2.0, 3.0])
        a = RandomScheduler(np.random.default_rng(5)).schedule(p1)
        b = RandomScheduler(np.random.default_rng(5)).schedule(p2)
        assert a.assignment == b.assignment
