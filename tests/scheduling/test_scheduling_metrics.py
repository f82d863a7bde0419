"""Unit tests for scheduling metrics (W(f,k) and rejection)."""

import math

import pytest

from repro.nfv.chain import ServiceChain
from repro.nfv.request import Request
from repro.nfv.vnf import VNF
from repro.scheduling.base import SchedulingProblem, ScheduleResult
from repro.scheduling.metrics import schedule_report

CHAIN = ServiceChain(["fw"])


def _result(rates, assignment, instances=2, mu=100.0, p=1.0):
    vnf = VNF("fw", 1.0, instances, mu)
    requests = [
        Request(f"r{i}", CHAIN, rate, delivery_probability=p)
        for i, rate in enumerate(rates)
    ]
    problem = SchedulingProblem(vnf=vnf, requests=requests)
    return ScheduleResult(
        assignment=assignment, problem=problem, algorithm="T"
    )


class TestScheduleReport:
    def test_stable_metrics(self):
        result = _result([40.0, 40.0], {"r0": 0, "r1": 1})
        report = schedule_report(result)
        assert report.average_response_time == pytest.approx(1.0 / 60.0)
        assert report.max_response_time == pytest.approx(1.0 / 60.0)
        assert report.makespan == pytest.approx(40.0)
        assert report.spread == pytest.approx(0.0)
        assert report.rejection_rate == 0.0

    def test_imbalance_raises_average(self):
        balanced = schedule_report(_result([40.0, 40.0], {"r0": 0, "r1": 1}))
        skewed = schedule_report(_result([40.0, 40.0], {"r0": 0, "r1": 0}))
        assert skewed.average_response_time > balanced.average_response_time

    def test_unstable_without_admission_is_inf(self):
        result = _result([80.0, 80.0], {"r0": 0, "r1": 0})
        report = schedule_report(result, apply_admission=False)
        assert math.isinf(report.average_response_time)
        assert report.num_rejected == 0

    def test_admission_restores_stability(self):
        result = _result([80.0, 80.0], {"r0": 0, "r1": 0})
        report = schedule_report(result, apply_admission=True)
        assert math.isfinite(report.average_response_time)
        assert report.num_rejected == 1
        assert report.rejection_rate == pytest.approx(0.5)

    def test_idle_instances_excluded_from_w(self):
        result = _result([40.0], {"r0": 0}, instances=3)
        report = schedule_report(result)
        assert report.average_response_time == pytest.approx(1.0 / 60.0)

    def test_utilizations_reported_per_instance(self):
        result = _result([40.0, 20.0], {"r0": 0, "r1": 1})
        report = schedule_report(result)
        assert report.utilizations == (pytest.approx(0.4), pytest.approx(0.2))

    def test_loss_inflates_effective_rate(self):
        clean = schedule_report(_result([40.0], {"r0": 0}, instances=1))
        lossy = schedule_report(
            _result([40.0], {"r0": 0}, instances=1, p=0.9)
        )
        assert lossy.average_response_time > clean.average_response_time

