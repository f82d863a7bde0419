"""Unit tests for the scheduling problem/result model."""

import sys
from pathlib import Path

import pytest

from repro.core.arrays import ScenarioArrays
from repro.exceptions import ValidationError
from repro.nfv.chain import ServiceChain
from repro.nfv.request import Request
from repro.nfv.vnf import VNF
from repro.scheduling.base import SchedulingProblem, ScheduleResult
from repro.scheduling.kernels import schedule_columns
from repro.scheduling.rckk import RCKKScheduler

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from _reference_impl import reference_schedule_all_vnfs  # noqa: E402


@pytest.fixture
def vnf():
    return VNF("fw", 10.0, 2, 100.0)


@pytest.fixture
def chain():
    return ServiceChain(["fw"])


def _requests(chain, rates, p=1.0):
    return [
        Request(f"r{i}", chain, rate, delivery_probability=p)
        for i, rate in enumerate(rates)
    ]


class TestProblem:
    def test_valid(self, vnf, chain):
        p = SchedulingProblem(vnf=vnf, requests=_requests(chain, [5.0, 3.0]))
        assert p.num_instances == 2
        assert p.num_requests == 2

    def test_effective_rates(self, vnf, chain):
        p = SchedulingProblem(
            vnf=vnf, requests=_requests(chain, [9.8, 4.9], p=0.98)
        )
        assert p.effective_rates() == [pytest.approx(10.0), pytest.approx(5.0)]
        assert p.total_effective_rate() == pytest.approx(15.0)

    def test_no_requests_rejected(self, vnf):
        with pytest.raises(ValidationError):
            SchedulingProblem(vnf=vnf, requests=[])

    def test_wrong_chain_rejected(self, vnf):
        other = ServiceChain(["nat"])
        with pytest.raises(ValidationError):
            SchedulingProblem(vnf=vnf, requests=_requests(other, [1.0]))

    def test_duplicate_ids_rejected(self, vnf, chain):
        reqs = [
            Request("dup", chain, 1.0),
            Request("dup", chain, 2.0),
        ]
        with pytest.raises(ValidationError):
            SchedulingProblem(vnf=vnf, requests=reqs)


class TestResult:
    def test_instance_rates(self, vnf, chain):
        problem = SchedulingProblem(
            vnf=vnf, requests=_requests(chain, [5.0, 3.0])
        )
        result = ScheduleResult(
            assignment={"r0": 0, "r1": 1}, problem=problem
        )
        assert result.instance_rates() == [
            pytest.approx(5.0),
            pytest.approx(3.0),
        ]

    def test_validate_missing_assignment(self, vnf, chain):
        problem = SchedulingProblem(vnf=vnf, requests=_requests(chain, [1.0]))
        result = ScheduleResult(assignment={}, problem=problem)
        with pytest.raises(ValidationError, match="Eq. 5"):
            result.validate()

    def test_validate_out_of_range(self, vnf, chain):
        problem = SchedulingProblem(vnf=vnf, requests=_requests(chain, [1.0]))
        result = ScheduleResult(assignment={"r0": 5}, problem=problem)
        with pytest.raises(ValidationError):
            result.validate()

    def test_validate_unknown_request(self, vnf, chain):
        problem = SchedulingProblem(vnf=vnf, requests=_requests(chain, [1.0]))
        result = ScheduleResult(
            assignment={"r0": 0, "ghost": 1}, problem=problem
        )
        with pytest.raises(ValidationError):
            result.validate()


def _schedule_all(vnfs, requests, scheduler):
    """Every VNF scheduled on columns, as the ``(request_id, vnf_name)
    -> k`` map."""
    arrays = ScenarioArrays.build(vnfs, requests, {})
    return arrays.schedule_dict(schedule_columns(arrays, scheduler))


class TestScheduleAllVnfs:
    def test_joint_map(self):
        fw = VNF("fw", 1.0, 2, 100.0)
        nat = VNF("nat", 1.0, 1, 200.0)
        chain_both = ServiceChain(["fw", "nat"])
        chain_fw = ServiceChain(["fw"])
        requests = [
            Request("r0", chain_both, 5.0),
            Request("r1", chain_fw, 3.0),
        ]
        joint = _schedule_all([fw, nat], requests, RCKKScheduler())
        assert ("r0", "fw") in joint
        assert ("r0", "nat") in joint
        assert ("r1", "fw") in joint
        assert ("r1", "nat") not in joint

    def test_unused_vnf_skipped(self):
        fw = VNF("fw", 1.0, 1, 100.0)
        idle = VNF("idle", 1.0, 1, 100.0)
        requests = [Request("r0", ServiceChain(["fw"]), 1.0)]
        joint = _schedule_all([fw, idle], requests, RCKKScheduler())
        assert all(vnf == "fw" for (_, vnf) in joint)

    @pytest.mark.parametrize("seed", [1, 42, 20170605])
    def test_z_map_matches_quadratic_reference(self, seed):
        """The column route yields the exact joint ``z`` map, entries in
        the same order, that the per-VNF request scan produces."""
        import numpy as np

        from repro.workload.generator import WorkloadGenerator

        w = WorkloadGenerator(np.random.default_rng(seed)).workload(
            num_vnfs=8, num_nodes=5, num_requests=40
        )
        scheduler = RCKKScheduler()
        reference = reference_schedule_all_vnfs(w.vnfs, w.requests, scheduler)
        got = _schedule_all(w.vnfs, w.requests, scheduler)
        assert list(got.items()) == list(reference.items())
