"""Shared problem/result model for request scheduling.

A :class:`SchedulingProblem` is per-VNF: the set ``R_f`` of requests
whose chains include VNF ``f`` must be split across its ``M_f`` service
instances (Eq. 5) so the per-instance aggregate rates are as equal as
possible (Eq. 15's insight).  Every algorithm implements
:class:`SchedulingAlgorithm` through one per-VNF rule,
:meth:`~SchedulingAlgorithm.assign` on ``(rates, m)``, which both
routes run: :meth:`~SchedulingAlgorithm.schedule` turns it into a
:class:`ScheduleResult` and
:func:`~repro.scheduling.kernels.schedule_columns` into index-form rows.

:func:`schedule_all_vnfs` lifts a per-VNF scheduler over a whole problem
instance, producing the ``(request_id, vnf_name) -> k`` map a
:class:`~repro.nfv.state.DeploymentState` consumes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ValidationError
from repro.nfv.request import Request
from repro.nfv.vnf import VNF

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.arrays import ScenarioArrays


@dataclass(frozen=True)
class SchedulingProblem:
    """Assign the requests using one VNF to its service instances.

    Parameters
    ----------
    vnf:
        The VNF ``f`` (supplies ``M_f`` and ``mu_f``).
    requests:
        The set ``R_f = {r : U_r^f = 1}``; every request's chain must
        include ``vnf.name``.
    """

    vnf: VNF
    requests: tuple

    def __init__(self, vnf: VNF, requests: Sequence[Request]) -> None:
        object.__setattr__(self, "vnf", vnf)
        object.__setattr__(self, "requests", tuple(requests))
        self._validate()

    def _validate(self) -> None:
        if not self.requests:
            raise ValidationError(
                f"scheduling problem for VNF {self.vnf.name!r} has no requests"
            )
        ids = [r.request_id for r in self.requests]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate request ids in scheduling problem")
        for request in self.requests:
            if not request.uses(self.vnf.name):
                raise ValidationError(
                    f"request {request.request_id!r} does not use VNF "
                    f"{self.vnf.name!r}"
                )

    @property
    def num_instances(self) -> int:
        """``m = M_f``."""
        return self.vnf.num_instances

    @property
    def num_requests(self) -> int:
        """``n = |R_f|``."""
        return len(self.requests)

    def effective_rates(self) -> List[float]:
        """Per-request effective rates ``lambda_r / P_r`` — the MWNP values."""
        return [r.effective_rate for r in self.requests]

    def arrays(self) -> "ScenarioArrays":
        """The cached columnar view of this problem's request table."""
        from repro.core.arrays import ScenarioArrays, cached_arrays

        return cached_arrays(self, ScenarioArrays.from_scheduling_problem)

    def total_effective_rate(self) -> float:
        """``sum_r lambda_r / P_r`` across all requests of ``R_f``."""
        return sum(self.effective_rates())


@dataclass
class ScheduleResult:
    """A per-VNF schedule: the materialized ``z_{r,k}^f`` variables.

    Attributes
    ----------
    assignment:
        ``request_id -> instance index k``.
    problem:
        The problem solved.
    iterations:
        Algorithm-specific work units (combine steps / search nodes).
    algorithm:
        Display name for report rows.
    """

    assignment: Dict[str, int]
    problem: SchedulingProblem
    iterations: int = 0
    algorithm: str = ""

    def instance_vector(self) -> np.ndarray:
        """Instance index ``k`` per request, in problem order.

        A missing or out-of-range ``k`` calls :meth:`validate`, which
        raises the Eq. (5) ``ValidationError``.
        """
        k = np.fromiter(
            (
                self.assignment.get(r.request_id, -1)
                for r in self.problem.requests
            ),
            dtype=np.int64,
            count=self.problem.num_requests,
        )
        if bool(((k < 0) | (k >= self.problem.num_instances)).any()):
            self.validate()
        return k

    def instance_rates(self) -> List[float]:
        """Per-instance equivalent arrival rates ``Lambda_k^f`` (Eq. 7),
        one ``np.bincount`` over the columnar request table."""
        rates = np.bincount(
            self.instance_vector(),
            weights=self.problem.arrays().eff_rate,
            minlength=self.problem.num_instances,
        )
        return [float(rate) for rate in rates]

    def validate(self) -> None:
        """Check Eq. (5): every request mapped to exactly one valid instance.

        Raises
        ------
        ValidationError
            On a missing assignment or out-of-range instance index.
        """
        m = self.problem.num_instances
        for request in self.problem.requests:
            k = self.assignment.get(request.request_id)
            if k is None:
                raise ValidationError(
                    f"request {request.request_id!r} unassigned (Eq. 5)"
                )
            if not 0 <= k < m:
                raise ValidationError(
                    f"request {request.request_id!r}: instance {k} out of "
                    f"range [0, {m})"
                )
        # Every (unique) request id is assigned, so extras exist exactly
        # when the map is longer than the request list.
        if len(self.assignment) == self.problem.num_requests:
            return
        extras = set(self.assignment) - {
            r.request_id for r in self.problem.requests
        }
        if extras:
            raise ValidationError(
                f"assignment contains unknown request ids: {sorted(extras)}"
            )


class Assignment(NamedTuple):
    """One VNF's schedule: ``ways[j]`` is the instance of the ``j``-th
    emitted user.  ``order`` lists the emitted users' positions in
    ``rates`` (``None``: user order); it is both routes' row order, so
    it fixes the order of the per-instance float sums."""

    ways: Sequence[int]
    order: Optional[Sequence[int]] = None
    #: Algorithm-specific work units (combine steps / search nodes).
    iterations: int = 0


def subset_assignment(
    subsets: Sequence[Sequence[int]], iterations: int
) -> Assignment:
    """A partition's subsets in way-major order: way 0's users first,
    each subset in its own order."""
    return Assignment(
        ways=[way for way, subset in enumerate(subsets) for _ in subset],
        order=[i for subset in subsets for i in subset],
        iterations=iterations,
    )


class SchedulingAlgorithm(abc.ABC):
    """Strategy interface implemented by every scheduling algorithm."""

    #: Stable display name used in experiment report rows.
    name: str = "scheduler"

    @abc.abstractmethod
    def assign(self, rates: Sequence[float], m: int) -> Assignment:
        """The per-VNF rule: split the users' effective ``rates`` (user
        order) over ``m`` instances."""

    def schedule(self, problem: SchedulingProblem) -> ScheduleResult:
        """Solve ``problem`` with :meth:`assign` (the rules emit every
        user once; :func:`schedule_all_vnfs` validates the result)."""
        rule = self.assign(problem.effective_rates(), problem.num_instances)
        requests = problem.requests
        if rule.order is not None:
            requests = [requests[i] for i in rule.order]
        return ScheduleResult(
            assignment=dict(zip((r.request_id for r in requests), rule.ways)),
            problem=problem,
            iterations=rule.iterations,
            algorithm=self.name,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"


def schedule_all_vnfs(
    vnfs: Sequence[VNF],
    requests: Sequence[Request],
    algorithm: SchedulingAlgorithm,
) -> Dict[Tuple[str, str], int]:
    """Schedule every VNF's request set, yielding the joint ``z`` map.

    VNFs used by no request are skipped (they simply idle).  The result
    maps ``(request_id, vnf_name) -> k`` and is directly consumable by
    :class:`~repro.nfv.state.DeploymentState`.
    """
    # One pass over the requests builds the inverted U_r^f index; the
    # old per-VNF membership scan was O(|F| * |R|).  Iterating requests
    # in the outer loop keeps each VNF's user list in request order,
    # exactly as the scan produced it.
    users_by_vnf: Dict[str, List[Request]] = {}
    for request in requests:
        for vnf_name in request.chain:
            users_by_vnf.setdefault(vnf_name, []).append(request)

    joint: Dict[Tuple[str, str], int] = {}
    for vnf in vnfs:
        users = users_by_vnf.get(vnf.name)
        if not users:
            continue
        result = algorithm.schedule(SchedulingProblem(vnf=vnf, requests=users))
        result.validate()
        for request_id, k in result.assignment.items():
            joint[(request_id, vnf.name)] = k
    return joint
