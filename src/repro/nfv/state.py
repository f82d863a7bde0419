"""Joint deployment state: placement + schedule with constraint checking.

:class:`DeploymentState` holds a full solution of the paper's model — the
placement variables ``x_v^f``/``y_v`` and the scheduling variables
``z_{r,k}^f``/``eta_v^r`` — and validates every structural constraint:

* Eq. (1): ``y_v = 1`` iff some VNF is placed at ``v`` (derived here,
  :meth:`DeploymentState.nodes_in_service`).
* Eq. (2): every VNF placed at exactly one node.
* Eq. (3): ``M_f`` never exceeds the number of requests using ``f``
  (checked as a warning-level validation; the catalog may deploy fewer).
* Eq. (4): ``eta_v^r = 1`` iff the request traverses some VNF at ``v``
  (derived here, :meth:`DeploymentState.nodes_traversed`).
* Eq. (5): each request using VNF ``f`` mapped to exactly one instance.
* Eq. (6): per-node capacity respected.
* Eq. (7): instance arrival rates are ``sum_r lambda_r / P_r`` (derived
  via :class:`~repro.nfv.instance.ServiceInstance`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Hashable, List, Mapping, Sequence, Tuple

from repro.exceptions import ValidationError
from repro.nfv.instance import ServiceInstance
from repro.nfv.request import Request
from repro.nfv.vnf import VNF

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.arrays import ScenarioArrays, ScheduleArrays


@dataclass
class DeploymentState:
    """A complete (placement, schedule) solution over a problem instance.

    Parameters
    ----------
    vnfs:
        All VNFs ``F`` of the problem.
    requests:
        All requests ``R``.
    node_capacities:
        ``A_v`` per computing node key.
    placement:
        ``vnf_name -> node_key``; the materialization of ``x_v^f``.
    schedule:
        ``(request_id, vnf_name) -> instance_index``; the materialization
        of ``z_{r,k}^f``.  May be empty for a placement-only state.
    """

    vnfs: Sequence[VNF]
    requests: Sequence[Request]
    node_capacities: Mapping[Hashable, float]
    placement: Dict[str, Hashable] = field(default_factory=dict)
    schedule: Dict[Tuple[str, str], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._vnf_by_name = {f.name: f for f in self.vnfs}
        if len(self._vnf_by_name) != len(self.vnfs):
            raise ValidationError("duplicate VNF names in problem instance")
        self._request_by_id = {r.request_id: r for r in self.requests}
        if len(self._request_by_id) != len(self.requests):
            raise ValidationError("duplicate request ids in problem instance")
        self._scenario_arrays = None
        self._schedule_arrays_cache = None

    # ------------------------------------------------------------------
    # Columnar view (see docs/ARRAYS_CORE.md for the caching contract)
    # ------------------------------------------------------------------
    def arrays(self) -> "ScenarioArrays":
        """The cached columnar view of this state's entity tables.

        Built once; valid as long as ``vnfs``/``requests``/
        ``node_capacities`` are not replaced (mutating ``placement`` or
        adding/removing ``schedule`` entries is fine — those are
        re-indexed per metric call).
        """
        from repro.core.arrays import ScenarioArrays

        if self._scenario_arrays is None:
            self._scenario_arrays = ScenarioArrays.from_deployment_state(self)
        return self._scenario_arrays

    def schedule_arrays(self) -> "ScheduleArrays":
        """Index form of ``schedule``, cached on its entries.

        The cache is reused only while ``schedule`` holds the same keys
        with the same values in the same order, so any edit — replacing
        the dict, adding, removing or re-valuing an entry — converts
        afresh.  The check is two list comparisons, O(|z|) but far
        cheaper than the conversion.
        """
        keys, values = list(self.schedule), list(self.schedule.values())
        cache = self._schedule_arrays_cache
        if cache is None or cache[0] != keys or cache[1] != values:
            sched = self.arrays().schedule_arrays(self.schedule)
            cache = self._schedule_arrays_cache = (keys, values, sched)
        return cache[2]

    def set_schedule(
        self, schedule: Dict[Tuple[str, str], int], sched: "ScheduleArrays"
    ) -> None:
        """Install ``schedule`` with ``sched``, its index form, as the
        cached :meth:`schedule_arrays`, so no metric converts it again.

        ``sched`` must be what :meth:`schedule_arrays` would build:
        ``schedule`` made from it by
        :meth:`~repro.core.arrays.ScenarioArrays.schedule_dict` is.
        """
        self.schedule = schedule
        self._schedule_arrays_cache = (
            list(schedule), list(schedule.values()), sched
        )

    # ------------------------------------------------------------------
    # Placement views
    # ------------------------------------------------------------------
    def nodes_in_service(self) -> List[Hashable]:
        """All nodes ``v`` with ``y_v = 1``."""
        used = []
        seen = set()
        for node in self.placement.values():
            if node not in seen:
                seen.add(node)
                used.append(node)
        return used

    def vnfs_at(self, node: Hashable) -> List[VNF]:
        """All VNFs placed at ``node``."""
        return [
            self._vnf_by_name[name]
            for name, n in self.placement.items()
            if n == node
        ]

    def node_load(self, node: Hashable) -> float:
        """Total placed demand ``sum_f x_v^f M_f D_f`` at ``node``."""
        return sum(f.total_demand for f in self.vnfs_at(node))

    def node_utilization(self, node: Hashable) -> float:
        """Fraction of ``A_v`` consumed at ``node``."""
        capacity = self.node_capacities.get(node)
        if capacity is None:
            raise ValidationError(f"unknown node {node!r}")
        if capacity == 0.0:
            return 0.0
        return self.node_load(node) / capacity

    # ------------------------------------------------------------------
    # Scheduling views
    # ------------------------------------------------------------------
    def nodes_traversed(self, request_id: str) -> List[Hashable]:
        """Distinct nodes a request's chain visits, in chain order."""
        request = self._request_by_id.get(request_id)
        if request is None:
            raise ValidationError(f"unknown request {request_id!r}")
        nodes: List[Hashable] = []
        for vnf_name in request.chain:
            node = self.placement.get(vnf_name)
            if node is None:
                raise ValidationError(
                    f"request {request_id!r} uses unplaced VNF {vnf_name!r}"
                )
            if not nodes or nodes[-1] != node:
                nodes.append(node)
        return nodes

    def inter_node_hops(self, request_id: str) -> int:
        """Number of node-to-node transfers on the request's path.

        Eq. (16) charges ``(sum_v eta_v^r - 1)`` link latencies ``L``;
        with consecutive-duplicate collapsing this equals
        ``len(nodes_traversed) - 1``.
        """
        return max(0, len(self.nodes_traversed(request_id)) - 1)

    def instances(self) -> List[ServiceInstance]:
        """Materialize all service instances with their scheduled requests."""
        table: Dict[Tuple[str, int], ServiceInstance] = {}
        for vnf in self.vnfs:
            for k in range(vnf.num_instances):
                table[(vnf.name, k)] = ServiceInstance(vnf=vnf, index=k)
        for (request_id, vnf_name), k in self.schedule.items():
            request = self._request_by_id.get(request_id)
            if request is None:
                raise ValidationError(f"schedule references unknown request {request_id!r}")
            instance = table.get((vnf_name, k))
            if instance is None:
                raise ValidationError(
                    f"schedule references unknown instance ({vnf_name!r}, {k})"
                )
            instance.assign(request)
        return list(table.values())

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate_placement(self) -> None:
        """Check Eqs. (2) and (6).

        Raises
        ------
        ValidationError
            On an unplaced VNF, an unknown node, or a capacity violation.
        """
        self.arrays().validate_placement(self.placement)

    def validate_schedule(self) -> None:
        """Check Eq. (5): each (request, used VNF) maps to exactly one instance.

        :meth:`~repro.core.arrays.ScenarioArrays.check_schedule` checks
        the index form in a few vector passes.  Only an invalid schedule
        is walked entry by entry, for the first error: chain entries in
        request order, then schedule entries in insertion order.

        Raises
        ------
        ValidationError
            On a missing mapping, a mapping for an unused VNF, or an
            out-of-range instance index.
        """
        try:
            self.arrays().check_schedule(self.schedule_arrays())
            return
        except ValidationError:
            pass  # the walk below raises the first error in entry order
        for request in self.requests:
            for vnf_name in request.chain:
                vnf = self._vnf_by_name.get(vnf_name)
                if vnf is None:
                    raise ValidationError(
                        f"request {request.request_id!r} references unknown "
                        f"VNF {vnf_name!r}"
                    )
                key = (request.request_id, vnf_name)
                if key not in self.schedule:
                    raise ValidationError(
                        f"request {request.request_id!r} has no instance for "
                        f"VNF {vnf_name!r} (Eq. 5)"
                    )
                k = self.schedule[key]
                if not 0 <= k < vnf.num_instances:
                    raise ValidationError(
                        f"request {request.request_id!r}: instance index {k} "
                        f"out of range [0, {vnf.num_instances}) for "
                        f"VNF {vnf_name!r}"
                    )
        for (request_id, vnf_name) in self.schedule:
            request = self._request_by_id.get(request_id)
            if request is None:
                raise ValidationError(
                    f"schedule references unknown request {request_id!r}"
                )
            if not request.uses(vnf_name):
                raise ValidationError(
                    f"request {request_id!r} scheduled on VNF {vnf_name!r} "
                    "it does not use (Eq. 5)"
                )

    def validate(self) -> None:
        """Full structural validation of the joint solution."""
        self.validate_placement()
        self.validate_schedule()

    # ------------------------------------------------------------------
    # Objective ingredients
    # ------------------------------------------------------------------
    def average_node_utilization(self) -> float:
        """Objective 1 value (Eq. 13): mean utilization over used nodes."""
        arrays = self.arrays()
        return arrays.average_node_utilization(
            arrays.checked_placement_vector(self.placement)
        )

    def total_nodes_in_service(self) -> int:
        """Objective value of Eq. (14)."""
        arrays = self.arrays()
        return arrays.nodes_in_service(
            arrays.checked_placement_vector(self.placement)
        )
