"""End-to-end evaluation of a joint deployment.

:func:`evaluate_deployment` scores a complete
:class:`~repro.nfv.state.DeploymentState` on every metric the paper's
evaluation section uses, in one pass:

* placement quality (Eqs. 13/14 + resource occupation),
* scheduling quality (Eq. 15, per-instance utilizations),
* the coordinated objective (Eq. 16) with link latency ``L``,
* job rejection rate under admission control.

The state is validated once, at entry; the scoring itself is
:func:`evaluate_columns` on the state's cached columnar view
(:mod:`repro.core.arrays`): instance rates, utilizations and the Eq. (12)
response times are segment sums over the schedule's index arrays, and
the Eq. (16) communication term is one pass over the chain CSR.  Only
when admission control actually has to shed load do the latency and
rejection fields come from the per-object path, because the greedy
per-instance rejection policy is sequential.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.admission import (
    DEFAULT_TARGET_UTILIZATION,
    apply_admission_control,
)
from repro.nfv.state import DeploymentState
from repro.topology.graph import DEFAULT_LINK_LATENCY


@dataclass(frozen=True)
class EvaluationReport:
    """Every paper metric for one joint solution."""

    # Placement metrics (Figs. 5-9)
    average_node_utilization: float
    nodes_in_service: int
    resource_occupation: float
    # Scheduling metrics (Figs. 11-14)
    average_response_latency: float
    max_instance_utilization: float
    # Coordinated objective (Eq. 16)
    total_latency: float
    average_total_latency: float
    # Admission (Figs. 15-16).  Both count (request, instance) slots: a
    # request shed at two instances of its chain counts twice, and the
    # rate is shed slots over scheduled slots.
    num_rejected: int
    rejection_rate: float

    def is_stable(self) -> bool:
        """Whether every serving instance has a steady state."""
        return math.isfinite(self.average_response_latency)


def evaluate_deployment(
    state: DeploymentState,
    link_latency: float = DEFAULT_LINK_LATENCY,
    with_admission: bool = True,
    topology=None,
) -> EvaluationReport:
    """Score a complete deployment on all paper metrics.

    Parameters
    ----------
    state:
        The joint solution; it is structurally validated first.
    link_latency:
        The per-hop constant ``L`` of Eq. (16).
    with_admission:
        When True, rejection metrics come from running admission control
        over the scheduled instances (the analytic state itself is left
        untouched — latency metrics describe the *admitted* load only if
        shedding was required).
    topology:
        Optional :class:`~repro.topology.graph.DatacenterTopology` (or
        its arrays).  When given, Eq. (16)'s communication term charges
        the fabric's measured shortest-path latency per inter-node
        transition instead of the flat ``link_latency`` constant; every
        placement node must be a compute node of the fabric.  ``None``
        (the default) keeps the paper's flat-``L`` model exactly.
    """
    state.validate()
    arrays = state.arrays()
    sched = state.schedule_arrays()
    report = evaluate_columns(
        arrays,
        arrays.placement_vector(state.placement),
        sched,
        link_latency,
        topology,
    )
    if (
        with_admission
        and report.max_instance_utilization > DEFAULT_TARGET_UTILIZATION
    ):
        return _evaluate_with_shedding(state, report, link_latency, topology)
    return report


def _evaluate_with_shedding(
    state: DeploymentState,
    report: EvaluationReport,
    link_latency: float,
    topology=None,
) -> EvaluationReport:
    """``report`` with its latency and rejection fields recomputed over
    the load that admission control keeps."""
    serving = [inst for inst in state.instances() if inst.requests]
    outcome = apply_admission_control(serving)
    latency_instances = [inst for inst in outcome.instances if inst.requests]

    total = avg_total = avg_w = math.inf
    if latency_instances and all(i.is_stable for i in latency_instances):
        avg_w = sum(i.mean_response_time for i in latency_instances) / len(
            latency_instances
        )
        total, counted = _latency_after_admission(
            state, latency_instances, link_latency, topology
        )
        if counted:
            avg_total = total / counted
        else:
            total = math.inf

    return dataclasses.replace(
        report,
        average_response_latency=avg_w,
        total_latency=total,
        average_total_latency=avg_total,
        num_rejected=outcome.num_rejected,
        rejection_rate=outcome.rejection_rate,
    )


def _latency_after_admission(
    state, instances, link_latency, topology=None
) -> Tuple[float, int]:
    """Summed Eq. (16) latency over the requests admission kept at every
    VNF of their chain, and how many requests that sum counts.

    A request shed at any one instance of its chain is left out, even
    where other instances kept it.
    """
    instance_w = {}
    kept = set()
    for inst in instances:
        if inst.requests:
            instance_w[inst.key] = inst.mean_response_time
            kept.update((r.request_id, inst.key) for r in inst.requests)
    arrays = state.arrays()
    placement_vec = arrays.placement_vector(state.placement)
    if topology is None:
        comm = arrays.hops_per_request(placement_vec) * link_latency
    else:
        comm = arrays.topology_latency_per_request(placement_vec, topology)
    total = 0.0
    counted = 0
    for i, request in enumerate(state.requests):
        response = 0.0
        for vnf_name in request.chain:
            key = (vnf_name, state.schedule.get((request.request_id, vnf_name)))
            if (request.request_id, key) not in kept:
                break
            response += instance_w[key]
        else:
            total += response + float(comm[i])
            counted += 1
    return total, counted


def evaluate_columns(
    arrays,
    placement_vec: np.ndarray,
    sched,
    link_latency: float = DEFAULT_LINK_LATENCY,
    topology=None,
) -> EvaluationReport:
    """Score a ``(ScenarioArrays, placement-vector, ScheduleArrays)``
    triple on every paper metric.

    The body of :func:`evaluate_deployment`, and the million-request
    path: it never builds a :class:`~repro.nfv.state.DeploymentState`
    (whose dict-shaped ``placement``/``schedule`` would cost more than
    the evaluation itself at scale).  The columns are trusted as given —
    validation belongs to the caller's boundary.  Admission control is
    not modeled here: callers arrange stability up front (e.g.
    :func:`repro.workload.stream.rescale_to_stability`), so the
    rejection metrics are reported as zero exactly as the
    ``with_admission=False`` route does.
    """
    equivalent, external, counts = arrays.instance_rates(sched)
    serving = counts > 0
    utilization = arrays.instance_utilizations(equivalent)
    max_util = (
        float(utilization[serving].max()) if serving.any() else 0.0
    )

    if serving.any() and bool((utilization[serving] < 1.0).all()):
        instance_w = arrays.instance_response_times(equivalent, external)
        w = instance_w[serving]
        avg_w = float(w.sum() / len(w))
    else:
        instance_w = None
        avg_w = math.inf

    num_requests = len(arrays.request_ids)
    if math.isfinite(avg_w):
        response = arrays.response_per_request(sched, instance_w)
        if topology is None:
            comm = arrays.hops_per_request(placement_vec) * link_latency
        else:
            comm = arrays.topology_latency_per_request(
                placement_vec, topology
            )
        total = float(np.sum(response + comm))
        avg_total = total / num_requests if num_requests else 0.0
    else:
        total = math.inf
        avg_total = math.inf

    return EvaluationReport(
        average_node_utilization=arrays.average_node_utilization(
            placement_vec
        ),
        nodes_in_service=arrays.nodes_in_service(placement_vec),
        resource_occupation=arrays.occupied_capacity(placement_vec),
        average_response_latency=avg_w,
        max_instance_utilization=max_util,
        total_latency=total,
        average_total_latency=avg_total,
        num_rejected=0,
        rejection_rate=0.0,
    )
