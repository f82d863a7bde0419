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
the Eq. (16) communication term is one pass over the chain CSR.  When
some instance is over the admission target,
:func:`repro.core.admission.admission_mask` decides per request which
requests are admitted, and the latency and rejection fields are computed
over those requests only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.admission import DEFAULT_TARGET_UTILIZATION, admission_mask
from repro.core.arrays import ScheduleArrays
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
    # Admission (Figs. 15-16): rejected requests, and rejected over
    # offered requests.  A request is admitted or rejected whole.
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
        When True and some instance is over the admission target,
        :func:`~repro.core.admission.admission_mask` decides which
        requests are admitted; the latency fields then describe the
        admitted requests only and the rejection fields count the rest
        (the state itself is left untouched).  When False, an unstable
        instance (utilization at or above 1) makes the latency fields
        infinite.
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
    placement_vec = arrays.placement_vector(state.placement)
    report = evaluate_columns(
        arrays, placement_vec, sched, link_latency, topology
    )
    if (
        with_admission
        and report.max_instance_utilization > DEFAULT_TARGET_UTILIZATION
    ):
        admitted = admission_mask(
            sched.req, sched.inst, arrays.eff_rate, arrays.mu_inst
        )
        report = evaluate_columns(
            arrays, placement_vec, sched, link_latency, topology, admitted
        )
    return report


def evaluate_columns(
    arrays,
    placement_vec: np.ndarray,
    sched,
    link_latency: float = DEFAULT_LINK_LATENCY,
    topology=None,
    admitted: Optional[np.ndarray] = None,
) -> EvaluationReport:
    """Score a ``(ScenarioArrays, placement-vector, ScheduleArrays)``
    triple on every paper metric.

    The body of :func:`evaluate_deployment`, and the million-request
    path: it never builds a :class:`~repro.nfv.state.DeploymentState`
    (whose dict-shaped ``placement``/``schedule`` would cost more than
    the evaluation itself at scale).  The columns are trusted as given —
    validation belongs to the caller's boundary.

    ``admitted`` is a per-request bool mask (e.g. from
    :func:`~repro.core.admission.admission_mask`); ``None`` admits every
    request.  The response times, the Eq. (16) latency and their means
    are computed over the admitted requests only, and the rejection
    fields count the others; ``max_instance_utilization`` stays that of
    the offered load.
    """
    equivalent, external, counts = arrays.instance_rates(sched)
    serving = counts > 0
    utilization = arrays.instance_utilizations(equivalent)
    max_util = (
        float(utilization[serving].max()) if serving.any() else 0.0
    )

    num_requests = len(arrays.request_ids)
    num_rejected = 0
    if admitted is not None:
        num_rejected = num_requests - int(np.count_nonzero(admitted))
    if num_rejected:
        keep = admitted[sched.req]
        equivalent, external, counts = arrays.instance_rates(
            ScheduleArrays(
                req=sched.req[keep],
                vnf=sched.vnf[keep],
                k=sched.k[keep],
                inst=sched.inst[keep],
            )
        )
        serving = counts > 0
        utilization = arrays.instance_utilizations(equivalent)

    if serving.any() and bool((utilization[serving] < 1.0).all()):
        instance_w = arrays.instance_response_times(equivalent, external)
        w = instance_w[serving]
        avg_w = float(w.sum() / len(w))
    else:
        instance_w = None
        avg_w = math.inf

    if math.isfinite(avg_w):
        response = arrays.response_per_request(sched, instance_w)
        if topology is None:
            comm = arrays.hops_per_request(placement_vec) * link_latency
        else:
            comm = arrays.topology_latency_per_request(
                placement_vec, topology
            )
        latency = response + comm
        if num_rejected:
            latency = latency[admitted]
        total = float(np.sum(latency))
        avg_total = total / len(latency) if len(latency) else 0.0
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
        num_rejected=num_rejected,
        rejection_rate=(
            num_rejected / num_requests if num_requests else 0.0
        ),
    )
