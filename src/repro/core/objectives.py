"""Evaluators for the paper's objective functions, Eqs. (13)-(16).

These functions score a complete :class:`~repro.nfv.state.DeploymentState`:

* Eq. (13): maximize the average resource utilization of nodes in service.
* Eq. (14): minimize the number of nodes in service (complementary).
* Eq. (15): minimize the average response latency per service instance.
* Eq. (16): minimize the total latency of all requests — per-request
  instance response times plus ``(sum_v eta_v^r - 1) * L`` link latency.

All four run on the state's cached :class:`~repro.core.arrays.ScenarioArrays`
(segment sums over instance/request columns).  The state is checked once,
at entry: an unplaced chain VNF, a node missing from the capacity map or
a chain VNF without a schedule entry raises ``ValidationError`` before any
column is reduced.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

from repro.exceptions import SchedulingError
from repro.nfv.state import DeploymentState


def average_node_utilization(state: DeploymentState) -> float:
    """Objective 1 (Eq. 13): mean load/capacity over used nodes."""
    return state.average_node_utilization()


def total_nodes_in_service(state: DeploymentState) -> int:
    """The complementary objective (Eq. 14): ``sum_v y_v``."""
    return state.total_nodes_in_service()


def _instance_response_times(state: DeploymentState) -> Tuple:
    """``(arrays, sched, instance_w, serving)`` for the current schedule.

    ``instance_w`` holds ``W(f,k)`` per global instance — ``inf`` for an
    unstable serving instance, ``nan`` for an idle one.  A chain VNF
    without a schedule entry raises the Eq. (5) ``ValidationError``.
    """
    arrays = state.arrays()
    sched = state.schedule_arrays()
    if bool((arrays.chain_instances(sched) < 0).any()):
        state.validate_schedule()  # raises the Eq. 5 message
    equivalent, external, counts = arrays.instance_rates(sched)
    instance_w = arrays.instance_response_times(equivalent, external)
    return arrays, sched, instance_w, counts > 0


def average_response_latency(state: DeploymentState) -> float:
    """Objective 2 (Eq. 15): mean ``W(f,k)`` over serving instances.

    Instances with no scheduled requests are skipped (their ``W`` is
    undefined); an unstable serving instance yields ``inf``.
    """
    _, _, instance_w, serving = _instance_response_times(state)
    if not serving.any():
        raise SchedulingError("no instance serves any request")
    w = instance_w[serving]
    if np.isinf(w).any():
        return math.inf
    return float(w.sum() / len(w))


def per_request_response_time(state: DeploymentState) -> Dict[str, float]:
    """Each request's summed instance response times along its chain.

    The first term of Eq. (16): ``sum_f sum_k z_{r,k}^f U_r^f W(f,k)``.
    """
    arrays, sched, instance_w, _ = _instance_response_times(state)
    totals = arrays.response_per_request(sched, instance_w)
    return {
        request_id: float(total)
        for request_id, total in zip(arrays.request_ids, totals)
    }


def total_latency(state: DeploymentState, link_latency: float) -> float:
    """Eq. (16): summed response + communication latency of all requests.

    Parameters
    ----------
    state:
        A complete, validated deployment.
    link_latency:
        The per-hop constant ``L`` (propagation + transmission).
    """
    arrays, sched, instance_w, _ = _instance_response_times(state)
    hops = arrays.hops_per_request(
        arrays.checked_placement_vector(state.placement)
    )
    response = arrays.response_per_request(sched, instance_w)
    return float(np.sum(response + hops * link_latency))


def average_total_latency(state: DeploymentState, link_latency: float) -> float:
    """Eq. (16) normalized per request — the paper's headline latency."""
    n = len(state.requests)
    if n == 0:
        raise SchedulingError("deployment has no requests")
    return total_latency(state, link_latency) / n
