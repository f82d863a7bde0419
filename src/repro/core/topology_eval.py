"""Topology-aware evaluation of Eq. (16).

:func:`evaluate_deployment` charges a flat constant ``L`` per inter-node
hop, matching the paper's model.  When an actual fabric is available,
the communication term can instead use the *measured* shortest-path
latency between the nodes a chain traverses — this module provides that
refinement, so consolidation quality can be judged against real path
lengths (same-rack vs cross-fabric hops differ).

:func:`total_latency_on_topology` is vectorized: the response term comes
from the scenario's cached column arrays and the communication term is
one gather from the fabric's dense compute-pair latency matrix
(:meth:`ScenarioArrays.topology_latency_per_request
<repro.core.arrays.ScenarioArrays.topology_latency_per_request>`) —
no per-request Router loop.  A degenerate state (unknown or unplaced
chain VNF, unknown node) raises ``ValidationError`` at entry.  The
per-request Router walk it replaced is kept as the parity reference
``total_latency_on_topology_scalar`` in ``benchmarks/_reference_impl.py``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.objectives import _instance_response_times
from repro.exceptions import ValidationError
from repro.nfv.state import DeploymentState
from repro.topology.graph import DatacenterTopology
from repro.topology.routing import Router


def request_path_latency(
    state: DeploymentState,
    router: Router,
    request_id: str,
) -> float:
    """Total link latency of one request's node path over the fabric."""
    return router.path_latency(
        [str(n) for n in state.nodes_traversed(request_id)]
    )


def _check_nodes(state: DeploymentState, topology: DatacenterTopology) -> None:
    caps = topology.capacities()
    for node in state.nodes_in_service():
        if str(node) not in caps:
            raise ValidationError(
                f"placement node {node!r} is not a compute node of "
                f"{topology.name!r}"
            )


def total_latency_on_topology(
    state: DeploymentState,
    topology: DatacenterTopology,
) -> float:
    """Eq. (16) with real shortest-path latencies instead of a flat ``L``.

    Parameters
    ----------
    state:
        A complete, validated deployment whose node keys are compute
        nodes of ``topology``.
    topology:
        The fabric supplying link latencies.

    Raises
    ------
    ValidationError
        If a placement node is not a compute node of the topology, or
        the state fails the entry checks of :func:`repro.core.objectives
        .total_latency`.
    """
    placement_vec = state.arrays().checked_placement_vector(state.placement)
    _check_nodes(state, topology)
    arrays, sched, instance_w, _ = _instance_response_times(state)
    response = arrays.response_per_request(sched, instance_w)
    if np.isinf(response).any():
        return math.inf
    comm = arrays.topology_latency_per_request(placement_vec, topology)
    return float(np.sum(response + comm))
