"""The two-phase joint optimizer (Section IV of the paper).

:class:`JointOptimizer` chains the two phases:

1. **Placement** — a :class:`~repro.placement.base.PlacementAlgorithm`
   (default: BFDSU) packs the VNFs onto compute nodes, maximizing
   utilization / minimizing nodes in service.
2. **Scheduling** — a :class:`~repro.scheduling.base.SchedulingAlgorithm`
   (default: RCKK) balances each VNF's requests across its service
   instances, minimizing average response latency.

The result is a :class:`JointSolution` wrapping a fully validated
:class:`~repro.nfv.state.DeploymentState` plus both phases' raw results,
with one-call evaluation against all paper metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Mapping, Optional, Sequence, Tuple

from repro.core.evaluation import EvaluationReport, evaluate_deployment
from repro.nfv.chain import ServiceChain
from repro.nfv.request import Request
from repro.nfv.state import DeploymentState
from repro.nfv.vnf import VNF
from repro.placement.base import (
    PlacementAlgorithm,
    PlacementProblem,
    PlacementResult,
)
from repro.placement.bfdsu import BFDSUPlacement
from repro.scheduling.base import SchedulingAlgorithm
from repro.scheduling.kernels import schedule_columns
from repro.scheduling.rckk import RCKKScheduler
from repro.topology.graph import DEFAULT_LINK_LATENCY


@dataclass
class JointSolution:
    """A complete two-phase solution with evaluation helpers."""

    state: DeploymentState
    placement_result: PlacementResult
    schedule: Dict[Tuple[str, str], int]
    link_latency: float = DEFAULT_LINK_LATENCY

    def evaluate(self, with_admission: bool = True) -> EvaluationReport:
        """Score this solution on every paper metric."""
        return evaluate_deployment(
            self.state,
            link_latency=self.link_latency,
            with_admission=with_admission,
        )


class JointOptimizer:
    """Two-phase VNF chain placement + request scheduling.

    Parameters
    ----------
    placement:
        Phase-one algorithm; defaults to the paper's BFDSU.
    scheduler:
        Phase-two algorithm; defaults to the paper's RCKK.
    link_latency:
        The per-hop constant ``L`` for Eq. (16) evaluation.
    """

    def __init__(
        self,
        placement: Optional[PlacementAlgorithm] = None,
        scheduler: Optional[SchedulingAlgorithm] = None,
        link_latency: float = DEFAULT_LINK_LATENCY,
    ) -> None:
        self._placement = placement if placement is not None else BFDSUPlacement()
        self._scheduler = scheduler if scheduler is not None else RCKKScheduler()
        self._link_latency = link_latency

    def optimize(
        self,
        vnfs: Sequence[VNF],
        requests: Sequence[Request],
        capacities: Mapping[Hashable, float],
    ) -> JointSolution:
        """Run both phases and return a validated joint solution.

        Parameters
        ----------
        vnfs:
            The VNFs ``F`` to deploy.
        requests:
            The requests ``R``; their chains define ``U_r^f`` and are fed
            to chain-aware placement algorithms.
        capacities:
            ``A_v`` per compute node.
        """
        placement_result = self._placement.place(
            PlacementProblem(
                vnfs, capacities, chains=_distinct_chains(requests)
            )
        )
        state = DeploymentState(
            vnfs=list(vnfs),
            requests=list(requests),
            node_capacities=dict(capacities),
            placement=dict(placement_result.placement),
        )
        # Schedule and validate on the columns the state caches; the
        # dict is built once, at the boundary, and the checked index
        # form stays cached for the metrics.
        arrays = state.arrays()
        sched = schedule_columns(arrays, self._scheduler)
        state.validate_placement()
        arrays.check_schedule(sched)
        schedule = arrays.schedule_dict(sched)
        state.set_schedule(schedule, sched)
        return JointSolution(
            state=state,
            placement_result=placement_result,
            schedule=schedule,
            link_latency=self._link_latency,
        )


def _distinct_chains(requests: Sequence[Request]) -> Tuple[ServiceChain, ...]:
    """The distinct service chains of a request set, in first-seen order."""
    chains: Dict[Tuple[str, ...], ServiceChain] = {}
    for request in requests:
        chains.setdefault(request.chain.vnf_names, request.chain)
    return tuple(chains.values())
