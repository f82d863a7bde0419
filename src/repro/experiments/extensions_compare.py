"""Extensions comparison — what the beyond-paper variants buy.

Runs the placement variants this repo adds on top of BFDSU — the
chain-affinity weighting, best-of-K restarts, and the Eq. (16) relocate
local search — on shared workloads, reporting utilization, nodes in
service, and the fraction of chain hops that cross nodes (the quantity
Eq. (16) charges ``L`` for).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.arrays import ScenarioArrays
from repro.core.local_search import refine_placement
from repro.experiments.harness import ExperimentResult
from repro.experiments.montecarlo import run_trials
from repro.experiments.registry import ExperimentSpec, register
from repro.nfv.state import DeploymentState
from repro.placement.base import PlacementProblem
from repro.placement.best_of import BestOfKPlacement
from repro.placement.bfdsu import BFDSUPlacement
from repro.placement.chain_affinity import ChainAffinityBFDSU
from repro.scheduling.kernels import schedule_columns
from repro.scheduling.rckk import RCKKScheduler
from repro.workload.generator import WorkloadGenerator


def _cross_hop_fraction(state: DeploymentState) -> float:
    crossing = 0
    total = 0
    for request in state.requests:
        names = list(request.chain)
        for a, b in zip(names[:-1], names[1:]):
            total += 1
            if state.placement[a] != state.placement[b]:
                crossing += 1
    return crossing / total if total else 0.0


#: The compared variants, in report order.
VARIANTS = ("BFDSU", "ChainAffinity", "BestOf5", "BFDSU+LocalSearch")


def _bfdsu_factory(run_index, rng):
    """Module-level BestOfK factory (picklable for parallel trials)."""
    return BFDSUPlacement(rng=rng)


def _trial(task) -> Dict[str, tuple]:
    """One repetition: every variant on one shared workload."""
    seed, rep = task
    # Independent child streams per consumer, deterministic in
    # (seed, rep) — parallel trials never share generator state.
    root = np.random.SeedSequence([seed, rep])
    gen_ss, bfdsu_ss, affinity_ss, best_ss = root.spawn(4)
    gen = WorkloadGenerator(np.random.default_rng(gen_ss))
    w = gen.workload(num_vnfs=12, num_nodes=10, num_requests=60)
    problem = PlacementProblem(
        vnfs=w.vnfs, capacities=w.capacities, chains=w.chains
    )
    arrays = ScenarioArrays.build(w.vnfs, w.requests, {})
    schedule = arrays.schedule_dict(schedule_columns(arrays, RCKKScheduler()))
    metrics: Dict[str, tuple] = {}

    def evaluate(name: str, placement_map) -> None:
        state = DeploymentState(
            vnfs=w.vnfs,
            requests=w.requests,
            node_capacities=w.capacities,
            placement=dict(placement_map),
            schedule=schedule,
        )
        if name == "BFDSU+LocalSearch":
            refine_placement(state)
        metrics[name] = (
            state.average_node_utilization(),
            state.total_nodes_in_service(),
            _cross_hop_fraction(state),
        )

    base = BFDSUPlacement(rng=np.random.default_rng(bfdsu_ss)).place(problem)
    evaluate("BFDSU", base.placement)
    evaluate("BFDSU+LocalSearch", base.placement)
    affinity = ChainAffinityBFDSU(
        rng=np.random.default_rng(affinity_ss), affinity_boost=8.0
    ).place(problem)
    evaluate("ChainAffinity", affinity.placement)
    best = BestOfKPlacement(
        _bfdsu_factory, k=5, rng=np.random.default_rng(best_ss)
    ).place(problem)
    evaluate("BestOf5", best.placement)
    return metrics


def run(
    repetitions: int = 10, seed: int = 20170622, jobs: int = 1
) -> ExperimentResult:
    """Compare the placement variants on shared workloads."""
    variants = VARIANTS
    acc: Dict[str, Dict[str, List[float]]] = {
        v: {"util": [], "nodes": [], "cross": []} for v in variants
    }
    trials = run_trials(
        _trial, [(seed, rep) for rep in range(repetitions)], jobs=jobs
    )
    for metrics in trials:
        for name, (util, nodes, cross) in metrics.items():
            acc[name]["util"].append(util)
            acc[name]["nodes"].append(nodes)
            acc[name]["cross"].append(cross)

    result = ExperimentResult(
        experiment_id="extensions",
        title="Beyond-paper placement variants on shared workloads",
        columns=["variant", "utilization", "nodes", "cross_hop_fraction"],
    )
    for variant in variants:
        result.add_row(
            variant=variant,
            utilization=float(np.mean(acc[variant]["util"])),
            nodes=float(np.mean(acc[variant]["nodes"])),
            cross_hop_fraction=float(np.mean(acc[variant]["cross"])),
        )
    result.notes.append(
        "cross_hop_fraction: share of chain hops paying Eq. (16)'s L; "
        "lower is better"
    )
    return result


SPEC = register(
    ExperimentSpec(
        name="extensions_compare",
        title="Beyond-paper placement variants on shared workloads",
        runner=run,
        profile="joint",
        tags=("placement", "beyond-paper"),
        default_repetitions=10,
        order=20,
    )
)


if __name__ == "__main__":  # pragma: no cover
    run().print()
