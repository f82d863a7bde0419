"""Ablations — the design choices DESIGN.md calls out, as one table.

Each ablation keeps its scenario, sample size and seed offset:

* **abl-weighted** — BFDSU's weighted random draw vs deterministic
  best fit (:class:`~repro.placement.bfd.BFDPlacement`): utilization and
  nodes in service (15 VNFs, 10 nodes, 10 instances).
* **abl-usedlist** — BFD with and without the Used-before-Spare
  candidate priority, same instances.
* **abl-reverse** — mean spread of RCKK's reverse-order combine vs the
  forward combine and greedy LPT (n=30 uniform values, m=5, 200 draws).
* **abl-pooling** — mean W of RCKK and round-robin (admission control
  on, with the share of requests it sheds) against the analytic
  perfectly balanced split (``m`` M/M/1 queues) and the pooled M/M/c
  station at the same load (n=50, m=5, rho=0.9, 50 instances).
* **abl-swap** — mean makespan of RCKK vs swap refinement at m=5, and
  of swap refinement vs the two-way CKK search at m=2 (n=24, rho=0.9).
* **abl-localsearch** — mean inter-node chain hops before and after
  :func:`~repro.core.local_search.refine_placement`, for FFD and BFDSU
  (10 VNFs, 8 nodes, 40 requests, 8 instances).

``repetitions`` scales only the m=2 pair of abl-swap
(``60 * repetitions / 100`` instances): CKK spends its whole
50,000-node budget on every one of them (about 0.17 s each), while the
other ablations together take a fraction of a second at their fixed
sizes.  ``seed`` offsets every ablation's seed; ``seed=0`` draws the
instances the ablations were first measured on.

Not here: abl-affinity is ``extensions_compare``'s ChainAffinity row,
and abl-jackson is ``tests/sim/test_sim_vs_analytic.py``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.local_search import refine_placement, total_inter_node_hops
from repro.experiments.harness import ExperimentResult
from repro.experiments.montecarlo import run_trials
from repro.experiments.registry import ExperimentSpec, register
from repro.nfv.state import DeploymentState
from repro.partition.greedy import greedy_partition
from repro.partition.rckk import forward_ckk_partition, rckk_partition
from repro.placement.base import PlacementProblem
from repro.placement.bfd import BFDPlacement
from repro.placement.bfdsu import BFDSUPlacement
from repro.placement.ffd import FFDPlacement
from repro.queueing.mm1 import MM1Queue
from repro.queueing.mmc import MMCQueue
from repro.scheduling.base import schedule_all_vnfs
from repro.scheduling.ckk import CKKScheduler
from repro.scheduling.metrics import schedule_report
from repro.scheduling.rckk import RCKKScheduler
from repro.scheduling.round_robin import RoundRobinScheduler
from repro.scheduling.swap_refine import SwapRefinedScheduler
from repro.workload.generator import WorkloadGenerator
from repro.workload.scenarios import PlacementScenario, SchedulingScenario

#: The ``repetitions`` at which abl-swap's m=2 pair runs ``SWAP_REPS``.
DEFAULT_REPETITIONS = 100

#: Instances per ablation.
WEIGHTED_REPS = 10
REVERSE_REPS = 200
POOLING_REPS = 50
SWAP_REPS = 60
LOCALSEARCH_REPS = 8


Metrics = Dict[Tuple[str, str], float]


def _weighted(seed: int, rep: int) -> Metrics:
    """Utilization and nodes of BFDSU, BFD and BFD over all nodes."""
    problem = PlacementScenario(num_vnfs=15, num_nodes=10, seed=seed + 31).build(
        rep
    )
    out = {}
    for name, algorithm in (
        ("BFDSU", BFDSUPlacement(rng=np.random.default_rng(seed + rep))),
        ("BFD", BFDPlacement()),
        ("BFD-all-nodes", BFDPlacement(use_used_list=False)),
    ):
        result = algorithm.place(problem)
        out[name, "utilization"] = result.average_utilization
        out[name, "nodes"] = float(result.num_used_nodes)
    return out


def _reverse(values: Sequence[float]) -> Metrics:
    """Spread (max - min way sum) of each combine on one value set."""
    values = list(values)
    return {
        (name, "spread"): partition(values, 5).spread
        for name, partition in (
            ("RCKK", rckk_partition),
            ("forward-CKK", forward_ckk_partition),
            ("greedy", greedy_partition),
        )
    }


def _pooling(seed: int, rep: int) -> Metrics:
    """W and shed share of RCKK and round-robin, and the two analytic
    references at the instance's load."""
    m = 5
    problem = SchedulingScenario(
        num_requests=50, num_instances=m, rho=0.9, seed=seed + 23
    ).build(rep)
    out = {}
    for name, scheduler in (
        ("RCKK", RCKKScheduler()),
        ("RoundRobin", RoundRobinScheduler()),
    ):
        report = schedule_report(scheduler.schedule(problem), apply_admission=True)
        out[name, "mean_w"] = report.average_response_time
        out[name, "rejection_rate"] = report.rejection_rate
    mu = problem.vnf.service_rate
    total = problem.total_effective_rate()
    out["M/M/1 split", "mean_w"] = MM1Queue(total / m, mu).mean_response_time
    out["M/M/c pooled", "mean_w"] = MMCQueue(
        total, mu, servers=m
    ).mean_response_time
    return out


def _swap(seed: int, rep: int, m: int) -> Metrics:
    """Makespan (peak instance rate) of swap refinement and its baseline."""
    problem = SchedulingScenario(
        num_requests=24, num_instances=m, rho=0.9, seed=seed + 53
    ).build(rep)
    baseline = ("RCKK", RCKKScheduler()) if m > 2 else ("CKK", CKKScheduler())
    return {
        (f"{name} m={m}", "makespan"): max(
            scheduler.schedule(problem).instance_rates()
        )
        for name, scheduler in (("SwapRefined", SwapRefinedScheduler()), baseline)
    }


def _localsearch(seed: int, rep: int) -> Metrics:
    """Inter-node hops before and after relocate refinement."""
    w = WorkloadGenerator(np.random.default_rng(seed + 1000 + rep)).workload(
        num_vnfs=10, num_nodes=8, num_requests=40
    )
    problem = PlacementProblem(vnfs=w.vnfs, capacities=w.capacities, chains=w.chains)
    schedule = schedule_all_vnfs(w.vnfs, w.requests, RCKKScheduler())
    out = {}
    for name, algorithm in (
        ("FFD", FFDPlacement()),
        ("BFDSU", BFDSUPlacement(rng=np.random.default_rng(seed + rep))),
    ):
        state = DeploymentState(
            vnfs=w.vnfs,
            requests=w.requests,
            node_capacities=w.capacities,
            placement=dict(algorithm.place(problem).placement),
            schedule=schedule,
        )
        out[name, "hops_before"] = float(total_inter_node_hops(state))
        out[name, "hops_after"] = float(refine_placement(state).final_hops)
    return out


def _call(task: tuple) -> Metrics:
    """Run one ``(function, *args)`` trial (module level, so picklable)."""
    fn, *args = task
    return fn(*args)


#: Table sections: (ablation, trial set, variants, metrics), one row per
#: variant and metric.  abl-usedlist reads the abl-weighted trials.
_SECTIONS: Tuple[Tuple[str, str, Tuple[str, ...], Tuple[str, ...]], ...] = (
    ("abl-weighted", "weighted", ("BFDSU", "BFD"), ("utilization", "nodes")),
    (
        "abl-usedlist",
        "weighted",
        ("BFD", "BFD-all-nodes"),
        ("utilization", "nodes"),
    ),
    ("abl-reverse", "reverse", ("RCKK", "forward-CKK", "greedy"), ("spread",)),
    (
        "abl-pooling",
        "pooling",
        ("RCKK", "RoundRobin", "M/M/1 split", "M/M/c pooled"),
        ("mean_w",),
    ),
    ("abl-pooling", "pooling", ("RCKK", "RoundRobin"), ("rejection_rate",)),
    ("abl-swap", "swap5", ("RCKK m=5", "SwapRefined m=5"), ("makespan",)),
    ("abl-swap", "swap2", ("CKK m=2", "SwapRefined m=2"), ("makespan",)),
    (
        "abl-localsearch",
        "localsearch",
        ("FFD", "BFDSU"),
        ("hops_before", "hops_after"),
    ),
)


def run(
    repetitions: int = DEFAULT_REPETITIONS, seed: int = 0, jobs: int = 1
) -> ExperimentResult:
    """Run every ablation; one row per (ablation, variant, metric)."""
    swap2_reps = max(1, SWAP_REPS * repetitions // DEFAULT_REPETITIONS)
    draws = np.random.default_rng(seed + 13).uniform(
        1.0, 100.0, size=(REVERSE_REPS, 30)
    )
    trials: Dict[str, List[tuple]] = {
        "weighted": [(_weighted, seed, rep) for rep in range(WEIGHTED_REPS)],
        "reverse": [(_reverse, tuple(row)) for row in draws.tolist()],
        "pooling": [(_pooling, seed, rep) for rep in range(POOLING_REPS)],
        "swap5": [(_swap, seed, rep, 5) for rep in range(SWAP_REPS)],
        "swap2": [(_swap, seed, rep, 2) for rep in range(swap2_reps)],
        "localsearch": [
            (_localsearch, seed, rep) for rep in range(LOCALSEARCH_REPS)
        ],
    }
    outcomes = iter(
        run_trials(_call, [t for ts in trials.values() for t in ts], jobs=jobs)
    )
    done = {key: [next(outcomes) for _ in ts] for key, ts in trials.items()}

    result = ExperimentResult(
        experiment_id="ablations",
        title="Design-choice ablations (DESIGN.md)",
        columns=["ablation", "variant", "metric", "value", "reps"],
    )
    for ablation, key, variants, metrics in _SECTIONS:
        for variant in variants:
            for metric in metrics:
                result.add_row(
                    ablation=ablation,
                    variant=variant,
                    metric=metric,
                    value=float(np.mean([o[variant, metric] for o in done[key]])),
                    reps=len(done[key]),
                )
    result.notes.extend(
        [
            "abl-weighted/usedlist: mean utilization and nodes in service; "
            "BFD-all-nodes drops the Used-before-Spare priority",
            "abl-reverse: spread = largest minus smallest way sum",
            "abl-pooling: mean W of the admitted requests, with admission "
            "control shedding the rejection_rate share; the M/M/1 split and "
            "M/M/c pooled rows are closed forms at each instance's load",
            "abl-swap: makespan = peak instance rate; CKK m=2 stops at its "
            "50,000-node budget",
            "abl-localsearch: inter-node chain hops per instance, before and "
            "after refine_placement",
        ]
    )
    return result


SPEC = register(
    ExperimentSpec(
        name="ablations",
        title="Design-choice ablations (DESIGN.md)",
        runner=run,
        profile="scheduling",
        tags=("placement", "scheduling", "ablation"),
        default_repetitions=DEFAULT_REPETITIONS,
        order=25,
    )
)


if __name__ == "__main__":  # pragma: no cover
    run().print()
