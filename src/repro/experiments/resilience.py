"""Resilience under fault injection — recovery policies vs MTBF.

The churn experiment prices *serving*; this one prices *surviving*.
Each trial replays one Poisson churn trace through the
:class:`~repro.serve.service.ServingLayer` three times — once per
crash-recovery policy (:mod:`repro.faults.recovery`) — against the
same seeded failure timeline (:func:`repro.faults.events
.failure_events`: per-node exponential MTBF/MTTR renewals plus
correlated rack outages), under one migration budget and one SLA spec.
Reported per (MTBF, policy): availability, latency violation-minutes,
evictions / re-admissions / lost chains, the mean simulated recovery
spell and the migrations spent.

The ``repair probe`` (:func:`repair_probe`) isolates the paper-versus-
operations tradeoff on a single crash: incremental repair (relocate
stranded VNFs, warm-start re-admit the evicted chains, finite
:class:`~repro.faults.recovery.MigrationBudget`) must reach the same
post-recovery admission set as a full re-solve over the survivors —
while moving strictly fewer chains.  ``tests/experiments/
test_resilience.py`` asserts both.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.incremental import DeploymentEngine
from repro.experiments.harness import ExperimentResult
from repro.experiments.montecarlo import run_trials
from repro.experiments.registry import ExperimentSpec, register
from repro.faults.events import failure_events
from repro.faults.recovery import (
    DeferredRecovery,
    LeastLoadedReadmit,
    MigrationBudget,
    WarmStartRelocate,
)
from repro.faults.sla import SLASpec
from repro.serve.events import poisson_churn
from repro.serve.service import ServingLayer
from repro.workload.generator import WorkloadGenerator

#: Simulated trace length (seconds) — one hour of churn under faults.
DURATION = 3600.0
#: Poisson arrival intensity (per second).
ARRIVAL_RATE = 0.05
#: Mean exponential holding time (seconds).
MEAN_HOLDING = 600.0
#: Periodic rebalance cadence (admits) — the deferred policy's repair
#: opportunity.
REBALANCE_EVERY = 20
#: Mean time to repair a crashed node (seconds).
MTTR = 180.0
#: The MTBF sweep (seconds per node).
MTBF_VALUES = (1800.0, 7200.0)
#: Nodes per correlated-failure rack.
RACK_SIZE = 6
#: Per-episode migration budget shared by recovery and rebalance.
BUDGET_MIGRATIONS = 100
BUDGET_LOAD = 2000.0
#: Eq. (14/16)-style per-chain response-time bound (seconds).  The
#: healthy embedding sits around 4-6 ms sojourn, so excursions above
#: 6 ms mark failure-induced load concentration.
LATENCY_SLA = 0.006

#: The recovery-policy contenders (name -> zero-arg factory).
POLICIES = (
    ("least-loaded", LeastLoadedReadmit),
    ("warm-start", WarmStartRelocate),
    ("deferred", DeferredRecovery),
)


def _scenario(ss: np.random.SeedSequence):
    """Infrastructure + chain catalog shared by all policies."""
    gen = WorkloadGenerator(np.random.default_rng(ss))
    w = gen.workload(num_vnfs=12, num_nodes=24, num_requests=30)
    seen = set()
    chains = []
    for request in w.requests:
        key = request.chain.vnf_names
        if key not in seen:
            seen.add(key)
            chains.append(request.chain)
    return w.vnfs, w.capacities, chains


def _trial(task) -> Dict[str, Dict[str, float]]:
    """One repetition: every policy on one churn + fault timeline."""
    seed, rep, mtbf = task
    root = np.random.SeedSequence([seed, rep, int(mtbf)])
    scenario_ss, churn_ss, fault_ss = root.spawn(3)
    vnfs, capacities, chains = _scenario(scenario_ss)
    events = poisson_churn(
        chains,
        duration=DURATION,
        arrival_rate=ARRIVAL_RATE,
        mean_holding=MEAN_HOLDING,
        rng=np.random.default_rng(churn_ss),
        prefix=f"res{rep}",
    )
    node_keys = tuple(capacities.keys())
    racks = tuple(
        node_keys[start : start + RACK_SIZE]
        for start in range(0, len(node_keys), RACK_SIZE)
    )
    faults = failure_events(
        node_keys,
        duration=DURATION,
        mtbf=mtbf,
        mttr=MTTR,
        rng=np.random.default_rng(fault_ss),
        racks=racks,
        rack_mtbf=8.0 * mtbf,
        rack_mttr=MTTR,
    )

    out: Dict[str, Dict[str, float]] = {}
    for name, factory in POLICIES:
        engine = DeploymentEngine(vnfs, capacities)
        layer = ServingLayer(
            engine,
            rebalance_every=REBALANCE_EVERY,
            faults=faults,
            recovery=factory(),
            budget=MigrationBudget(
                max_migrations=BUDGET_MIGRATIONS,
                max_moved_load=BUDGET_LOAD,
            ),
            sla=SLASpec(latency_threshold=LATENCY_SLA, check_every=4),
        )
        report = layer.process(events)
        res = report.resilience
        out[name] = {
            "availability": res.availability,
            "violation_minutes": res.violation_minutes,
            "evictions": float(res.evictions),
            "readmissions": float(res.readmissions),
            "lost": float(res.lost),
            "recovery_s": res.mean_recovery_spell,
            "migrations": float(report.migrations),
        }
    return out


def repair_probe(seed: int = 20170605, actives: int = 120) -> Dict[str, object]:
    """One crash, two repairs: incremental recovery vs full re-solve.

    Both engines start from the same embedding of ``actives`` chains
    and lose the same node (the lightest-loaded one whose failure
    evicts at least one chain).  The incremental path relocates the
    stranded VNFs and warm-start re-admits the evicted chains under a
    finite migration budget; the re-solve path re-runs the batch
    pipeline over the survivors and then re-admits.  Moved chains count
    re-admissions plus surviving chains whose placement or instance
    assignment changed — the operational cost an operator would enact.

    Admission is capacity-only (``target_utilization=None``, as in the
    churn pricing probe): the Eq. (9) utilization cap would make the
    two admission sets depend on how each repair happened to spread
    instance load, which is exactly the noise this probe excludes.
    """
    gen = WorkloadGenerator(np.random.default_rng(seed))
    w = gen.workload(num_vnfs=12, num_nodes=24, num_requests=actives)
    requests = list(w.requests)

    # --- incremental repair -----------------------------------------
    eng_inc = DeploymentEngine(
        w.vnfs, w.capacities, requests, target_utilization=None
    )
    hosted: Dict[object, int] = {}
    for node in eng_inc.placement.values():
        hosted[node] = hosted.get(node, 0) + 1
    evicted: List = []
    victim = None
    for candidate in sorted(hosted, key=lambda n: (hosted[n], str(n))):
        evicted = eng_inc.fail_node(candidate)
        if evicted:
            victim = candidate
            break
        eng_inc.recover_node(candidate)
    budget = MigrationBudget(
        max_migrations=len(w.vnfs) + len(evicted),
        max_moved_load=float("inf"),
    )
    outcome = LeastLoadedReadmit().recover(eng_inc, evicted, budget=budget)
    moved_incremental = len(outcome.readmitted)
    active_incremental = frozenset(eng_inc.active_requests)

    # --- full re-solve over the survivors ---------------------------
    eng_full = DeploymentEngine(
        w.vnfs, w.capacities, requests, target_utilization=None
    )
    evicted_full = eng_full.fail_node(victim)
    survivors = tuple(eng_full.active_requests)
    before_assign = {rid: eng_full.assignment_of(rid) for rid in survivors}
    before_place = dict(eng_full.placement)
    eng_full.rebalance()
    moved_survivors = 0
    for rid in survivors:
        assign = eng_full.assignment_of(rid)
        if assign != before_assign[rid] or any(
            eng_full.placement[name] != before_place[name]
            for name in assign
        ):
            moved_survivors += 1
    readmitted_full = sum(
        report.admitted for report in eng_full.admit_many(evicted_full)
    )
    moved_full = moved_survivors + readmitted_full
    return {
        "victim": victim,
        "evicted": len(evicted),
        "moved_incremental": moved_incremental,
        "pending_incremental": len(outcome.pending),
        "vnf_moves": outcome.vnf_moves,
        "moved_full": moved_full,
        "same_admission_set": active_incremental
        == frozenset(eng_full.active_requests),
    }


def run(
    repetitions: int = 3, seed: int = 20170809, jobs: int = 1
) -> ExperimentResult:
    """Sweep MTBF across the recovery-policy contenders."""
    tasks = [
        (seed, rep, mtbf)
        for mtbf in MTBF_VALUES
        for rep in range(repetitions)
    ]
    trials = run_trials(_trial, tasks, jobs=jobs)

    result = ExperimentResult(
        experiment_id="resilience",
        title="Crash recovery under fault injection (SLA-tracked)",
        columns=[
            "mtbf_s",
            "policy",
            "availability",
            "violation_minutes",
            "evictions",
            "readmissions",
            "lost",
            "recovery_s",
            "migrations",
        ],
    )
    for point, mtbf in enumerate(MTBF_VALUES):
        point_trials = trials[
            point * repetitions : (point + 1) * repetitions
        ]
        for name, _factory in POLICIES:
            acc: Dict[str, List[float]] = {}
            for trial in point_trials:
                for column, value in trial[name].items():
                    acc.setdefault(column, []).append(value)
            result.add_row(
                mtbf_s=mtbf,
                policy=name,
                **{
                    column: float(np.mean(values))
                    for column, values in acc.items()
                },
            )
    probe = repair_probe(seed)
    result.notes.append(
        f"{DURATION / 3600:.0f}h churn (lambda={ARRIVAL_RATE}/s, holding "
        f"{MEAN_HOLDING:.0f}s) under per-node MTBF/MTTR renewals + "
        f"correlated {RACK_SIZE}-node rack outages; budget "
        f"{BUDGET_MIGRATIONS} migrations / {BUDGET_LOAD:.0f} load per "
        f"episode; SLA latency bound {LATENCY_SLA}s"
    )
    result.notes.append(
        "repair probe (one crash, finite budget): incremental recovery "
        f"moved {probe['moved_incremental']} chains "
        f"(+{probe['vnf_moves']} VNF relocations) vs "
        f"{probe['moved_full']} for a full re-solve; same post-recovery "
        f"admission set: {probe['same_admission_set']}"
    )
    result.notes.append(
        "deferred recovery pays availability for zero immediate "
        "migrations (repairs ride the next periodic rebalance)"
    )
    return result


SPEC = register(
    ExperimentSpec(
        name="resilience",
        title="Crash recovery under fault injection (SLA-tracked)",
        runner=run,
        profile="joint",
        tags=("serving", "faults", "beyond-paper"),
        default_repetitions=3,
        order=24,
    )
)


if __name__ == "__main__":  # pragma: no cover
    print(run(repetitions=2).render())
