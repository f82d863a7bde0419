"""Churn serving — incremental engine vs per-arrival full re-solve.

The paper's optimizer is a batch solver; ROADMAP item 1 asks what it
costs to run it as a long-running service.  This experiment replays
hours of simulated Poisson churn (arrivals + exponential holding
times) through two serving policies sharing one workload and one
admission rule (Eq. (9) utilization cap at the
:mod:`repro.core.admission` target):

* **incremental** — :class:`~repro.serve.service.ServingLayer` over a
  :class:`~repro.core.incremental.DeploymentEngine`: O(chain)
  warm-start admits, exact-retract departures, full re-optimization
  every ``REBALANCE_EVERY`` admits.
* **full-resolve** — the batch pipeline rerun from scratch on every
  arrival (the naive way to serve with a batch solver); an arrival is
  rejected when the re-solved schedule would push some instance past
  the utilization cap.

Reported per policy: migrations (assignment changes an operator would
have to enact) and the rejection rate.  Both are deterministic per
seed; the wall-clock price of an admit against a from-scratch solve is
measured and gated by ``benchmarks/bench_serve.py`` instead.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.incremental import (
    ADMISSION_POLICIES,
    DeploymentEngine,
    solve_joint,
)
from repro.exceptions import ConfigurationError
from repro.experiments.harness import ExperimentResult
from repro.experiments.montecarlo import run_trials
from repro.experiments.registry import ExperimentSpec, register
from repro.nfv.request import Request
from repro.serve.events import poisson_churn
from repro.serve.service import ServingLayer
from repro.workload.generator import WorkloadGenerator

#: Simulated trace length (seconds) — two hours of churn.
DURATION = 7200.0
#: Poisson arrival intensity (per second).
ARRIVAL_RATE = 0.03
#: Mean exponential holding time (seconds).
MEAN_HOLDING = 800.0
#: Full re-optimization cadence of the incremental policy (admits).
REBALANCE_EVERY = 25


def _scenario(ss: np.random.SeedSequence):
    """Infrastructure + chain catalog shared by both policies."""
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


def _max_utilization(state, vnfs) -> float:
    """Peak instance utilization of a solved state (Eq. 9)."""
    arrays = state.arrays()
    sched = state.schedule_arrays()
    equivalent, _, _ = arrays.instance_rates(sched)
    with np.errstate(divide="ignore", invalid="ignore"):
        util = np.where(arrays.mu_inst > 0, equivalent / arrays.mu_inst, 0.0)
    return float(util.max()) if len(util) else 0.0


def _full_resolve_policy(
    vnfs, capacities, events, target: float
) -> Dict[str, float]:
    """Serve by rerunning the batch solver on every arrival."""
    active: Dict[str, Request] = {}
    rejected = set()
    placement: Dict[str, object] = {}
    schedule: Dict[tuple, int] = {}
    migrations = 0
    arrivals = 0
    rejections = 0
    for event in events:
        if event.kind == "arrival":
            arrivals += 1
            candidate = dict(active)
            candidate[event.request_id] = event.request
            state = solve_joint(vnfs, list(candidate.values()), capacities)
            if _max_utilization(state, vnfs) > target:
                rejections += 1
                rejected.add(event.request_id)
                continue
            migrations += sum(
                1
                for name, node in state.placement.items()
                if placement and placement.get(name) != node
            )
            migrations += sum(
                1
                for key, k in state.schedule.items()
                if key in schedule and schedule[key] != k
            )
            active = candidate
            placement = dict(state.placement)
            schedule = dict(state.schedule)
        else:
            if event.request_id in rejected:
                rejected.discard(event.request_id)
                continue
            # Departures only retract bookkeeping; the naive policy
            # re-solves lazily at the next arrival.
            del active[event.request_id]
            schedule = {
                key: k
                for key, k in schedule.items()
                if key[0] != event.request_id
            }
    return {
        "migrations": float(migrations),
        "rejection_rate": rejections / arrivals if arrivals else 0.0,
    }


def _trial(task) -> Dict[str, Dict[str, float]]:
    """One repetition: both policies on one shared churn trace."""
    seed, rep, admission = task
    root = np.random.SeedSequence([seed, rep])
    # spawn(3) returns the same first two children as the historical
    # spawn(2) — the admission stream is a pure extension, so the
    # default least-loaded trial stays byte-identical.
    scenario_ss, churn_ss, admission_ss = root.spawn(3)
    vnfs, capacities, chains = _scenario(scenario_ss)
    events = poisson_churn(
        chains,
        duration=DURATION,
        arrival_rate=ARRIVAL_RATE,
        mean_holding=MEAN_HOLDING,
        rng=np.random.default_rng(churn_ss),
        prefix=f"churn{rep}",
    )

    engine = DeploymentEngine(
        vnfs,
        capacities,
        admission=admission,
        admission_rng=(
            np.random.default_rng(admission_ss)
            if admission == "power-of-two"
            else None
        ),
    )
    layer = ServingLayer(engine, rebalance_every=REBALANCE_EVERY)
    report = layer.process(events)
    target = engine.target_utilization

    return {
        "incremental": {
            "migrations": float(report.migrations),
            "rejection_rate": report.rejection_rate,
        },
        "full-resolve": _full_resolve_policy(
            vnfs, capacities, events, target
        ),
    }


def run(
    repetitions: int = 5,
    seed: int = 20170802,
    jobs: int = 1,
    admission: str = "least-loaded",
) -> ExperimentResult:
    """Serve hours of churn incrementally and by full re-solve.

    ``admission`` selects the incremental engine's instance-selection
    rule — ``"least-loaded"`` (default, the historical behavior) or
    ``"power-of-two"`` (seeded two-probe sampling; the stream derives
    from the same per-trial seed root, so results stay deterministic
    at any ``jobs``).
    """
    if admission not in ADMISSION_POLICIES:
        raise ConfigurationError(
            f"unknown admission policy {admission!r}; "
            f"expected one of {ADMISSION_POLICIES}"
        )
    variants = ("incremental", "full-resolve")
    acc: Dict[str, Dict[str, List[float]]] = {
        v: {"migrations": [], "rejection_rate": []}
        for v in variants
    }
    trials = run_trials(
        _trial,
        [(seed, rep, admission) for rep in range(repetitions)],
        jobs=jobs,
    )
    for metrics in trials:
        for variant, values in metrics.items():
            for column, value in values.items():
                acc[variant][column].append(value)

    result = ExperimentResult(
        experiment_id="churn",
        title="Incremental serving vs per-arrival full re-solve",
        columns=["variant", "migrations", "rejection_rate"],
    )
    for variant in variants:
        result.add_row(
            variant=variant,
            migrations=float(np.mean(acc[variant]["migrations"])),
            rejection_rate=float(np.mean(acc[variant]["rejection_rate"])),
        )
    result.notes.append(
        f"{DURATION / 3600:.0f}h simulated Poisson churn, lambda="
        f"{ARRIVAL_RATE}/s, mean holding {MEAN_HOLDING:.0f}s (~"
        f"{ARRIVAL_RATE * MEAN_HOLDING:.0f} steady-state actives); "
        f"incremental rebalances every {REBALANCE_EVERY} admits"
    )
    result.notes.append(
        "migrations: placement moves + schedule reassignments; the "
        "naive policy re-solves on arrivals only (departures retract "
        "bookkeeping lazily)"
    )
    if admission != "least-loaded":
        result.notes.append(
            f"incremental admits use the {admission!r} policy "
            "(seeded per trial)"
        )
    return result


SPEC = register(
    ExperimentSpec(
        name="churn",
        title="Incremental serving vs per-arrival full re-solve",
        runner=run,
        profile="joint",
        tags=("serving", "beyond-paper"),
        default_repetitions=5,
        order=23,
    )
)


if __name__ == "__main__":  # pragma: no cover
    print(run(repetitions=2).render())
