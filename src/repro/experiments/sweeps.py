"""Reusable sweep drivers for the placement and scheduling experiments.

The twelve figure modules differ only in which axis they sweep and which
metric column they report; the two drivers here describe the Monte-Carlo
work and hand execution to :mod:`repro.experiments.montecarlo`:

* :func:`placement_sweep` — run each placement algorithm over the
  instances of a :class:`~repro.workload.scenarios.PlacementScenario`
  per sweep point, averaging the Figs. 5-10 metrics.
* :func:`scheduling_sweep` — ditto for scheduling algorithms over
  :class:`~repro.workload.scenarios.SchedulingScenario` instances,
  producing the Figs. 11-16 metrics (mean/percentile response time,
  rejection rate, enhancement ratios).

Seeding & parallelism
---------------------
Each *(sweep point, repetition)* trial derives its own random stream
from ``SeedSequence([seed, point_index, repetition])`` — no generator
is shared across trials, so results are bit-identical at every
``jobs`` level and independent of completion order.  Trials execute
through :func:`repro.experiments.montecarlo.run_trials`; the reduction
(means, percentiles) always consumes samples in repetition order.
Every sweep point runs exactly ``repetitions`` trials of the paper's
contenders, as the paper's fixed-repetition Monte-Carlo does.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.stats import percentile
from repro.experiments.montecarlo import run_trials
from repro.placement.base import PlacementAlgorithm
from repro.placement.bfdsu import BFDSUPlacement
from repro.placement.ffd import FFDPlacement
from repro.placement.nah import NAHPlacement
from repro.scheduling.base import SchedulingAlgorithm
from repro.scheduling.cga import CGAScheduler
from repro.scheduling.metrics import schedule_report
from repro.scheduling.rckk import RCKKScheduler
from repro.seeding import RngLike, resolve_rng, trial_rng
from repro.workload.scenarios import PlacementScenario, SchedulingScenario

#: Default Monte-Carlo repetitions.  The paper uses 1000; the default
#: here keeps a full ``runall`` under a minute — pass ``repetitions`` to
#: match the paper exactly.
DEFAULT_PLACEMENT_REPS = 20
DEFAULT_SCHEDULING_REPS = 100


def default_placement_algorithms(seed: RngLike) -> List[PlacementAlgorithm]:
    """The paper's three placement contenders, BFDSU seeded.

    ``seed`` may be an int, ``SeedSequence`` or ``Generator`` — anything
    :func:`repro.seeding.resolve_rng` accepts.
    """
    return [
        BFDSUPlacement(rng=resolve_rng(seed)),
        FFDPlacement(),
        NAHPlacement(),
    ]


def default_scheduling_algorithms() -> List[SchedulingAlgorithm]:
    """The paper's two scheduling contenders (both deterministic)."""
    return [RCKKScheduler(), CGAScheduler()]


# ----------------------------------------------------------------------
# Trial functions — module level so process pools can pickle them.
# ----------------------------------------------------------------------
def _placement_trial(
    task: Tuple[int, int, PlacementScenario, int]
) -> Dict[str, Tuple[float, float, float, float]]:
    """One placement trial: build the instance, run all contenders."""
    point_index, repetition, scenario, seed = task
    problem = scenario.build(repetition)
    rng = trial_rng(seed, point_index, repetition)
    metrics: Dict[str, Tuple[float, float, float, float]] = {}
    for algorithm in default_placement_algorithms(rng):
        result = algorithm.place(problem)
        metrics[algorithm.name] = (
            float(result.average_utilization),
            float(result.num_used_nodes),
            float(result.total_occupied_capacity),
            float(result.iterations),
        )
    return metrics


def _scheduling_trial(
    task: Tuple[int, SchedulingScenario, bool]
) -> Dict[str, Tuple[float, float]]:
    """One scheduling trial: build the instance, run both schedulers."""
    repetition, scenario, apply_admission = task
    problem = scenario.build(repetition)
    metrics: Dict[str, Tuple[float, float]] = {}
    for algorithm in default_scheduling_algorithms():
        report = schedule_report(
            algorithm.schedule(problem), apply_admission=apply_admission
        )
        metrics[algorithm.name] = (
            float(report.average_response_time),
            float(report.rejection_rate),
        )
    return metrics


def placement_sweep(
    scenarios: Sequence[Tuple[object, PlacementScenario]],
    repetitions: int = DEFAULT_PLACEMENT_REPS,
    seed: int = 0,
    jobs: int = 1,
) -> List[Dict[str, object]]:
    """Run placement algorithms over scenario sweep points.

    Parameters
    ----------
    scenarios:
        ``(x_value, scenario)`` pairs — one per sweep point.
    repetitions:
        Monte-Carlo instances per point.
    seed:
        Seed for the randomized algorithms; every trial spawns its own
        child stream from it (see the module docstring).
    jobs:
        Worker processes; results are identical at every level.

    Returns
    -------
    list of dict
        One row per (sweep point, algorithm) with keys ``x``,
        ``algorithm``, ``utilization``, ``nodes_in_service``,
        ``occupation``, ``iterations``.
    """
    scenario_list = list(scenarios)
    tasks = [
        (point_index, repetition, scenario, int(seed))
        for point_index, (_x, scenario) in enumerate(scenario_list)
        for repetition in range(repetitions)
    ]
    trials = run_trials(_placement_trial, tasks, jobs=jobs)
    algo_names = [a.name for a in default_placement_algorithms(0)]

    rows: List[Dict[str, object]] = []
    for point_index, (x_value, _scenario) in enumerate(scenario_list):
        point_trials = trials[
            point_index * repetitions : (point_index + 1) * repetitions
        ]
        for name in algo_names:
            samples = np.array([trial[name] for trial in point_trials])
            utilization, nodes, occupation, iterations = samples.mean(axis=0)
            rows.append(
                {
                    "x": x_value,
                    "algorithm": name,
                    "utilization": float(utilization),
                    "nodes_in_service": float(nodes),
                    "occupation": float(occupation),
                    "iterations": float(iterations),
                }
            )
    return rows


def scheduling_sweep(
    scenarios: Sequence[Tuple[object, SchedulingScenario]],
    repetitions: int = DEFAULT_SCHEDULING_REPS,
    apply_admission: bool = True,
    jobs: int = 1,
) -> List[Dict[str, object]]:
    """Run scheduling algorithms over scenario sweep points.

    Parameters
    ----------
    jobs:
        Worker processes; results are identical at every level.

    Returns
    -------
    list of dict
        One row per (sweep point, algorithm) with keys ``x``,
        ``algorithm``, ``mean_w`` (average response time), ``p99_w``
        (99th percentile over repetitions), ``rejection_rate``.
    """
    scenario_list = list(scenarios)
    tasks = [
        (repetition, scenario, apply_admission)
        for _x, scenario in scenario_list
        for repetition in range(repetitions)
    ]
    trials = run_trials(_scheduling_trial, tasks, jobs=jobs)
    algo_names = [a.name for a in default_scheduling_algorithms()]

    rows: List[Dict[str, object]] = []
    for point_index, (x_value, _scenario) in enumerate(scenario_list):
        point_trials = trials[
            point_index * repetitions : (point_index + 1) * repetitions
        ]
        for name in algo_names:
            w_samples = [trial[name][0] for trial in point_trials]
            rej_samples = [trial[name][1] for trial in point_trials]
            rows.append(
                {
                    "x": x_value,
                    "algorithm": name,
                    "mean_w": float(np.mean(w_samples)),
                    "p99_w": percentile(w_samples, 99),
                    "rejection_rate": float(np.mean(rej_samples)),
                }
            )
    return rows


def enhancement_column(
    rows: Sequence[Dict[str, object]],
    metric: str,
    baseline: str = "CGA",
    improved: str = "RCKK",
) -> Dict[object, float]:
    """Per-sweep-point ``(baseline - improved) / baseline`` for a metric."""
    by_x: Dict[object, Dict[str, float]] = {}
    for row in rows:
        by_x.setdefault(row["x"], {})[str(row["algorithm"])] = float(row[metric])  # type: ignore[arg-type]
    out: Dict[object, float] = {}
    for x_value, metrics in by_x.items():
        base = metrics.get(baseline)
        imp = metrics.get(improved)
        if base is None or imp is None or base == 0.0:
            continue
        out[x_value] = (base - imp) / base
    return out
