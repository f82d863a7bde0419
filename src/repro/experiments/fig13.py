"""Fig. 13 — average response time vs #instances, P = 0.98, 50 requests.

Paper's observation: as the instance count grows 2-10, RCKK's advantage
over CGA widens from 5.24% to 25.05% — with fewer requests per instance,
balance quality matters more.
"""

from __future__ import annotations

from typing import Tuple

from repro.experiments.harness import ExperimentResult
from repro.experiments.registry import ExperimentSpec, register
from repro.experiments.sweeps import (
    DEFAULT_SCHEDULING_REPS,
    enhancement_column,
    scheduling_sweep,
)
from repro.workload.scenarios import SchedulingScenario

#: The paper's instance-count sweep.
INSTANCE_COUNTS: Tuple[int, ...] = (2, 4, 6, 8, 10)

#: Raw-load utilization target for the mu scaling.
RHO = 0.8


def run(
    repetitions: int = DEFAULT_SCHEDULING_REPS,
    seed: int = 20170613,
    delivery_probability: float = 0.98,
    experiment_id: str = "fig13",
    jobs: int = 1,
) -> ExperimentResult:
    """Regenerate Fig. 13's series (or Fig. 14's via the P parameter)."""
    scenarios = [
        (
            m,
            SchedulingScenario(
                num_requests=50,
                num_instances=m,
                delivery_probability=delivery_probability,
                rho=RHO,
                seed=seed + m,
            ),
        )
        for m in INSTANCE_COUNTS
    ]
    rows = scheduling_sweep(scenarios, repetitions=repetitions, jobs=jobs)
    enhancement = enhancement_column(rows, "mean_w")
    result = ExperimentResult(
        experiment_id=experiment_id,
        title=(
            "Average response time vs #instances "
            f"(P={delivery_probability}, 50 requests)"
        ),
        columns=[
            "instances", "algorithm", "mean_w", "enhancement", "rejection_rate"
        ],
    )
    for row in rows:
        result.add_row(
            instances=row["x"],
            algorithm=row["algorithm"],
            mean_w=row["mean_w"],
            enhancement=(
                enhancement.get(row["x"], 0.0)
                if row["algorithm"] == "RCKK"
                else 0.0
            ),
            rejection_rate=row["rejection_rate"],
        )
    result.notes.append(
        "paper (P=0.98): enhancement widens 5.24% -> 25.05% as instances "
        "grow"
    )
    return result


SPEC = register(
    ExperimentSpec(
        name="fig13",
        title="Average response time vs #instances (P=0.98, 50 requests)",
        runner=run,
        profile="scheduling",
        tags=("scheduling", "figure"),
        default_repetitions=DEFAULT_SCHEDULING_REPS,
        order=13,
    )
)


if __name__ == "__main__":  # pragma: no cover
    run().print()
