"""Fig. 11 — average response time vs #requests, P = 0.98, 5 instances.

Paper's observation: RCKK always beats CGA; the enhancement ratio
``(W_CGA - W_RCKK) / W_CGA`` declines from 41.89% (few requests) to
2.10% (250 requests) as the mu-scaling grows the absolute headroom.
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

#: The paper's request sweep for the latency figures.
REQUEST_COUNTS: Tuple[int, ...] = (15, 25, 50, 100, 150, 250)

#: Raw-load utilization target for the mu scaling.
RHO = 0.8


def run(
    repetitions: int = DEFAULT_SCHEDULING_REPS,
    seed: int = 20170611,
    delivery_probability: float = 0.98,
    experiment_id: str = "fig11",
    jobs: int = 1,
) -> ExperimentResult:
    """Regenerate Fig. 11's series (or Fig. 12's via the P parameter)."""
    scenarios = [
        (
            n,
            SchedulingScenario(
                num_requests=n,
                num_instances=5,
                delivery_probability=delivery_probability,
                rho=RHO,
                seed=seed + n,
            ),
        )
        for n in REQUEST_COUNTS
    ]
    rows = scheduling_sweep(scenarios, repetitions=repetitions, jobs=jobs)
    enhancement = enhancement_column(rows, "mean_w")
    result = ExperimentResult(
        experiment_id=experiment_id,
        title=(
            "Average response time vs #requests "
            f"(P={delivery_probability}, 5 instances)"
        ),
        columns=[
            "requests", "algorithm", "mean_w", "enhancement", "rejection_rate"
        ],
    )
    for row in rows:
        result.add_row(
            requests=row["x"],
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
        "paper (P=0.98): enhancement declines 41.89% -> 2.10% as "
        "requests grow"
    )
    return result


SPEC = register(
    ExperimentSpec(
        name="fig11",
        title="Average response time vs #requests (P=0.98, 5 instances)",
        runner=run,
        profile="scheduling",
        tags=("scheduling", "figure"),
        default_repetitions=DEFAULT_SCHEDULING_REPS,
        order=11,
    )
)


if __name__ == "__main__":  # pragma: no cover
    run().print()
