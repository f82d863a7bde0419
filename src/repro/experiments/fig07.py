"""Fig. 7 — average utilization vs number of available nodes (15 VNFs).

Paper's observation: as the node pool grows 6-30, FFD and NAH decay while
BFDSU stays stable.  The total VNF demand is held constant across the
sweep (the pool grows, the work does not), which is what exposes the
spreading behaviour of the baselines.
"""

from __future__ import annotations

from repro.experiments.harness import ExperimentResult
from repro.experiments.registry import ExperimentSpec, register
from repro.experiments.sweeps import DEFAULT_PLACEMENT_REPS, placement_sweep
from repro.workload.scenarios import PlacementScenario

#: The node-pool sweep.
NODE_COUNTS = (6, 10, 15, 20, 30)

#: demand_fraction at the smallest pool of the sweep; scaled inversely
#: with the pool so absolute demand stays constant across the sweep (and
#: every algorithm, including the load-spreading baselines, stays
#: feasible at the tightest point).
REFERENCE_FRACTION = 0.55
REFERENCE_NODES = NODE_COUNTS[0]


def _scenario(num_nodes: int, seed: int) -> PlacementScenario:
    return PlacementScenario(
        num_vnfs=15,
        num_nodes=num_nodes,
        num_requests=100,
        demand_fraction=REFERENCE_FRACTION * REFERENCE_NODES / num_nodes,
        seed=seed + num_nodes,
    )


def run(
    repetitions: int = DEFAULT_PLACEMENT_REPS,
    seed: int = 20170607,
    jobs: int = 1,
) -> ExperimentResult:
    """Regenerate Fig. 7's series."""
    scenarios = [(n, _scenario(n, seed)) for n in NODE_COUNTS]
    rows = placement_sweep(
        scenarios, repetitions=repetitions, seed=seed, jobs=jobs
    )
    result = ExperimentResult(
        experiment_id="fig07",
        title="Average utilization of used nodes vs #nodes available (15 VNFs)",
        columns=["nodes", "algorithm", "utilization"],
    )
    for row in rows:
        result.add_row(
            nodes=row["x"],
            algorithm=row["algorithm"],
            utilization=row["utilization"],
        )
    result.notes.append(
        "paper: FFD and NAH decay with pool size; BFDSU stays stable"
    )
    return result


SPEC = register(
    ExperimentSpec(
        name="fig07",
        title="Average utilization of used nodes vs #nodes available",
        runner=run,
        profile="placement",
        tags=("placement", "figure"),
        default_repetitions=DEFAULT_PLACEMENT_REPS,
        order=7,
    )
)


if __name__ == "__main__":  # pragma: no cover
    run().print()
