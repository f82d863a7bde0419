"""Regenerate ``tests/golden/quick.json`` and ``tests/golden/sim_digests.json``.

``quick.json`` holds the ``columns``, ``rows`` and ``notes`` (not
``meta``) of every experiment that ``run_all(**QUICK)`` runs — the same
reduced repetition profile as the module fixture of
``tests/experiments/test_runall.py``, which compares its run with this
file. Regenerate only when a change is meant to move a paper number, and
say in CHANGES.md which experiment changed and why.

``sim_digests.json`` holds the sha256 of every :data:`SIM_FIELDS` column
of :func:`repro.sim.scale.simulate_columns` on the small seeded
scenarios of :data:`SIM_SCENARIOS`; ``tests/sim/test_sim_digests.py``
asserts them at ``jobs=1`` and ``jobs=2``. A simulator change meant to
keep its output byte for byte leaves this file unchanged.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regen.py   # or: make golden
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Callable, Dict, Iterable, Optional, Tuple

import numpy as np

from repro.experiments import runall
from repro.experiments.harness import ExperimentResult
from repro.scheduling.kernels import schedule_columns
from repro.sim.scale import simulate_columns
from repro.sim.shard import ScaleShardPlan
from repro.sim.simulator import SimulationConfig
from repro.workload.stream import rescale_to_stability, stream_scenario

#: Where the fixture-reps golden lives.
GOLDEN_PATH = pathlib.Path(__file__).with_name("quick.json")

#: Where the simulator digests live.
SIM_DIGESTS_PATH = pathlib.Path(__file__).with_name("sim_digests.json")

#: The ``simulate_columns`` fields that are digested (the same fields
#: ``perfbench/batch.py`` compares across ``jobs``).
SIM_FIELDS = (
    "generated", "delivered", "retransmitted", "latency_sum",
    "instance_arrivals", "instance_departures",
    "instance_mean_sojourn", "instance_utilization",
)

#: The tiny repetition profile of the test fixture and of the golden.
QUICK = dict(
    placement_repetitions=2,
    scheduling_repetitions=5,
    tail_repetitions=5,
    include_headline=False,
)


def snapshot(results: Iterable[ExperimentResult]) -> Dict[str, dict]:
    """The pinned part of each result, keyed by experiment id, in run order."""
    return {
        r.experiment_id: {
            "columns": list(r.columns),
            "rows": [dict(row) for row in r.rows],
            "notes": list(r.notes),
        }
        for r in results
    }


def _sim_case(
    seed: int,
    delivery_probability: float = 1.0,
    nack_delay: float = 0.0,
    num_shards: Optional[int] = None,
    silent_requests: int = 0,
):
    """One small seeded ``simulate_columns`` input: 200 requests on
    chains of up to 6 VNFs, 2k-10k packets over a 1 s horizon.

    ``silent_requests`` sets the rate of that many requests to 1e-12 so
    they draw zero packets.
    """
    scn = stream_scenario(
        num_vnfs=12,
        num_nodes=8,
        num_requests=200,
        delivery_probability=delivery_probability,
        rng=np.random.default_rng(seed),
    )
    rescale_to_stability(scn, target=0.7)
    arrays = scn.arrays
    if silent_requests:
        arrays.lambda_r[:silent_requests] = 1e-12
        arrays.eff_rate[:silent_requests] = 1e-12 / arrays.P_r[:silent_requests]
    sched = schedule_columns(arrays)
    plan = ScaleShardPlan.build(arrays, sched, num_shards=num_shards)
    cfg = SimulationConfig(
        duration=1.0, warmup=0.1, nack_delay=nack_delay, seed=seed
    )
    return arrays, sched, cfg, plan


#: Named simulator scenarios: long chains on the default 16-shard plan,
#: feedback rounds (``P_r < 1`` with a NACK delay), a 1-shard plan, and
#: requests that draw no packets.
SIM_SCENARIOS: Dict[str, Callable[[], Tuple]] = {
    "chains6_shards16": lambda: _sim_case(4),
    "feedback_rounds": lambda: _sim_case(
        6, delivery_probability=0.7, nack_delay=0.01
    ),
    "one_shard": lambda: _sim_case(7, num_shards=1),
    "zero_packet_requests": lambda: _sim_case(5, silent_requests=3),
}


def field_digest(value) -> str:
    """sha256 of one metric field: dtype, shape and raw bytes."""
    arr = np.ascontiguousarray(np.asarray(value))
    h = hashlib.sha256()
    h.update(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def sim_digests(name: str, jobs: int = 1) -> Dict[str, str]:
    """Digest of every :data:`SIM_FIELDS` column of one scenario."""
    arrays, sched, cfg, plan = SIM_SCENARIOS[name]()
    metrics = simulate_columns(arrays, sched, cfg, jobs=jobs, plan=plan)
    return {f: field_digest(getattr(metrics, f)) for f in SIM_FIELDS}


def main() -> int:
    document = snapshot(runall.run_all(**QUICK))
    GOLDEN_PATH.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {len(document)} experiments to {GOLDEN_PATH}")
    digests = {name: sim_digests(name) for name in SIM_SCENARIOS}
    SIM_DIGESTS_PATH.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {len(digests)} simulator scenarios to {SIM_DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
