"""The column simulator: whole-run packet columns, no event loop.

Replays the system of the event backend (Poisson sources, FCFS
exponential service instances, end-to-end loss with NACK feedback) in
two sweeps over whole-run packet columns.  It is both the million-
request batch simulator and the ``trace`` backend of
:class:`~repro.sim.simulator.ChainSimulator`, which reshapes its
columns into :class:`~repro.sim.metrics.SimulationMetrics`.

* arrivals are one vectorized draw: per-request Poisson *counts*, then
  uniform order statistics on ``[0, duration)`` (exactly the
  conditional law of a Poisson process given its count), sorted within
  each request's segment;
* the **causal sweep** advances packets through their chains level by
  level inside geometric feedback rounds: packets failing their
  delivery coin (probability ``1 - P_r``) re-enter the chain head at
  their last-hop departure plus the NACK delay, forming the next
  round's arrivals, until none remain before the horizon.  Each hop
  level is partitioned by shard, and each shard sorts its sub-batch by
  ``(instance, time)`` once and runs one segmented Lindley pass
  (:func:`~repro.sim.kernels.segmented_lindley`) over it;
* every swept batch is appended to the shard's visit log as one
  sorted run; cross-pass backlog (the departure frontier) is one
  ``searchsorted`` into each earlier run, by the visits whose instance
  that run holds;
* the **measurement sweep** merges each shard's runs once into
  (instance, time) order — every recorded (packet, hop, round) visit —
  and runs one full-load segmented Lindley pass over them, merged back
  per packet in shard order.  Every reported statistic comes from this
  pass.

Sharded execution (``jobs=N``)
------------------------------
The instance axis is partitioned once per run by a deterministic
:class:`~repro.sim.shard.ScaleShardPlan` (independent of the worker
count); each shard sweeps its instances with a private history and
private RNG streams, either in-process or on worker processes that
attach the scenario via :mod:`repro.experiments.shm` snapshots.  The
merged output is **byte-identical at any** ``jobs`` for the same seed
— see :mod:`repro.sim.shard` for the contract and docs/SCALE.md for
the operational guide.

RNG stream layout (documented, relied on by tests)
--------------------------------------------------
``SeedSequence(config.seed)`` spawns ``2 + 2 * S`` children for a plan
with ``S`` shards, in order:

* child ``0`` — arrival counts + times (master process);
* child ``1`` — delivery coins (master process);
* child ``2 + s`` — causal-sweep services of shard ``s``;
* child ``2 + S + s`` — measurement services of shard ``s``.

Each child seeds ONE generator consumed in deterministic (round,
level, sorted-sub-batch) order within its owner, so a run is a pure
function of (scenario, schedule, seed).  The streams differ from the
event backend's single shared generator: the two agree in
distribution, not sample by sample (docs/SIM_BACKENDS.md).  The layout
depends on the shard *plan*, never on ``jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.arrays import ScenarioArrays, ScheduleArrays
from repro.exceptions import SimulationError
from repro.sim.shard import (
    ScaleShardPlan,
    index_dtype,
    merge_shard_measurements,
    open_shard_executor,
    partition_by_shard,
)
from repro.sim.simulator import SimulationConfig

__all__ = ["ScaleShardPlan", "ScaleSimMetrics", "simulate_columns"]

#: Hard cap on feedback rounds — each round thins by ``1 - P_r`` and
#: re-entry times only grow toward the horizon, so hitting this means
#: the configuration is pathological (e.g. ``P_r`` microscopically
#: small at enormous load), not that the simulation is healthy.
MAX_FEEDBACK_ROUNDS = 10_000


@dataclass
class ScaleSimMetrics:
    """Array-shaped statistics of one column-native simulation run.

    The dict-of-lists shape of
    :class:`~repro.sim.metrics.SimulationMetrics` (per-request latency
    lists keyed by id) costs more than the simulation at 1M requests;
    this report keeps everything as per-request / per-instance columns.
    """

    duration: float
    generated: int
    #: Packets counted as delivered per request (post-warmup, coin ok).
    delivered: np.ndarray
    #: Packets that needed at least one retransmission, per request.
    retransmitted: np.ndarray
    #: Summed end-to-end latency of counted deliveries, per request.
    latency_sum: np.ndarray
    #: Per counted delivery: its request index and its end-to-end
    #: latency (the ``latency_sum`` bincount's inputs), in round order.
    delivery_request: np.ndarray
    delivery_latency: np.ndarray
    #: Per-instance: packets seen / completed before the horizon.
    instance_arrivals: np.ndarray
    instance_departures: np.ndarray
    #: Per-instance mean sojourn over completed packets (0 where idle).
    instance_mean_sojourn: np.ndarray
    #: Per-instance busy fraction of ``[0, duration)``, clipped to 1.
    instance_utilization: np.ndarray

    @property
    def total_delivered(self) -> int:
        return int(self.delivered.sum())

    @property
    def mean_latency(self) -> float:
        """Mean end-to-end latency over every counted delivery."""
        done = self.total_delivered
        return float(self.latency_sum.sum() / done) if done else float("nan")


def _sorted_within(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``values`` sorted within each contiguous segment of the given
    lengths — the values of ``np.lexsort((values, segment_id))``.

    Segments of one length are sorted together as the rows of one
    matrix, so the cost is one row sort per distinct length.
    """
    out = values.copy()
    starts = np.cumsum(counts) - counts
    for length in np.unique(counts[counts > 1]):
        rows = starts[counts == length][:, None] + np.arange(length)
        out[rows] = np.sort(values[rows], axis=1)
    return out


def simulate_columns(
    arrays: ScenarioArrays,
    sched: ScheduleArrays,
    config: Optional[SimulationConfig] = None,
    *,
    jobs: Optional[int] = None,
    plan: Optional[ScaleShardPlan] = None,
    start_method: Optional[str] = None,
) -> ScaleSimMetrics:
    """Run one column-native trace simulation over a scheduled scenario.

    ``config`` is a :class:`~repro.sim.simulator.SimulationConfig`
    (``None`` uses its defaults).  Every chain entry must be scheduled;
    packet times are always float64 regardless of the scenario's dtype
    policy (horizon arithmetic needs the precision — only the static
    columns shrink under the lean policy).

    Parameters
    ----------
    jobs:
        Worker processes for the instance-sharded sweep.  ``None``/``1``
        runs in-process, ``0`` auto-detects CPUs, ``N >= 2`` spreads the
        shard plan over ``min(N, num_shards)`` workers.  The result is
        byte-identical at any value (see :mod:`repro.sim.shard`).
    plan:
        Optional pre-built :class:`~repro.sim.shard.ScaleShardPlan`.
        Passing a different plan changes the RNG stream layout — and
        therefore the realization — while staying distributionally
        equivalent; the default plan is a deterministic function of the
        scenario + schedule.
    start_method:
        Optional multiprocessing start method (``"spawn"`` /
        ``"fork"`` / ``"forkserver"``); ``None`` uses the platform
        default.  Workers are spawn-safe under all of them.
    """
    cfg = config if config is not None else SimulationConfig()
    horizon = float(cfg.duration)
    num_requests = len(arrays.request_ids)
    num_instances = arrays.num_instances

    slot_inst = arrays.chain_instances(sched)
    if (slot_inst < 0).any():
        entry = int(np.argmax(slot_inst < 0))
        raise SimulationError(
            f"chain entry {entry} has no schedule assignment; "
            "simulate_columns needs a complete schedule"
        )
    chain_ptr = arrays.chain_ptr.astype(np.int64, copy=False)
    # Chains are non-empty, so each request's last hop is the slot
    # before the next request's first.
    last_hop = np.zeros(slot_inst.size, dtype=bool)
    last_hop[chain_ptr[1:] - 1] = True
    P_r = arrays.P_r.astype(np.float64, copy=False)
    lam = arrays.lambda_r.astype(np.float64, copy=False)

    shard_plan = (
        plan if plan is not None else ScaleShardPlan.build(arrays, sched)
    )
    if shard_plan.shard_of_inst.shape[0] != num_instances:
        raise SimulationError(
            f"shard plan covers {shard_plan.shard_of_inst.shape[0]} "
            f"instances but the scenario has {num_instances}"
        )
    num_shards = shard_plan.num_shards
    shard_of_inst = shard_plan.shard_of_inst.astype(
        index_dtype(num_shards), copy=False
    )

    root = np.random.SeedSequence(int(cfg.seed))
    children = root.spawn(2 + 2 * num_shards)
    arrival_rng = np.random.default_rng(children[0])
    coin_rng = np.random.default_rng(children[1])
    sweep_seqs = children[2 : 2 + num_shards]
    measure_seqs = children[2 + num_shards :]

    # ------------------------------------------------------------------
    # Batched arrivals: Poisson counts, then uniform order statistics.
    # ------------------------------------------------------------------
    counts = arrival_rng.poisson(lam * horizon)
    generated = int(counts.sum())
    pkt_req = np.repeat(
        np.arange(num_requests, dtype=np.int64), counts
    )
    created = _sorted_within(arrival_rng.random(generated) * horizon, counts)

    extra_delay = np.zeros(generated, dtype=np.float64)
    delivered = np.zeros(num_requests, dtype=np.int64)
    retransmitted = np.zeros(num_requests, dtype=np.int64)
    counted_pkts: List[np.ndarray] = []

    executor = open_shard_executor(
        arrays,
        shard_plan,
        horizon,
        sweep_seqs,
        measure_seqs,
        generated,
        jobs=jobs,
        start_method=start_method,
    )
    try:
        # Alive packet state for the current round.
        pkt = np.arange(generated, dtype=np.int64)
        t = created.copy()
        round_index = 0
        while pkt.size:
            if round_index >= MAX_FEEDBACK_ROUNDS:
                raise SimulationError(
                    f"feedback did not drain after {MAX_FEEDBACK_ROUNDS} "
                    "rounds; check delivery probabilities and load"
                )
            # ``hop`` is each packet's chain slot.  Every packet still in
            # ``pkt`` has a hop at this level, and it leaves once its
            # last hop is swept.
            hop = chain_ptr[pkt_req[pkt]]
            finished_pkt: List[np.ndarray] = []
            finished_t: List[np.ndarray] = []
            while pkt.size:
                inst = slot_inst[hop]
                part, bounds = partition_by_shard(
                    shard_of_inst[inst], num_shards
                )
                dep_part = executor.sweep(
                    pkt[part], inst[part], t[part], bounds
                )
                # Departures back in packet order; completions at or
                # past the horizon go no further.
                t = np.empty_like(dep_part)
                t[part] = dep_part
                done_here = last_hop[hop]
                in_time = t < horizon
                alive = ~done_here & in_time
                ends = done_here & in_time
                if ends.any():
                    finished_pkt.append(pkt[ends])
                    finished_t.append(t[ends])
                pkt, t, hop = pkt[alive], t[alive], hop[alive] + 1

            # ----------------------------------------------------------
            # Delivery coins for every chain that completed this round.
            # ----------------------------------------------------------
            if finished_pkt:
                f_pkt = np.concatenate(finished_pkt)
                f_t = np.concatenate(finished_t)
            else:
                f_pkt = np.empty(0, dtype=np.int64)
                f_t = np.empty(0, dtype=np.float64)
            if f_pkt.size:
                f_req = pkt_req[f_pkt]
                ok = coin_rng.random(f_pkt.size) < P_r[f_req]
                measured = created[f_pkt] >= cfg.warmup
                counted = ok & measured
                delivered += np.bincount(
                    f_req[counted], minlength=num_requests
                )
                latency_chunk = f_pkt[counted]
                counted_pkts.append(latency_chunk)
                failed = ~ok
                if round_index == 0:
                    retransmitted += np.bincount(
                        f_req[failed & measured], minlength=num_requests
                    )
                retry_t = f_t[failed] + cfg.nack_delay
                retry_pkt = f_pkt[failed]
                keep = retry_t < horizon
                retry_t, retry_pkt = retry_t[keep], retry_pkt[keep]
                if cfg.nack_delay > 0.0 and retry_pkt.size:
                    extra_delay[retry_pkt] += cfg.nack_delay
                pkt = np.concatenate([pkt, retry_pkt])
                t = np.concatenate([t, retry_t])
            round_index += 1

        # --------------------------------------------------------------
        # Measurement sweep: one merged full-load pass per instance,
        # reduced across shards in ascending shard order.
        # --------------------------------------------------------------
        tagged = executor.measure()
    finally:
        executor.close()

    (
        sojourn_sums,
        inst_arrivals,
        inst_departures,
        inst_sojourn_done,
        inst_busy,
    ) = merge_shard_measurements(tagged, generated, num_instances)
    with np.errstate(invalid="ignore"):
        inst_sojourn = np.where(
            inst_departures > 0,
            inst_sojourn_done / np.maximum(inst_departures, 1),
            0.0,
        )
    utilization = (
        np.minimum(1.0, inst_busy / horizon)
        if horizon > 0.0
        else np.zeros(num_instances)
    )

    # End-to-end latency of each counted delivery, summed per request.
    c_pkt = (
        np.concatenate(counted_pkts)
        if counted_pkts
        else np.empty(0, dtype=np.int64)
    )
    delivery_request = pkt_req[c_pkt]
    delivery_latency = sojourn_sums[c_pkt] + extra_delay[c_pkt]
    # A weighted bincount of no entries is int64, hence the cast.
    latency_sum = np.bincount(
        delivery_request, weights=delivery_latency, minlength=num_requests
    ).astype(np.float64, copy=False)

    return ScaleSimMetrics(
        duration=horizon,
        generated=generated,
        delivered=delivered,
        retransmitted=retransmitted,
        latency_sum=latency_sum,
        delivery_request=delivery_request,
        delivery_latency=delivery_latency,
        instance_arrivals=inst_arrivals,
        instance_departures=inst_departures,
        instance_mean_sojourn=inst_sojourn,
        instance_utilization=utilization,
    )
