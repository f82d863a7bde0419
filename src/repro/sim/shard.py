"""Instance-group sharding for the column-native trace simulator.

:func:`repro.sim.scale.simulate_columns` sweeps each (round, hop
level) batch with one segmented Lindley pass per instance segment.
Those segments are independent across instances *within* a level, and
the cross-level departure frontier (:class:`_History`) is kept per
instance — so the whole causal sweep decomposes over any fixed
partition of the instances.  This module owns that decomposition:

* :class:`ScaleShardPlan` — a deterministic instance -> shard map,
  built once from the scenario + schedule and **independent of the
  worker count** (the same plan drives ``jobs=1`` and ``jobs=N``);
* :class:`_ShardSim` — one shard's private sweep state: its visit log
  (:class:`_History`, which is also its departure frontier) and its
  causal/measurement RNG streams.  The log is a list of runs, one
  sorted batch per sweep, each written once; a level queries only the
  runs that hold its visits' instances, and the measurement sweep
  merges the runs once;
* the sort kernels — :func:`visit_order` (visits by (instance, time),
  one sort on a float key) and :func:`partition_by_shard` (a level
  batch by shard, a radix sort on narrow :func:`index_dtype` keys),
  both exact stable sorts;
* the executors — a serial loop and a process pool whose workers
  attach the scenario via :func:`repro.experiments.shm.publish_arrays`
  / ``attach_arrays`` snapshots and exchange per-level batches through
  one shared-memory scratch block (no column pickling);
* :func:`merge_shard_measurements` — the deterministic reduction of
  per-shard statistics back into whole-run columns.

Determinism contract
--------------------
``simulate_columns(jobs=N)`` is byte-identical to ``jobs=1`` for the
same seed at any ``N`` because every float is produced and reduced
identically on both paths:

1. the shard plan and the per-shard ``SeedSequence`` sub-streams are
   functions of (scenario, schedule, seed) only;
2. each level batch is stably partitioned by shard id *before* the
   executor sees it, so every shard receives the same sub-batch in the
   same order on both paths;
3. each shard's services come from its own generator, consumed in the
   shard's own (level, sorted-batch) order;
4. per-packet sojourn sums — the only statistic whose support spans
   shards — are reduced in ascending shard-id order, fixing the float
   addition order (per-instance statistics have disjoint support, so
   their merge order cannot matter).

Serial fallback
---------------
The process executor is used only when ``jobs >= 2``, the plan has at
least two shards, and there is at least one packet to simulate.  When
worker processes cannot start (no POSIX shared memory, seccomp
sandboxes, a worker dying before its ready handshake) the engine
degrades to the serial executor, which computes the identical result.
Workers are spawn-safe: the worker entry point is a module-level
function and every payload (handle, seed sequences, scratch name)
pickles under any multiprocessing start method.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.arrays import ScenarioArrays, ScheduleArrays
from repro.exceptions import SimulationError, ValidationError
from repro.sim.kernels import busy_time_within, segmented_lindley

__all__ = [
    "DEFAULT_NUM_SHARDS",
    "ScaleShardPlan",
    "index_dtype",
    "merge_shard_measurements",
    "open_shard_executor",
    "partition_by_shard",
]

#: Shards per plan before clamping to the instance count.  Fixed (not
#: CPU-derived) so the plan — and therefore the RNG stream layout and
#: every simulated float — is a function of the scenario alone.
DEFAULT_NUM_SHARDS = 16

#: Bytes per packet slot in the scratch block: pkt i8 + inst i8 +
#: arrival f8 + departure f8.
_SCRATCH_BYTES_PER_SLOT = 32


@dataclass(frozen=True)
class ScaleShardPlan:
    """Deterministic partition of the service instances into shards.

    ``shard_of_inst[i]`` is the shard owning instance ``i``.  The plan
    is hop-level-consistent by construction — an instance belongs to
    one shard at every chain position — which is what lets each shard
    keep a private departure-frontier history across rounds.
    """

    num_shards: int
    shard_of_inst: np.ndarray

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValidationError(
                f"num_shards must be >= 1, got {self.num_shards!r}"
            )

    @classmethod
    def build(
        cls,
        arrays: ScenarioArrays,
        sched: ScheduleArrays,
        num_shards: Optional[int] = None,
    ) -> "ScaleShardPlan":
        """Balance instances over shards by scheduled offered rate.

        Instances are ranked by the total effective rate of their
        scheduled requests (the packet-volume proxy for sweep work)
        and dealt snake-wise over the shards, so heavy and light
        instances spread evenly.  Ties break on instance id; the
        result depends only on (scenario, schedule, ``num_shards``).
        """
        num_instances = int(arrays.num_instances)
        shards = DEFAULT_NUM_SHARDS if num_shards is None else int(num_shards)
        shards = max(1, min(shards, max(num_instances, 1)))
        weights = np.bincount(
            np.asarray(sched.inst, dtype=np.int64),
            weights=np.asarray(arrays.eff_rate, dtype=np.float64)[sched.req],
            minlength=num_instances,
        )
        order = np.lexsort(
            (np.arange(num_instances, dtype=np.int64), -weights)
        )
        ranks = np.arange(num_instances, dtype=np.int64)
        pos = ranks % shards
        snake = np.where((ranks // shards) % 2 == 0, pos, shards - 1 - pos)
        shard_of_inst = np.empty(num_instances, dtype=np.int64)
        shard_of_inst[order] = snake
        return cls(num_shards=shards, shard_of_inst=shard_of_inst)

    def members(self, shard: int) -> np.ndarray:
        """Instance ids of one shard, ascending."""
        return np.flatnonzero(self.shard_of_inst == shard)

    def local_index(self) -> np.ndarray:
        """Each instance's index among its shard's members, as the
        :func:`index_dtype` of the largest shard."""
        sizes = np.bincount(self.shard_of_inst, minlength=self.num_shards)
        order = np.argsort(self.shard_of_inst, kind="stable")
        starts = np.cumsum(sizes) - sizes
        local = np.empty(self.shard_of_inst.size, dtype=np.int64)
        local[order] = np.arange(order.size) - np.repeat(starts, sizes)
        return local.astype(index_dtype(int(sizes.max(initial=0))))


def index_dtype(size: int) -> np.dtype:
    """Narrowest unsigned dtype that holds the indexes ``0 .. size - 1``.

    numpy's stable sort is a radix sort on 8- and 16-bit integers and a
    comparison sort on wider ones; both give the one stable permutation,
    so the key's width changes the cost of a sort, never its result.
    """
    for dtype in (np.uint8, np.uint16, np.uint32):
        if size <= int(np.iinfo(dtype).max) + 1:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def partition_by_shard(
    shard_ids: np.ndarray, num_shards: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Stable partition of one level batch by shard id.

    Returns ``(order, bounds)``: ``order`` permutes the batch so shard
    ``s`` occupies ``[bounds[s], bounds[s + 1])``, preserving the
    relative order of entries within each shard.  Both executors
    receive the batch through this exact permutation, which is one of
    the byte-identity legs of the determinism contract.  Ids are sorted
    as :func:`index_dtype` ``(num_shards)`` keys (pass them in that
    dtype to skip the cast).
    """
    if num_shards == 1:
        return (
            np.arange(shard_ids.size, dtype=np.int64),
            np.asarray([0, shard_ids.size], dtype=np.int64),
        )
    keys = shard_ids.astype(index_dtype(num_shards), copy=False)
    order = np.argsort(keys, kind="stable")
    bounds = np.zeros(num_shards + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=num_shards), out=bounds[1:])
    return order, bounds


def visit_order(
    keys: np.ndarray,
    inst: np.ndarray,
    t: np.ndarray,
    kind: Optional[str] = None,
) -> np.ndarray:
    """Permutation sorting visits by (instance, time), ties in index
    order: exactly ``np.lexsort((t, inst))``.

    ``keys`` is :meth:`_History.key_of` ``(inst, t)``, which never
    decreases along (instance, time), so an ``argsort`` of it (of any
    ``kind``) is right up to runs of equal keys.  Those are rare and
    re-sorted on (instance, time, index): the key can round two
    distinct times at one instance to one value.  numpy's default sort
    is vectorized; ``"stable"`` (timsort, which merges sorted runs) is
    the faster one on a concatenation of sorted runs.
    """
    order = np.argsort(keys, kind=kind)
    ranked = keys[order]
    tied = np.zeros(order.size, dtype=bool)
    np.equal(ranked[1:], ranked[:-1], out=tied[1:])
    tied[:-1] |= tied[1:]
    runs = np.flatnonzero(tied)
    idx = order[runs]
    order[runs] = idx[np.lexsort((idx, t[idx], inst[idx], ranked[runs]))]
    return order


class _Run(NamedTuple):
    """One swept batch in (instance, time) order, as it was swept.

    Within an instance FCFS departures do not decrease, so ``dep`` is
    its own running max; ``seen`` marks the local instances it holds.
    """

    keys: np.ndarray
    inst: np.ndarray
    arr: np.ndarray
    pkt: np.ndarray
    dep: np.ndarray
    seen: np.ndarray

    def rank(
        self, keys: np.ndarray, inst: np.ndarray, t: np.ndarray
    ) -> np.ndarray:
        """Per visit, the number of run entries lexicographically at or
        before its (instance, time)."""
        pos = np.searchsorted(self.keys, keys, side="right")
        # Step back over tied keys whose entry lies after the visit.  A
        # run is never empty, and where ``pos`` is 0 the wrapped-around
        # last key is above the visit's, so it never ties.
        tied = np.flatnonzero(self.keys[pos - 1] == keys)
        while tied.size:
            j = pos[tied] - 1
            after = (self.inst[j] > inst[tied]) | (
                (self.inst[j] == inst[tied]) & (self.arr[j] > t[tied])
            )
            tied = tied[after]
            pos[tied] -= 1
            tied = tied[pos[tied] > 0]
            tied = tied[self.keys[pos[tied] - 1] == keys[tied]]
        return pos


class _History:
    """One shard's visit log and departure frontier.

    Every swept batch is kept as one sorted :class:`_Run`, appended and
    never touched again.  A float key ``instance * span + arrival``
    lets one ``searchsorted`` per earlier run find the latest backlog
    an arrival sees at its instance; only the visits whose instance the
    run holds search it.  Instances never cross shards, so the
    per-shard frontiers partition the global one exactly.  The
    measurement sweep reads :meth:`merged`, the runs merged once into
    exact (instance, arrival) order, ties in sweep order.
    """

    def __init__(self, span: float, size: int) -> None:
        self._span = span
        self._size = size
        self.runs: List[_Run] = []

    def key_of(self, inst: np.ndarray, t: np.ndarray) -> np.ndarray:
        return inst.astype(np.float64) * self._span + t

    def waits(
        self, keys: np.ndarray, inst: np.ndarray, t: np.ndarray
    ) -> np.ndarray:
        """Residual backlog each visit queues behind: the latest
        departure at or before it at its instance, less its time."""
        latest = np.full(t.size, -np.inf)
        for run in self.runs:
            sel = np.flatnonzero(run.seen[inst])
            sel_inst = inst[sel]
            # The last run entry at or before each visit, -1 if none.
            prev = run.rank(keys[sel], sel_inst, t[sel]) - 1
            hit = (prev >= 0) & (run.inst[prev] == sel_inst)
            at = sel[hit]
            latest[at] = np.maximum(latest[at], run.dep[prev[hit]])
        return np.clip(latest - t, 0.0, None)

    def record(
        self,
        keys: np.ndarray,
        inst: np.ndarray,
        t: np.ndarray,
        pkt: np.ndarray,
        dep: np.ndarray,
    ) -> None:
        """Append one swept batch, in (instance, time) order with its
        keys; ``dep`` is non-decreasing within each instance."""
        seen = np.zeros(self._size, dtype=bool)
        seen[inst] = True
        self.runs.append(_Run(keys, inst, t, pkt, dep, seen))

    def merged(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(inst, arr, pkt)`` of every visit in exact (instance,
        arrival) order, ties in sweep order."""
        if not self.runs:
            return (
                np.empty(0, dtype=np.intp),
                np.empty(0, dtype=np.float64),
                np.empty(0, dtype=np.int64),
            )
        keys, inst, arr, pkt = (
            np.concatenate([getattr(run, col) for run in self.runs])
            for col in ("keys", "inst", "arr", "pkt")
        )
        order = visit_order(keys, inst, arr, kind="stable")
        return inst[order], arr[order], pkt[order]


class _ShardMeasure(NamedTuple):
    """One shard's measurement-sweep sums, ready for the merge.

    Per-packet sojourn sums travel compressed (``pkt_idx`` is the
    sorted unique packet ids this shard's instances served); the
    per-instance columns are full length but zero outside the shard's
    instance set.
    """

    pkt_idx: np.ndarray
    pkt_sums: np.ndarray
    arrivals: np.ndarray
    departures: np.ndarray
    sojourn_done: np.ndarray
    busy: np.ndarray


class _ShardSim:
    """One shard's private causal-sweep and measurement state.

    The shard sorts and keys its visits on the instance's index among
    the shard's members (``local``, :meth:`ScaleShardPlan.local_index`),
    a narrow integer that orders them as the global id does.
    """

    def __init__(
        self,
        mu_inst: np.ndarray,
        plan: ScaleShardPlan,
        local: np.ndarray,
        shard: int,
        horizon: float,
        sweep_seq: np.random.SeedSequence,
        measure_seq: np.random.SeedSequence,
    ) -> None:
        self._members = plan.members(shard)
        self._local = local
        self._mu = mu_inst[self._members]
        self._horizon = horizon
        self._sweep_rng = np.random.default_rng(sweep_seq)
        self._measure_rng = np.random.default_rng(measure_seq)
        self._history = _History(
            span=horizon * (1.0 + 1e-9) + 1.0, size=self._members.size
        )

    def sweep(
        self, pkt: np.ndarray, inst: np.ndarray, t: np.ndarray
    ) -> np.ndarray:
        """Sweep one level sub-batch; departures in input order."""
        local = self._local[inst]
        keys = self._history.key_of(local, t)
        order = visit_order(keys, local, t)
        b_keys, b_local, b_t = keys[order], local[order], t[order]
        services = self._sweep_rng.standard_exponential(
            b_t.size
        ) / self._mu[b_local]
        waits = self._history.waits(b_keys, b_local, b_t)
        dep = segmented_lindley(b_t + waits, services, b_local)
        self._history.record(b_keys, b_local, b_t, pkt[order], dep)
        out = np.empty_like(dep)
        out[order] = dep
        return out

    def measure(self, num_instances: int, generated: int) -> _ShardMeasure:
        """Full-load measurement pass over this shard's merged visits."""
        inst, arr, pkt = self._history.merged()
        size = self._members.size
        bounds = np.arange(size + 1)

        def per_instance(column):
            out = np.zeros(num_instances, dtype=column.dtype)
            out[self._members] = column
            return out

        def counts(sorted_inst):
            return np.diff(np.searchsorted(sorted_inst, bounds))

        services = self._measure_rng.standard_exponential(
            arr.size
        ) / self._mu[inst]
        dep = segmented_lindley(arr, services, inst)
        sojourns = dep - arr
        # Per-packet sums over the shard's own packets, in log order
        # within each packet (bincount's order).  A boolean mark finds
        # the packets and a dense rank numbers them, so the only
        # ``generated``-long arrays are a bool mask and an index table
        # that is written at the marked packets only.
        seen = np.zeros(generated, dtype=bool)
        seen[pkt] = True
        pkt_idx = np.flatnonzero(seen)
        rank = np.empty(generated, dtype=np.intp)
        rank[pkt_idx] = np.arange(pkt_idx.size)
        pkt_sums = np.bincount(
            rank[pkt], weights=sojourns, minlength=pkt_idx.size
        )
        done = dep < self._horizon
        inst_done = inst[done]
        overlap = busy_time_within(dep, services, self._horizon)
        return _ShardMeasure(
            pkt_idx=pkt_idx,
            pkt_sums=pkt_sums,
            arrivals=per_instance(counts(inst)),
            departures=per_instance(counts(inst_done)),
            sojourn_done=per_instance(
                np.bincount(inst_done, sojourns[done], minlength=size)
            ),
            busy=per_instance(np.bincount(inst, overlap, minlength=size)),
        )


def merge_shard_measurements(
    tagged: Iterable[Tuple[int, _ShardMeasure]],
    generated: int,
    num_instances: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Reduce per-shard measurement sums into whole-run columns.

    ``tagged`` is ``(shard_id, measure)`` pairs in **any** order — the
    reduction sorts by shard id first, so the float addition order of
    the cross-shard per-packet sojourn sums is fixed regardless of
    which worker answered first (the merge-order invariance the
    Hypothesis suite pins).  Returns ``(sojourn_sums, arrivals,
    departures, sojourn_done, busy)``.
    """
    sojourn_sums = np.zeros(generated, dtype=np.float64)
    arrivals = np.zeros(num_instances, dtype=np.int64)
    departures = np.zeros(num_instances, dtype=np.int64)
    sojourn_done = np.zeros(num_instances, dtype=np.float64)
    busy = np.zeros(num_instances, dtype=np.float64)
    for _, m in sorted(tagged, key=lambda kv: kv[0]):
        sojourn_sums[m.pkt_idx] += m.pkt_sums
        arrivals += m.arrivals
        departures += m.departures
        sojourn_done += m.sojourn_done
        busy += m.busy
    return sojourn_sums, arrivals, departures, sojourn_done, busy


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------


class _ScratchLanes(NamedTuple):
    pkt: np.ndarray
    inst: np.ndarray
    t: np.ndarray
    dep: np.ndarray


def _scratch_lanes(block, capacity: int) -> _ScratchLanes:
    """The four per-packet lanes of one scratch block, as views."""
    i8, f8 = np.dtype(np.int64), np.dtype(np.float64)
    return _ScratchLanes(
        pkt=np.ndarray(capacity, dtype=i8, buffer=block.buf, offset=0),
        inst=np.ndarray(
            capacity, dtype=i8, buffer=block.buf, offset=8 * capacity
        ),
        t=np.ndarray(
            capacity, dtype=f8, buffer=block.buf, offset=16 * capacity
        ),
        dep=np.ndarray(
            capacity, dtype=f8, buffer=block.buf, offset=24 * capacity
        ),
    )


class _SerialShardExecutor:
    """In-process executor: the reference semantics of the sharded sweep."""

    def __init__(
        self,
        arrays: ScenarioArrays,
        plan: ScaleShardPlan,
        horizon: float,
        sweep_seqs: Sequence[np.random.SeedSequence],
        measure_seqs: Sequence[np.random.SeedSequence],
        generated: int,
    ) -> None:
        mu = arrays.mu_inst.astype(np.float64, copy=False)
        self._num_instances = int(arrays.num_instances)
        self._generated = int(generated)
        local = plan.local_index()
        self._sims = [
            _ShardSim(
                mu, plan, local, s, horizon, sweep_seqs[s], measure_seqs[s]
            )
            for s in range(plan.num_shards)
        ]

    def sweep(
        self,
        pkt: np.ndarray,
        inst: np.ndarray,
        t: np.ndarray,
        bounds: np.ndarray,
    ) -> np.ndarray:
        dep = np.empty(t.size, dtype=np.float64)
        for s, sim in enumerate(self._sims):
            lo, hi = int(bounds[s]), int(bounds[s + 1])
            if lo == hi:
                continue
            dep[lo:hi] = sim.sweep(pkt[lo:hi], inst[lo:hi], t[lo:hi])
        return dep

    def measure(self) -> List[Tuple[int, _ShardMeasure]]:
        return [
            (s, sim.measure(self._num_instances, self._generated))
            for s, sim in enumerate(self._sims)
        ]

    def close(self) -> None:
        pass


class _WorkerStartupError(RuntimeError):
    """A shard worker died before its ready handshake."""


def _shard_worker(
    conn,
    handle,
    plan: ScaleShardPlan,
    owned: List[Tuple[int, np.random.SeedSequence, np.random.SeedSequence]],
    scratch_name: str,
    capacity: int,
    horizon: float,
) -> None:
    """Entry point of one shard worker process (spawn-safe).

    Attaches the published scenario and the scratch block, builds the
    owned :class:`_ShardSim` instances, then serves ``sweep`` /
    ``measure`` requests until ``close``.  Any exception is reported
    back over the pipe instead of dying silently.
    """
    block = None
    try:
        from multiprocessing import shared_memory

        from repro.experiments.shm import attach_arrays

        arrays = attach_arrays(handle)
        mu = arrays.mu_inst.astype(np.float64, copy=False)
        num_instances = int(arrays.num_instances)
        # Attaching re-registers the block with the resource tracker;
        # workers are direct children sharing the master's tracker, so
        # the re-registration is idempotent and the master's unlink
        # balances it — unregistering here would double-remove.
        block = shared_memory.SharedMemory(name=scratch_name)
        lanes = _scratch_lanes(block, capacity)
        local = plan.local_index()
        sims = {
            sid: _ShardSim(
                mu, plan, local, sid, horizon, sweep_seq, measure_seq
            )
            for sid, sweep_seq, measure_seq in owned
        }
        conn.send(("ready",))
        while True:
            msg = conn.recv()
            op = msg[0]
            if op == "sweep":
                for sid, lo, hi in msg[1]:
                    lanes.dep[lo:hi] = sims[sid].sweep(
                        lanes.pkt[lo:hi], lanes.inst[lo:hi], lanes.t[lo:hi]
                    )
                conn.send(("ok",))
            elif op == "measure":
                conn.send(
                    (
                        "measure",
                        [
                            (sid, sims[sid].measure(num_instances, capacity))
                            for sid in sorted(sims)
                        ],
                    )
                )
            elif op == "close":
                break
            else:  # pragma: no cover - protocol misuse
                raise SimulationError(f"unknown shard op {op!r}")
    except (EOFError, BrokenPipeError, KeyboardInterrupt):
        pass
    except Exception:
        import traceback

        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        try:
            if block is not None:
                block.close()
        except Exception:
            pass
        try:
            conn.close()
        except Exception:
            pass


class _ProcessShardExecutor:
    """Worker-pool executor: shards served by long-lived processes.

    Worker ``w`` owns shards ``s`` with ``s % workers == w``.  Level
    batches travel through one shared-memory scratch block (four lanes:
    packet id, instance, arrival, departure) — per level the master
    writes the partitioned batch once, sends each worker its shard
    segment offsets, and reads the departure lane back after the acks.
    The scenario itself is attached zero-copy from a
    :func:`~repro.experiments.shm.publish_arrays` snapshot.
    """

    def __init__(
        self,
        arrays: ScenarioArrays,
        plan: ScaleShardPlan,
        horizon: float,
        sweep_seqs: Sequence[np.random.SeedSequence],
        measure_seqs: Sequence[np.random.SeedSequence],
        generated: int,
        workers: int,
        start_method: Optional[str] = None,
    ) -> None:
        import multiprocessing
        from multiprocessing import shared_memory

        from repro.experiments.shm import publish_arrays

        self._procs: List[object] = []
        self._conns: List[object] = []
        self._scratch = None
        self._handle = None
        self._capacity = int(generated)
        self._num_shards = plan.num_shards
        self._workers = workers
        try:
            ctx = multiprocessing.get_context(start_method)
            self._handle = publish_arrays(arrays)
            self._scratch = shared_memory.SharedMemory(
                create=True,
                size=max(_SCRATCH_BYTES_PER_SLOT * self._capacity, 1),
            )
            self._lanes = _scratch_lanes(self._scratch, self._capacity)
            for w in range(workers):
                owned = [
                    (s, sweep_seqs[s], measure_seqs[s])
                    for s in range(plan.num_shards)
                    if s % workers == w
                ]
                parent, child = ctx.Pipe()
                proc = ctx.Process(
                    target=_shard_worker,
                    args=(
                        child,
                        self._handle,
                        plan,
                        owned,
                        self._scratch.name,
                        self._capacity,
                        horizon,
                    ),
                    daemon=True,
                )
                proc.start()
                child.close()
                self._procs.append(proc)
                self._conns.append(parent)
            for conn in self._conns:
                try:
                    msg = conn.recv()
                except EOFError as exc:
                    raise _WorkerStartupError(
                        "shard worker exited before ready"
                    ) from exc
                if msg[0] != "ready":
                    raise _WorkerStartupError(
                        msg[1] if len(msg) > 1 else "worker startup failed"
                    )
        except Exception:
            self.close()
            raise

    def _recv(self, conn):
        try:
            msg = conn.recv()
        except EOFError as exc:
            raise SimulationError(
                "scale shard worker died mid-run (killed or crashed); "
                "re-run with jobs=1 for the serial path"
            ) from exc
        if msg[0] == "error":
            raise SimulationError(f"scale shard worker failed:\n{msg[1]}")
        return msg

    def sweep(
        self,
        pkt: np.ndarray,
        inst: np.ndarray,
        t: np.ndarray,
        bounds: np.ndarray,
    ) -> np.ndarray:
        n = t.size
        if n > self._capacity:  # pragma: no cover - defensive
            raise SimulationError(
                f"level batch of {n} exceeds scratch capacity "
                f"{self._capacity}"
            )
        self._lanes.pkt[:n] = pkt
        self._lanes.inst[:n] = inst
        self._lanes.t[:n] = t
        busy = []
        for w, conn in enumerate(self._conns):
            segs = [
                (s, int(bounds[s]), int(bounds[s + 1]))
                for s in range(w, self._num_shards, self._workers)
                if bounds[s] != bounds[s + 1]
            ]
            if segs:
                conn.send(("sweep", segs))
                busy.append(conn)
        for conn in busy:
            self._recv(conn)
        return self._lanes.dep[:n].copy()

    def measure(self) -> List[Tuple[int, _ShardMeasure]]:
        for conn in self._conns:
            conn.send(("measure",))
        tagged: List[Tuple[int, _ShardMeasure]] = []
        for conn in self._conns:
            tagged.extend(self._recv(conn)[1])
        return tagged

    def close(self) -> None:
        from repro.experiments.shm import unpublish_arrays

        for conn in self._conns:
            try:
                conn.send(("close",))
            except Exception:
                pass
        for proc in self._procs:
            proc.join(timeout=10)
        for proc in self._procs:
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=1)
        for conn in self._conns:
            try:
                conn.close()
            except Exception:
                pass
        self._procs, self._conns = [], []
        self._lanes = None
        if self._scratch is not None:
            try:
                self._scratch.close()
                self._scratch.unlink()
            except Exception:
                pass
            self._scratch = None
        if self._handle is not None:
            unpublish_arrays(self._handle)
            self._handle = None


def open_shard_executor(
    arrays: ScenarioArrays,
    plan: ScaleShardPlan,
    horizon: float,
    sweep_seqs: Sequence[np.random.SeedSequence],
    measure_seqs: Sequence[np.random.SeedSequence],
    generated: int,
    jobs: Optional[int] = None,
    start_method: Optional[str] = None,
):
    """Build the executor for one run; pair with ``.close()``.

    ``jobs`` of ``None``/``1`` runs serially; ``0`` auto-detects CPUs
    (:func:`repro.experiments.montecarlo.resolve_jobs`); ``N >= 2``
    starts ``min(N, num_shards)`` workers.  Single-shard plans, empty
    runs and platforms where workers cannot start all fall back to the
    serial executor, which computes the identical result.
    """
    from repro.experiments.montecarlo import resolve_jobs

    workers = 1 if jobs is None else resolve_jobs(jobs)
    workers = min(workers, plan.num_shards)
    if workers > 1 and generated > 0:
        try:
            return _ProcessShardExecutor(
                arrays,
                plan,
                horizon,
                sweep_seqs,
                measure_seqs,
                generated,
                workers,
                start_method,
            )
        except (
            OSError,
            ValueError,
            PermissionError,
            ImportError,
            _WorkerStartupError,
        ):
            pass
    return _SerialShardExecutor(
        arrays, plan, horizon, sweep_seqs, measure_seqs, generated
    )
