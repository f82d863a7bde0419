"""Shared pieces of the benchmark: spans, percentiles, host speed,
machine info.

Nothing here imports ``repro``; the workload modules do.  Tracing is a
:class:`Tracer` that callers create and pass around.  With tracing off
no span wrapper is installed, so the untraced runs pay nothing for it.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import random
import signal
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np


class Tracer:
    """In-memory spans (name, start, end, parent id) plus counters.

    Spans nest through a stack, so a call made inside another traced
    call records the outer span as its parent.  A span's self time is
    its duration minus the time its direct children cover.
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        record = {
            "id": sid,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open right now."""
        return any(self.spans[sid]["name"] == name for sid in self._stack)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, fn: Callable, name: str, on_result=None,
             within: str = "") -> Callable:
        """A delegating wrapper that records one span per call.

        ``on_result(result, args)`` runs after the span closes, so the
        counting it does is not charged to the layer.  A call made while
        a ``within`` span is open is passed straight through, uncounted,
        so its time stays with that enclosing layer.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if within and self.inside(within):
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    def self_times(self) -> Dict[str, float]:
        """Self seconds per span name, summed over that name's spans."""
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None:
                child_time[record["parent"]] += record["end"] - record["start"]
        out: Dict[str, float] = {}
        for record in self.spans:
            own = record["end"] - record["start"] - child_time[record["id"]]
            out[record["name"]] = out.get(record["name"], 0.0) + own
        return out

    def dump(self, path: str, meta: dict) -> None:
        """Write every span and counter as JSON (called once, at the end)."""
        with open(path, "w") as handle:
            json.dump(
                {"meta": meta, "counts": self.counts, "spans": self.spans},
                handle,
            )


def quantile_stat(values: Sequence[float], q: float, scale: float = 1.0):
    """``{"value", "n", "beyond"}`` for the ``q`` quantile of ``values``.

    ``beyond`` is how many samples lie above the reported quantile, so a
    reader can tell whether a tail rests on at least ten of them.
    """
    arr = np.asarray(values, dtype=np.float64) * scale
    if not len(arr):
        return {"value": None, "n": 0, "beyond": 0}
    value = float(np.percentile(arr, 100.0 * q))
    return {"value": value, "n": int(len(arr)), "beyond": int((arr > value).sum())}


def fcfs_response_times(
    due: np.ndarray, service: np.ndarray
) -> np.ndarray:
    """Due-to-completion time of each job at one FCFS server.

    ``due`` (non-decreasing) is when each job is offered, ``service``
    how long the server takes for it.  Lindley's recursion: a job
    starts when it is due or when its predecessor completes, whichever
    is later.  Nothing sleeps; this replays measured service times
    against a fixed schedule.
    """
    out = np.empty(len(due), dtype=np.float64)
    free_at = -np.inf
    for i in range(len(due)):
        start = due[i] if due[i] > free_at else free_at
        free_at = start + service[i]
        out[i] = free_at - due[i]
    return out


#: Work of one host-speed probe loop: arithmetic iterations and random
#: lookups in a table of ``PROBE_TABLE`` keys, each half taking about
#: as long as the other; and the milliseconds the loop takes on the
#: nominal host that normalised times refer to.
PROBE_ITERS = 10_000
PROBE_LOOKUPS = 1500
PROBE_TABLE = 1 << 18
NOMINAL_PROBE_MS = 1.4

_table: Dict[int, int] = {}
_keys: List[int] = []


def _probe_loop(offset: int) -> int:
    """Pure-Python arithmetic, then random lookups in a ~30 MB dict.

    The arithmetic slows down with a slower core; the table outgrows the
    private caches, as the workloads' state does, so the lookups also
    slow down with a contended shared cache and memory.  On identical
    serve and swap-refine work, weighing the two halves equally removed
    more of the host's swings than either half alone.
    """
    if not _table:
        rng = random.Random(0)
        _keys.extend(rng.getrandbits(40) for _ in range(PROBE_TABLE))
        _table.update((key, i) for i, key in enumerate(_keys))
        rng.shuffle(_keys)
    total = 0
    for i in range(PROBE_ITERS):
        total += i * i % 7
    table = _table
    for key in _keys[offset : offset + PROBE_LOOKUPS]:
        total += table[key]
    return total


class HostSpeed:
    """How fast the host runs right now, sampled between units of work.

    On a shared host the same code runs up to ~1.5x slower for seconds
    at a time (CPU time moves with wall time, so the slowdown is not
    descheduling).  A probe times a fixed loop (median of three) in the
    measuring thread; a measured
    duration divided by the interpolated :meth:`slowdown` is the time
    the work would have taken on the nominal host.  A slower program
    still reports more normalised time: the loop does not depend on it.

    With a ``tracer`` set, each probe records a ``perfbench.probe`` span.
    """

    def __init__(self, every: float = 0.1) -> None:
        self.every = every
        self.at: List[float] = []
        self.ms: List[float] = []
        #: Seconds each probe took, all three loops.
        self.took: List[float] = []
        self.tracer: Optional[Tracer] = None
        self._next = -np.inf

    @contextmanager
    def sampling(self):
        """Probe every ``every`` seconds from a timer signal while the
        body runs, for work that does not come back to the benchmark
        between units, such as one batch stage.  :meth:`normalise`
        takes the probes' own time out of the interval.  Not for traced
        work: a probe span opened by the signal could interleave with
        the tracer's bookkeeping.
        """
        previous = signal.signal(signal.SIGALRM, lambda _sig, _frame: self._probe())
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def probe(self) -> None:
        if self.tracer is None:
            self._probe()
        else:
            with self.tracer.span("perfbench.probe"):
                self._probe()

    def _probe(self) -> None:
        begin = time.perf_counter()
        loops = []
        for _ in range(3):
            offset = (len(self.at) * 3 + len(loops)) * PROBE_LOOKUPS
            offset %= PROBE_TABLE - PROBE_LOOKUPS
            start = time.perf_counter()
            _probe_loop(offset)
            loops.append(time.perf_counter() - start)
        now = time.perf_counter()
        self.at.append(now)
        self.ms.append(1e3 * sorted(loops)[1])
        self.took.append(now - begin)
        self._next = now + self.every

    def due(self, now: float) -> bool:
        return now >= self._next

    def slowdown(self, times) -> np.ndarray:
        """Host slowdown against the nominal host at each of ``times``."""
        if not self.at:
            raise RuntimeError("no host-speed probe was taken")
        ms = np.interp(np.asarray(times, dtype=np.float64), self.at, self.ms)
        return ms / NOMINAL_PROBE_MS

    def normalise(self, start: float, end: float) -> float:
        """Seconds ``start``..``end`` would have taken on the nominal
        host, less the time of the probes that ran inside it."""
        at = np.asarray(self.at)
        inside = (at >= start) & (at <= end)
        paused = float(np.asarray(self.took)[inside].sum())
        return (end - start - paused) / self.mean_slowdown(start, end)

    def mean_slowdown(self, start: float, end: float) -> float:
        """Time-averaged :meth:`slowdown` over ``start``..``end``."""
        return float(self.slowdown(np.linspace(start, end, 65)).mean())

    def summary(self) -> dict:
        if not self.ms:
            return {"probes": 0}
        ms = np.asarray(self.ms)
        return {
            "probes": len(ms),
            "probe_ms_p10_p50_p90": [float(v) for v in np.percentile(ms, [10, 50, 90])],
            "nominal_probe_ms": NOMINAL_PROBE_MS,
        }


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def stop_child_processes() -> None:
    """Stop every process this one started and wait until each has ended.

    The simulator joins its shard workers itself, but multiprocessing's
    resource tracker (started for the shared-memory blocks) and a fork
    server are made to outlive their parent; they are stopped here.  A
    last blocking wait reaps whatever child is left, so none runs on,
    or lingers as a zombie, after the benchmark exits.
    """
    import multiprocessing
    from multiprocessing import forkserver, resource_tracker

    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join()
    resource_tracker._resource_tracker._stop()
    forkserver._forkserver._stop()
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


class Deadline:
    """Wall-clock budget of one measurement window."""

    def __init__(self, seconds: float) -> None:
        self.end = time.perf_counter() + seconds

    def passed(self) -> bool:
        return time.perf_counter() >= self.end
