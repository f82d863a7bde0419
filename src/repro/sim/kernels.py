"""Array-native FCFS queueing kernels (the Lindley recurrence).

The column simulator (:mod:`repro.sim.scale`, the ``trace`` backend of
:class:`~repro.sim.simulator.ChainSimulator`) replaces the per-packet
event loop with whole-array computations over pre-sampled arrival and
service times.  Its core is the classic Lindley / max-prefix identity
for a single FCFS server: with arrival (availability) times ``A`` in
service order and per-packet service times ``S``, the recurrence

    ``D_m = max(A_m, D_{m-1}) + S_m``

unrolls to

    ``D_m = cumS_m + max_{j <= m} (A_j - cumS_{j-1})``

— one ``cumsum`` and one ``maximum.accumulate``, O(n) with no
Python-level iteration over packets.

Everything here is a pure function of arrays; :mod:`repro.sim.scale`
and :mod:`repro.sim.shard` own RNG streams, chain routing and feedback
rounds, and :mod:`repro.experiments.sensitivity` drives
:func:`fcfs_sojourn_times` directly on MMPP traces.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import SimulationError


def _as_float(values) -> np.ndarray:
    """View ``values`` as a floating array, preserving float32 inputs.

    Memory-lean callers feed ``float32`` traces; forcing ``float64``
    here would silently double every hot simulation buffer.  Integer
    and list inputs still promote to ``float64`` exactly as before.
    """
    arr = np.asarray(values)
    if arr.dtype.kind != "f":
        return arr.astype(np.float64)
    return arr


def lindley_departure_times(
    arrivals: np.ndarray, services: np.ndarray
) -> np.ndarray:
    """FCFS departure times of one single-server pass.

    Parameters
    ----------
    arrivals:
        Per-packet availability times **in service (FCFS) order**.
        Plain arrival traces are sorted; the column simulator may
        inflate entries by carryover waits, so monotonicity is not
        required — only the ordering is (packet ``m`` is served after
        ``m - 1``).
    services:
        Per-packet service times, aligned with ``arrivals``.

    Returns
    -------
    numpy.ndarray
        Departure times ``D`` aligned with the inputs;
        ``D_m = max(A_m, D_{m-1}) + S_m`` with ``D_{-1} = -inf``.
    """
    A = _as_float(arrivals)
    S = _as_float(services)
    if A.ndim != 1 or A.shape != S.shape:
        raise SimulationError(
            f"arrivals and services must be 1-D and aligned, got shapes "
            f"{A.shape} and {S.shape}"
        )
    if A.size == 0:
        return np.empty(0, dtype=np.result_type(A, S))
    if np.any(S < 0.0):
        raise SimulationError("service times must be non-negative")
    cum = np.cumsum(S)
    # cumS_{j-1}: cumulative service *before* packet j.
    before = np.empty_like(cum)
    before[0] = 0.0
    before[1:] = cum[:-1]
    return cum + np.maximum.accumulate(A - before)


def fcfs_sojourn_times(
    arrivals: np.ndarray,
    services: np.ndarray,
    horizon: Optional[float] = None,
) -> np.ndarray:
    """Sojourn times of a trace replayed through one FCFS server.

    With ``horizon`` given, only packets *departing* strictly before it
    are returned — the event engine's half-open-interval semantics
    (service completions at or past the horizon never happen).
    ``arrivals`` must be sorted ascending (a real arrival trace).
    """
    A = _as_float(arrivals)
    if A.size and (np.any(np.diff(A) < 0.0) or A[0] < 0.0):
        raise SimulationError(
            "arrival trace must be sorted ascending and non-negative"
        )
    D = lindley_departure_times(A, services)
    W = D - A
    if horizon is not None:
        return W[D < horizon]
    return W


def busy_time_within(
    departures: np.ndarray, services: np.ndarray, horizon: float
) -> np.ndarray:
    """Service time each visit renders inside ``[0, horizon)``.

    Each packet occupies the server on ``[D - S, D]``; its overlap with
    the measurement window, summed over an instance's visits, is the
    busy time the event backend accumulates via its busy-period
    bookkeeping.
    """
    D = np.asarray(departures, dtype=np.float64)
    S = np.asarray(services, dtype=np.float64)
    overlap = np.minimum(D, horizon) - (D - S)
    return np.clip(overlap, 0.0, None)


def segmented_maximum_accumulate(
    values: np.ndarray, segments: np.ndarray
) -> np.ndarray:
    """Per-segment running maximum (``np.maximum.accumulate`` restarted
    at every segment boundary).

    ``segments`` must be grouped (all equal ids contiguous — e.g. the
    instance column of a ``(instance, time)``-lexsorted batch).  It runs
    one ``np.maximum.accumulate`` per segment longer than one entry, so
    the result is exactly the per-segment accumulate.  The Python loop
    costs about a microsecond per segment: on a shard's measurement
    sweep (hundreds of segments of hundreds of entries) that is under
    half the cost of a doubling scan over the whole array, on a level
    sweep's shorter segments somewhat more.  It is the running max
    inside :func:`segmented_lindley`.
    """
    values = _as_float(values)
    out = values.copy()
    seg = np.asarray(segments)
    if seg.shape != out.shape:
        raise SimulationError(
            f"segments must align with values, got shapes "
            f"{seg.shape} and {out.shape}"
        )
    bounds = np.flatnonzero(seg[1:] != seg[:-1]) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.append(bounds, out.size)
    long = ends - starts > 1
    for lo, hi in zip(starts[long].tolist(), ends[long].tolist()):
        np.maximum.accumulate(values[lo:hi], out=out[lo:hi])
    return out


def segmented_lindley(
    arrivals: np.ndarray, services: np.ndarray, segments: np.ndarray
) -> np.ndarray:
    """FCFS departures of many independent servers in one shot.

    Vectorizes :func:`lindley_departure_times` across segments: each
    contiguous run of equal ``segments`` ids is one server's pass, in
    its own service order.  The per-segment cumulative service time is
    computed as the global ``cumsum`` minus each segment's starting
    base, so results match the per-segment kernel to float64 round-off
    (~1e-9 relative at millions of packets) rather than bitwise — the
    column-native simulation backend is pinned distributionally, not
    per-sample (see docs/SCALE.md).
    """
    A = _as_float(arrivals)
    S = _as_float(services)
    seg = np.asarray(segments)
    if not (A.shape == S.shape == seg.shape) or A.ndim != 1:
        raise SimulationError(
            f"arrivals, services and segments must be 1-D and aligned, "
            f"got shapes {A.shape}, {S.shape}, {seg.shape}"
        )
    if A.size == 0:
        return np.empty(0, dtype=np.result_type(A, S))
    if np.any(S < 0.0):
        raise SimulationError("service times must be non-negative")
    cum = np.cumsum(S)
    is_start = np.empty(A.size, dtype=bool)
    is_start[0] = True
    np.not_equal(seg[1:], seg[:-1], out=is_start[1:])
    start_idx = np.flatnonzero(is_start)
    counts = np.diff(np.append(start_idx, A.size))
    # cumS just *before* each segment starts, broadcast over its run.
    base = np.repeat(cum[start_idx] - S[start_idx], counts)
    cum_seg = cum - base
    return cum_seg + segmented_maximum_accumulate(
        A - (cum_seg - S), seg
    )
