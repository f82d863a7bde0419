"""Seeded failure-event streams — crashes and repairs in simulated time.

The serving layer's churn traces (:mod:`repro.serve.events`) model a
healthy fleet; this module adds the component-failure dimension of
ROADMAP item 5: node crash/recover windows drawn from exponential
MTBF/MTTR processes, plus optional *correlated* rack failures (a whole
node group crashing together — the top-of-rack switch abstraction).
Single-instance crash/repair events are :class:`FaultEvent` rows a
caller builds directly.  Everything routes through the central
:mod:`repro.seeding` policy, so a stream is a pure function of its
seed: same seed, same timeline, at any parallelism.

:func:`merge_timeline` folds failure events into a churn trace under
one total order — recoveries before crashes before arrivals before
departures at equal timestamps — which is the order
:class:`~repro.serve.service.ServingLayer` replays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ValidationError
from repro.seeding import RngLike, resolve_rng

__all__ = [
    "FaultEvent",
    "failure_events",
    "merge_timeline",
]

#: Total-order rank per event kind at equal timestamps: repairs first
#: (capacity is back before anything else happens in that instant),
#: then crashes (an arrival coincident with a crash sees the crash),
#: then the churn convention (arrivals before departures).
_KIND_PRIORITY: Dict[str, int] = {
    "node_up": 0,
    "instance_up": 1,
    "node_down": 2,
    "instance_down": 3,
    "arrival": 4,
    "departure": 5,
}


@dataclass(frozen=True)
class FaultEvent:
    """One component failure or repair in simulated time."""

    #: Simulated timestamp (seconds).
    time: float
    #: ``"node_down"`` / ``"node_up"`` / ``"instance_down"`` /
    #: ``"instance_up"``.
    kind: str
    #: The node key (node events only).
    node: object = None
    #: The VNF name (instance events only).
    vnf: Optional[str] = None
    #: The instance index ``k`` (instance events only).
    instance: Optional[int] = None


def _validate_process(duration: float, mtbf: float, mttr: float) -> None:
    if duration <= 0.0:
        raise ValidationError(f"duration must be > 0, got {duration!r}")
    if mtbf <= 0.0 or mttr <= 0.0:
        raise ValidationError(
            f"mtbf and mttr must be > 0, got {mtbf!r} / {mttr!r}"
        )


def _down_windows(
    generator: np.random.Generator,
    duration: float,
    mtbf: float,
    mttr: float,
) -> List[Tuple[float, float]]:
    """Alternating up/down windows of one renewal process.

    Starts healthy; uptimes are Exp(``mtbf``), repair times
    Exp(``mttr``), both drawn one at a time in alternation so the
    stream consumption is a pure function of the horizon.  Windows are
    clipped to ``duration`` (a repair past the horizon never emits its
    ``*_up`` event).
    """
    windows: List[Tuple[float, float]] = []
    t = 0.0
    while True:
        t += float(generator.exponential(mtbf))
        if t >= duration:
            break
        down_at = t
        t += float(generator.exponential(mttr))
        windows.append((down_at, min(t, duration)))
        if t >= duration:
            break
    return windows


def _merge_windows(
    windows: List[Tuple[float, float]],
) -> List[Tuple[float, float]]:
    """Union of possibly-overlapping down windows (sorted, disjoint)."""
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(windows):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def failure_events(
    nodes: Sequence,
    *,
    duration: float,
    mtbf: float,
    mttr: float,
    rng: RngLike = None,
    racks: Optional[Sequence[Sequence]] = None,
    rack_mtbf: Optional[float] = None,
    rack_mttr: Optional[float] = None,
) -> List[FaultEvent]:
    """Node crash/repair events over ``duration`` seconds.

    Each node runs an independent renewal process — Exp(``mtbf``)
    uptime, Exp(``mttr``) repair — drawn in node order from one
    resolved RNG.  With ``racks`` (sequences of node keys), every rack
    additionally runs a *correlated* process (``rack_mtbf`` /
    ``rack_mttr``, defaulting to the node parameters) whose down
    windows crash every member simultaneously; overlapping per-node and
    rack windows are merged before events are emitted, so each node's
    down/up events strictly alternate.

    Returns the events sorted by :func:`merge_timeline`'s total order.
    """
    _validate_process(duration, mtbf, mttr)
    if not len(nodes):
        raise ValidationError("failure_events needs at least one node")
    generator = resolve_rng(rng)

    per_node: Dict[object, List[Tuple[float, float]]] = {
        node: _down_windows(generator, duration, mtbf, mttr)
        for node in nodes
    }
    if racks:
        r_mtbf = mtbf if rack_mtbf is None else rack_mtbf
        r_mttr = mttr if rack_mttr is None else rack_mttr
        _validate_process(duration, r_mtbf, r_mttr)
        known = set(per_node)
        for rack in racks:
            windows = _down_windows(generator, duration, r_mtbf, r_mttr)
            for node in rack:
                if node not in known:
                    raise ValidationError(
                        f"rack member {node!r} is not in nodes"
                    )
                per_node[node].extend(windows)

    events: List[FaultEvent] = []
    for node in nodes:
        for start, end in _merge_windows(per_node[node]):
            events.append(FaultEvent(time=start, kind="node_down", node=node))
            if end < duration:
                events.append(FaultEvent(time=end, kind="node_up", node=node))
    return merge_timeline(events)


def merge_timeline(*streams: Iterable) -> List:
    """Merge event streams into one totally-ordered timeline.

    Accepts any mix of :class:`FaultEvent` and
    :class:`~repro.serve.events.ChurnEvent` iterables.  The order is
    ``(time, kind priority)`` with a stable sort over the concatenated
    streams, so coincident events resolve deterministically: repairs,
    then crashes, then arrivals, then departures — and ties within a
    kind keep their stream order.
    """
    merged: List = []
    for stream in streams:
        merged.extend(stream)
    for event in merged:
        if event.kind not in _KIND_PRIORITY:
            raise ValidationError(f"unknown event kind {event.kind!r}")
    merged.sort(key=lambda e: (e.time, _KIND_PRIORITY[e.kind]))
    return merged
