"""Measurement collectors for simulation runs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class InstanceStats:
    """Measured statistics of one service instance."""

    key: Tuple[str, int]
    arrivals: int
    departures: int
    mean_sojourn: float
    utilization: float


@dataclass
class SimulationMetrics:
    """Aggregated measurements of one :class:`ChainSimulator` run."""

    duration: float
    instances: List[InstanceStats]
    #: Completed end-to-end deliveries per request id.
    delivered: Dict[str, int]
    #: End-to-end latencies (creation to final delivery), per request
    #: id.  The order within one request's list is not part of the
    #: contract: the backends list the same deliveries in different
    #: orders.
    end_to_end: Dict[str, List[float]]
    #: Packets retransmitted at least once, per request id.
    retransmitted: Dict[str, int]
    #: Total packets injected by the sources.
    generated: int

    def instance(self, vnf_name: str, k: int) -> InstanceStats:
        """Look up one instance's stats."""
        for stats in self.instances:
            if stats.key == (vnf_name, k):
                return stats
        raise KeyError(f"no stats for instance ({vnf_name!r}, {k})")

    def all_latencies(self) -> List[float]:
        """Every delivered packet's end-to-end latency."""
        out: List[float] = []
        for latencies in self.end_to_end.values():
            out.extend(latencies)
        return out

    @property
    def total_delivered(self) -> int:
        """Total packets delivered end to end."""
        return sum(self.delivered.values())

    def mean_end_to_end(self) -> float:
        """Grand mean of end-to-end latency over all deliveries."""
        latencies = self.all_latencies()
        if not latencies:
            return 0.0
        return sum(latencies) / len(latencies)
