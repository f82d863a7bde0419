"""Shortest-path routing over a datacenter topology.

Routes minimize total link latency.  :class:`Router` is the scalar
query API over the topology's precomputed all-pairs shortest-path
arrays (:meth:`DatacenterTopology.arrays
<repro.topology.graph.DatacenterTopology.arrays>`): latency and hop
queries are O(1) matrix lookups, and vertex paths are reconstructed
from the predecessor matrix behind a bounded LRU (the previous
implementation cached one full ``single_source_dijkstra`` result per
queried source, unbounded — on a 10k-vertex fabric that cache alone
outgrew the graph).  Compute-to-compute queries are what Eq. (16)
consumes: the latency of a request's inter-node transfers.  Hot paths
that need *every* pair should gather from the arrays directly
(:mod:`repro.topology.arrays`) instead of looping over a Router.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Sequence

from repro.exceptions import ValidationError
from repro.topology.graph import DatacenterTopology

#: Bound on the path-reconstruction LRU (vertex paths only; latency and
#: hop queries never allocate).
DEFAULT_PATH_CACHE_SIZE = 4096


class Router:
    """Latency-weighted shortest-path queries over a topology."""

    def __init__(
        self,
        topology: DatacenterTopology,
        path_cache_size: int = DEFAULT_PATH_CACHE_SIZE,
    ) -> None:
        if path_cache_size < 1:
            raise ValidationError(
                f"path cache size must be >= 1, got {path_cache_size!r}"
            )
        if hasattr(topology, "arrays"):
            topology.validate()
            self._arrays = topology.arrays()
        else:  # a prebuilt TopologyArrays snapshot
            self._arrays = topology
        self._topology = topology
        self._path_cache: OrderedDict = OrderedDict()
        self._path_cache_size = path_cache_size

    def _vertex(self, key: str) -> int:
        index = self._arrays.vertex_index.get(key)
        if index is None:
            raise ValidationError(f"unknown vertex {key!r}")
        return index

    def path(self, source: str, target: str) -> List[str]:
        """The minimum-latency vertex path from ``source`` to ``target``."""
        s = self._vertex(source)
        t = self._vertex(target)
        cached = self._path_cache.get((s, t))
        if cached is not None:
            self._path_cache.move_to_end((s, t))
            return list(cached)
        vertices = self._arrays.vertex_path(s, t)
        keys = [self._arrays.vertex_keys[v] for v in vertices.tolist()]
        self._path_cache[(s, t)] = keys
        if len(self._path_cache) > self._path_cache_size:
            self._path_cache.popitem(last=False)
        return list(keys)

    def latency(self, source: str, target: str) -> float:
        """Total link latency along the shortest path."""
        value = float(
            self._arrays.dist[self._vertex(source), self._vertex(target)]
        )
        if value == float("inf"):
            raise ValidationError(
                f"no path from {source!r} to {target!r}"
            )
        return value

    def path_latency(self, waypoints: Sequence[str]) -> float:
        """Total latency visiting ``waypoints`` in order via shortest paths.

        This is the communication-latency term of Eq. (16) for a request
        whose chain traverses the given sequence of compute nodes.
        """
        total = 0.0
        for a, b in zip(waypoints[:-1], waypoints[1:]):
            if a != b:
                total += self.latency(a, b)
        return total

    def average_pairwise_latency(self) -> float:
        """Mean shortest-path latency over compute-node pairs.

        A topology-derived estimate of the flat per-hop constant ``L``
        used by Eq. (16) when a caller wants ``L`` calibrated to an actual
        fabric rather than supplied as a parameter.
        """
        return self._arrays.mean_compute_latency()
