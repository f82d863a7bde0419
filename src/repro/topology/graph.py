"""Core datacenter-topology data model.

A :class:`DatacenterTopology` is a connected undirected graph whose
vertices are either :class:`ComputeNode` (capacity-bearing, placeable)
or :class:`Switch` (pure forwarding, excluded from the placement set
``V`` per the paper's model).  Links carry a latency — the per-hop ``L``
of Eq. (16) — and a nominal bandwidth which the paper assumes plentiful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import networkx as nx

from repro.exceptions import ValidationError

#: Default per-hop latency (seconds): propagation + transmission, the
#: constant ``L`` of Eq. (16).  0.1 ms is a typical intra-DC figure.
DEFAULT_LINK_LATENCY = 1e-4

#: Default link bandwidth (packets/s); plentiful per the paper's model.
DEFAULT_LINK_BANDWIDTH = 1e9


@dataclass(frozen=True)
class ComputeNode:
    """A commodity server with a CPU-bounded resource capacity ``A_v``."""

    key: str
    capacity: float

    def __post_init__(self) -> None:
        if not self.key:
            raise ValidationError("compute node key must be non-empty")
        if self.capacity <= 0.0:
            raise ValidationError(
                f"node {self.key!r}: capacity must be positive, "
                f"got {self.capacity!r}"
            )


@dataclass(frozen=True)
class Switch:
    """A pure forwarding element; never hosts VNFs."""

    key: str

    def __post_init__(self) -> None:
        if not self.key:
            raise ValidationError("switch key must be non-empty")


class DatacenterTopology:
    """A connected graph of compute nodes and switches.

    Construction is incremental (:meth:`add_compute_node`,
    :meth:`add_switch`, :meth:`add_link`); :meth:`validate` checks
    connectivity once building is done.
    """

    def __init__(self, name: str = "datacenter") -> None:
        self.name = name
        self._graph = nx.Graph()
        self._compute: Dict[str, ComputeNode] = {}
        self._switches: Dict[str, Switch] = {}
        self._topology_arrays = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_compute_node(self, key: str, capacity: float) -> ComputeNode:
        """Add a compute node; keys must be unique across all vertices."""
        self._check_new_key(key)
        node = ComputeNode(key=key, capacity=capacity)
        self._compute[key] = node
        self._graph.add_node(key, kind="compute")
        self._topology_arrays = None
        return node

    def add_switch(self, key: str) -> Switch:
        """Add a switch vertex."""
        self._check_new_key(key)
        switch = Switch(key=key)
        self._switches[key] = switch
        self._graph.add_node(key, kind="switch")
        self._topology_arrays = None
        return switch

    def add_link(
        self,
        a: str,
        b: str,
        latency: float = DEFAULT_LINK_LATENCY,
        bandwidth: float = DEFAULT_LINK_BANDWIDTH,
    ) -> None:
        """Connect two existing vertices with a weighted link."""
        for key in (a, b):
            if key not in self._graph:
                raise ValidationError(f"unknown vertex {key!r}")
        if a == b:
            raise ValidationError(f"self-loop on {a!r} not allowed")
        if latency < 0.0:
            raise ValidationError(f"latency must be non-negative, got {latency!r}")
        if bandwidth <= 0.0:
            raise ValidationError(f"bandwidth must be positive, got {bandwidth!r}")
        self._graph.add_edge(a, b, latency=latency, bandwidth=bandwidth)
        self._topology_arrays = None

    def _check_new_key(self, key: str) -> None:
        if key in self._graph:
            raise ValidationError(f"vertex key {key!r} already in topology")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def graph(self) -> nx.Graph:
        """The underlying networkx graph (read-only by convention)."""
        return self._graph

    def compute_nodes(self) -> List[ComputeNode]:
        """All compute nodes, in insertion order."""
        return list(self._compute.values())

    def switches(self) -> List[Switch]:
        """All switches, in insertion order."""
        return list(self._switches.values())

    def capacities(self) -> Dict[str, float]:
        """``A_v`` per compute node key — what placement consumes."""
        return {key: node.capacity for key, node in self._compute.items()}

    @property
    def num_compute_nodes(self) -> int:
        """``|V|`` in the paper's model."""
        return len(self._compute)

    @property
    def num_switches(self) -> int:
        """Number of switch vertices."""
        return len(self._switches)

    @property
    def num_links(self) -> int:
        """``|E|``."""
        return self._graph.number_of_edges()

    def link_latency(self, a: str, b: str) -> float:
        """Latency of the direct link between ``a`` and ``b``."""
        data = self._graph.get_edge_data(a, b)
        if data is None:
            raise ValidationError(f"no link between {a!r} and {b!r}")
        return data["latency"]

    def link_bandwidth(self, a: str, b: str) -> float:
        """Bandwidth of the direct link between ``a`` and ``b``."""
        data = self._graph.get_edge_data(a, b)
        if data is None:
            raise ValidationError(f"no link between {a!r} and {b!r}")
        return data["bandwidth"]

    def links(self):
        """``(a, b, latency, bandwidth)`` per link, in insertion order."""
        return [
            (a, b, data["latency"], data["bandwidth"])
            for a, b, data in self._graph.edges(data=True)
        ]

    def arrays(self):
        """The cached :class:`~repro.topology.arrays.TopologyArrays`.

        Built (and connectivity-validated) on first use; any mutation of
        the topology invalidates the cache, so the snapshot always
        reflects the current graph.
        """
        from repro.topology.arrays import TopologyArrays

        if self._topology_arrays is None:
            self._topology_arrays = TopologyArrays.build(self)
        return self._topology_arrays

    def total_capacity(self) -> float:
        """Aggregate compute capacity ``sum_v A_v``."""
        return sum(node.capacity for node in self._compute.values())

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the invariants the paper's model assumes.

        Raises
        ------
        ValidationError
            If the topology has no compute nodes or is disconnected.
        """
        if not self._compute:
            raise ValidationError("topology has no compute nodes")
        if self._graph.number_of_nodes() > 1 and not nx.is_connected(self._graph):
            raise ValidationError("topology is not connected")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DatacenterTopology(name={self.name!r}, "
            f"compute={self.num_compute_nodes}, switches={self.num_switches}, "
            f"links={self.num_links})"
        )
