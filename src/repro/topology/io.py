"""GraphML ingestion for datacenter topologies.

Real fabrics (SNDlib / Topology Zoo / B-JointSP's ``parameters/``
networks) ship as GraphML; this module reads that format into a
:class:`~repro.topology.graph.DatacenterTopology` so real topologies
flow through the same pipeline as generated ones:

* :func:`load_graphml` reads a file whose nodes may carry
  ``kind``/``capacity`` attributes and whose edges may carry
  ``latency``/``bandwidth`` — files from other tools are accepted too:
  a node is a compute node when it carries a positive ``capacity`` (or
  its ``kind`` says so), a switch otherwise, and missing link
  attributes fall back to the model defaults;
* :func:`abilene` loads the vendored Abilene (Internet2) backbone — the
  11-PoP / 14-link reference WAN every NFV placement paper evaluates on
  — with link latencies set to geographic propagation delays.

Vendored fixtures live in ``repro/topology/data/``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

import networkx as nx

from repro.exceptions import ValidationError
from repro.topology.graph import (
    DEFAULT_LINK_BANDWIDTH,
    DEFAULT_LINK_LATENCY,
    DatacenterTopology,
)

#: Directory of vendored topology fixtures.
DATA_DIR = Path(__file__).resolve().parent / "data"


def load_graphml(
    path: Union[str, Path],
    name: Optional[str] = None,
    default_capacity: float = 1000.0,
    default_latency: float = DEFAULT_LINK_LATENCY,
    default_bandwidth: float = DEFAULT_LINK_BANDWIDTH,
) -> DatacenterTopology:
    """Load a GraphML file as a :class:`DatacenterTopology`.

    Parameters
    ----------
    path:
        The GraphML file.
    name:
        Topology name; defaults to the graph's own name or the file stem.
    default_capacity:
        ``A_v`` for compute nodes whose file carries no ``capacity``
        attribute (foreign files where every node is placeable).
    default_latency / default_bandwidth:
        Fallbacks for links without ``latency``/``bandwidth`` attributes.

    Notes
    -----
    Classification: a node with ``kind == "switch"`` is a switch; a node
    with ``kind == "compute"``, a positive ``capacity``, or no ``kind``
    at all is a compute node.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"no such GraphML file: {str(path)!r}")
    graph = nx.read_graphml(str(path))
    topo = DatacenterTopology(
        name=name or graph.graph.get("name") or path.stem
    )
    for key, data in graph.nodes(data=True):
        kind = data.get("kind")
        if kind == "switch":
            topo.add_switch(str(key))
        else:
            capacity = data.get("capacity")
            if capacity is None:
                capacity = default_capacity
            topo.add_compute_node(str(key), float(capacity))
    for a, b, data in graph.edges(data=True):
        topo.add_link(
            str(a),
            str(b),
            latency=float(data.get("latency", default_latency)),
            bandwidth=float(data.get("bandwidth", default_bandwidth)),
        )
    topo.validate()
    return topo


def abilene(
    capacity: Optional[float] = None,
    bandwidth: Optional[float] = None,
) -> DatacenterTopology:
    """The vendored Abilene (Internet2) backbone fixture.

    11 PoPs, 14 OC-192 links; latencies are geographic propagation
    delays (seconds), capacities and bandwidths are the abstract units
    the rest of the model uses.

    Parameters
    ----------
    capacity:
        Override every PoP's compute capacity.
    bandwidth:
        Override every link's bandwidth (the knob ``topology_compare``
        turns to create contention).
    """
    topo = load_graphml(DATA_DIR / "abilene.graphml", name="abilene")
    if capacity is None and bandwidth is None:
        return topo
    rebuilt = DatacenterTopology(name=topo.name)
    for node in topo.compute_nodes():
        rebuilt.add_compute_node(
            node.key, capacity if capacity is not None else node.capacity
        )
    for switch in topo.switches():
        rebuilt.add_switch(switch.key)
    for a, b, latency, bw in topo.links():
        rebuilt.add_link(
            a,
            b,
            latency=latency,
            bandwidth=bandwidth if bandwidth is not None else bw,
        )
    rebuilt.validate()
    return rebuilt
