"""Datacenter network topologies.

The paper models the datacenter as a connected graph ``G = (V, E)`` of
computing nodes joined through switch nodes, assumes switch capacity and
bandwidth are plentiful, and charges a flat latency ``L`` (propagation +
transmission) per inter-node hop (Eq. 16).  This package provides:

* :mod:`repro.topology.graph` — the core :class:`DatacenterTopology`
  (compute nodes with capacities, switches, weighted links).
* :mod:`repro.topology.arrays` — the array-native view: all-pairs
  shortest-path latency/hop matrices, the link index, and the path-link
  CSR the vectorized evaluation and bandwidth accounting gather from
  (see ``docs/TOPOLOGY.md``).
* :mod:`repro.topology.network` — per-link bandwidth accounting
  (:class:`NetworkModel`): routed chain flows, residual fit checks for
  the solvers, oversubscription diagnostics.
* :mod:`repro.topology.fattree` — k-ary fat-tree generator.
* :mod:`repro.topology.leafspine` — leaf-spine generator.
* :mod:`repro.topology.random_topology` — SNDlib-style random connected
  graphs (the paper's 4-50 node topologies, substituted per DESIGN.md).
* :mod:`repro.topology.routing` — scalar shortest-path queries over the
  precomputed arrays (bounded path cache).
* :mod:`repro.topology.io` — GraphML loading plus the vendored
  Abilene (Internet2) reference WAN.
"""

from repro.topology.arrays import TopologyArrays
from repro.topology.fattree import fat_tree
from repro.topology.graph import ComputeNode, DatacenterTopology, Switch
from repro.topology.io import abilene, load_graphml
from repro.topology.leafspine import leaf_spine
from repro.topology.network import NetworkModel
from repro.topology.random_topology import random_datacenter
from repro.topology.routing import Router

__all__ = [
    "DatacenterTopology",
    "ComputeNode",
    "Switch",
    "TopologyArrays",
    "NetworkModel",
    "fat_tree",
    "leaf_spine",
    "random_datacenter",
    "Router",
    "abilene",
    "load_graphml",
]
