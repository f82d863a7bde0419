"""Per-link bandwidth accounting — the network-aware constraint layer.

The paper assumes link bandwidth is plentiful; B-JointSP's overlay/
edge/flow model (and every real fabric) does not.  This module adds the
missing constraint as pure array state:

* **Traffic matrix** — every adjacent chain pair ``(f, g)`` with
  ``f != g`` carries the summed effective rate ``lambda_r / P_r`` of the
  requests whose chains traverse ``f -> g`` (the same equivalent-rate
  convention as Eq. (7); for placement-only problems without requests,
  each chain contributes a unit flow).  Aggregated per *unordered* VNF
  pair, because an undirected link carries both directions.
* **Link loads** — placing ``f`` on node ``u`` and ``g`` on ``v`` routes
  the pair's flow over every link of the precomputed shortest path
  ``u -> v`` (:meth:`TopologyArrays.path_link_csr`), so a full load
  recompute and a per-candidate feasibility check are both one
  ``np.bincount`` over gathered link ids.
* **Fit checks** — :meth:`NetworkModel.fits` answers "can VNF ``f`` sit
  on node ``n`` without oversubscribing any link", the bandwidth
  extension of the solvers' Eq. (6) capacity check.  Solvers keep a
  running per-link load vector and apply :meth:`delta_loads` on every
  accepted move, mirroring their O(1) capacity-vector deltas.

``bandwidth=None`` everywhere means "no bandwidth constraint" and leaves
every solver byte-identical to its unconstrained kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ValidationError

#: Slack absorbing float accumulation error in bandwidth comparisons
#: (the Eq. (6) convention, applied to links).
BANDWIDTH_EPS = 1e-9


def _topology_arrays(topology):
    """Accept a ``DatacenterTopology`` or a ``TopologyArrays``."""
    return topology.arrays() if hasattr(topology, "arrays") else topology


@dataclass
class NetworkModel:
    """Routed-flow bandwidth state for one scenario on one fabric."""

    #: The fabric's array view.
    topo: object
    #: Scenario node index -> compute index in ``topo``.
    node_compute: np.ndarray
    #: Scenario node keys (index-aligned with ``node_compute``).
    node_keys: Tuple[Hashable, ...]
    #: VNF names (index space of all ``vnf`` columns below).
    vnf_names: Tuple[str, ...]
    #: Per-link bandwidth capacity (length ``topo.num_links``).
    bandwidth: np.ndarray
    #: Unordered VNF pair traffic: ``pair_a[i] < pair_b[i]`` with
    #: aggregated flow ``pair_flow[i]``.
    pair_a: np.ndarray
    pair_b: np.ndarray
    pair_flow: np.ndarray
    #: CSR over VNFs: incident pairs of each VNF (peer + flow).
    vnf_ptr: np.ndarray
    vnf_peer: np.ndarray
    vnf_flow: np.ndarray
    #: Cached ``bandwidth + BANDWIDTH_EPS`` comparison threshold.
    _slack: np.ndarray = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        topology,
        vnf_names: Sequence[str],
        node_keys: Sequence[Hashable],
        chain_flows: Iterable[Tuple[Sequence[str], float]],
        bandwidth: Union[None, float, Sequence[float]] = None,
    ) -> "NetworkModel":
        """Assemble the model from chains annotated with flow rates.

        Parameters
        ----------
        topology:
            A :class:`DatacenterTopology` or its ``TopologyArrays``.
        vnf_names:
            The scenario's VNF index space.
        node_keys:
            The scenario's placement-node keys; each must be a compute
            node of the topology.
        chain_flows:
            ``(vnf_name_sequence, flow)`` per chain/request; adjacent
            distinct pairs accumulate ``flow`` on their unordered pair.
        bandwidth:
            ``None`` uses the topology's per-link bandwidth column, a
            scalar applies uniformly, a sequence gives per-link values
            in link-id order.
        """
        topo = _topology_arrays(topology)
        node_compute = np.empty(len(node_keys), dtype=np.int64)
        for i, key in enumerate(node_keys):
            ci = topo.compute_index.get(key)
            if ci is None:
                ci = topo.compute_index.get(str(key))
            if ci is None:
                raise ValidationError(
                    f"placement node {key!r} is not a compute node of "
                    f"the topology"
                )
            node_compute[i] = ci

        if bandwidth is None:
            bw = topo.link_bandwidth.astype(np.float64, copy=True)
        elif np.isscalar(bandwidth):
            bw = np.full(topo.num_links, float(bandwidth))
        else:
            bw = np.asarray(bandwidth, dtype=np.float64).copy()
            if bw.shape != (topo.num_links,):
                raise ValidationError(
                    f"expected {topo.num_links} per-link bandwidths, "
                    f"got shape {bw.shape}"
                )
        if (bw <= 0.0).any():
            raise ValidationError("link bandwidths must be positive")

        vnf_index = {name: i for i, name in enumerate(vnf_names)}
        a_list, b_list, flow_list = [], [], []
        for chain, flow in chain_flows:
            names = list(chain)
            for x, y in zip(names[:-1], names[1:]):
                if x == y:
                    continue
                fx = vnf_index.get(x)
                fy = vnf_index.get(y)
                if fx is None or fy is None:
                    raise ValidationError(
                        f"chain references unknown VNF "
                        f"{(x if fx is None else y)!r}"
                    )
                a_list.append(min(fx, fy))
                b_list.append(max(fx, fy))
                flow_list.append(float(flow))

        num_vnfs = len(vnf_names)
        if a_list:
            codes = (
                np.asarray(a_list, dtype=np.int64) * np.int64(num_vnfs)
                + np.asarray(b_list, dtype=np.int64)
            )
            uniq, inverse = np.unique(codes, return_inverse=True)
            pair_flow = np.bincount(
                inverse,
                weights=np.asarray(flow_list, dtype=np.float64),
                minlength=len(uniq),
            )
            pair_a = uniq // np.int64(num_vnfs)
            pair_b = uniq % np.int64(num_vnfs)
        else:
            pair_a = np.zeros(0, dtype=np.int64)
            pair_b = np.zeros(0, dtype=np.int64)
            pair_flow = np.zeros(0, dtype=np.float64)

        # Per-VNF CSR: each pair appears under both endpoints.
        owners = np.concatenate([pair_a, pair_b])
        peers = np.concatenate([pair_b, pair_a])
        flows = np.concatenate([pair_flow, pair_flow])
        order = np.argsort(owners, kind="stable")
        vnf_ptr = np.zeros(num_vnfs + 1, dtype=np.int64)
        np.cumsum(np.bincount(owners, minlength=num_vnfs), out=vnf_ptr[1:])

        return cls(
            topo=topo,
            node_compute=node_compute,
            node_keys=tuple(node_keys),
            vnf_names=tuple(vnf_names),
            bandwidth=bw,
            pair_a=pair_a,
            pair_b=pair_b,
            pair_flow=pair_flow,
            vnf_ptr=vnf_ptr,
            vnf_peer=peers[order],
            vnf_flow=flows[order],
            _slack=bw + BANDWIDTH_EPS,
        )

    @classmethod
    def for_deployment(
        cls,
        state,
        topology,
        bandwidth: Union[None, float, Sequence[float]] = None,
    ) -> "NetworkModel":
        """Model for a :class:`DeploymentState`: request-rate flows."""
        arrays = state.arrays()
        return cls.build(
            topology,
            arrays.vnf_names,
            arrays.node_keys,
            (
                (list(r.chain), float(rate))
                for r, rate in zip(state.requests, arrays.eff_rate)
            ),
            bandwidth=bandwidth,
        )

    @classmethod
    def for_problem(
        cls,
        problem,
        topology,
        requests: Optional[Sequence] = None,
        bandwidth: Union[None, float, Sequence[float]] = None,
    ) -> "NetworkModel":
        """Model for a :class:`PlacementProblem`.

        With ``requests`` the flows are their effective rates; without,
        every problem chain carries a unit flow (relative contention
        only — the right scale for capacity-free feasibility shaping).
        """
        names = tuple(f.name for f in problem.vnfs)
        node_keys = tuple(problem.capacities.keys())
        if requests is not None:
            chain_flows = [
                (list(r.chain), float(r.effective_rate)) for r in requests
            ]
        else:
            chain_flows = [(list(chain), 1.0) for chain in problem.chains]
        return cls.build(
            topology, names, node_keys, chain_flows, bandwidth=bandwidth
        )

    # ------------------------------------------------------------------
    # Dimensions
    # ------------------------------------------------------------------
    @property
    def num_links(self) -> int:
        return int(self.bandwidth.shape[0])

    # ------------------------------------------------------------------
    # Load accounting
    # ------------------------------------------------------------------
    def _pair_links(self, a: np.ndarray, b: np.ndarray):
        """Link ids of the canonical routes between compute-index pairs.

        Shortest-path ties are broken per Dijkstra source row, so the
        materialized route ``a -> b`` can differ from ``b -> a``.  Flows
        are undirected, and every accounting call must charge one and
        the same route per *unordered* node pair — otherwise an
        incremental retract from the other endpoint would drain
        different links than the add filled.  Canonical direction:
        ``min(a, b) -> max(a, b)``.
        """
        return self.topo.links_on_pairs(
            np.minimum(a, b), np.maximum(a, b)
        )

    def link_loads(self, placement_vec: np.ndarray) -> np.ndarray:
        """Routed flow per link for a full placement (index vector).

        Unplaced VNFs (``-1``) and colocated pairs contribute nothing.
        """
        u = placement_vec[self.pair_a]
        v = placement_vec[self.pair_b]
        active = (u >= 0) & (v >= 0) & (u != v)
        if not active.any():
            return np.zeros(self.num_links, dtype=np.float64)
        src = self.node_compute[u[active]]
        dst = self.node_compute[v[active]]
        ids, owner = self._pair_links(src, dst)
        return np.bincount(
            ids,
            weights=self.pair_flow[active][owner],
            minlength=self.num_links,
        )

    def delta_loads(
        self, fi: int, at_node: int, placement_vec: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Link ids + flows for VNF ``fi``'s pairs if it sat on ``at_node``.

        Only pairs whose peer is placed on a *different* node route any
        flow.  Feed the result to ``np.add.at`` (commit) or
        :meth:`fits` (check).
        """
        lo, hi = int(self.vnf_ptr[fi]), int(self.vnf_ptr[fi + 1])
        if lo == hi:
            empty = np.zeros(0, dtype=np.int64)
            return empty, np.zeros(0, dtype=np.float64)
        peer_nodes = placement_vec[self.vnf_peer[lo:hi]]
        flows = self.vnf_flow[lo:hi]
        mask = (peer_nodes >= 0) & (peer_nodes != at_node)
        if not mask.any():
            empty = np.zeros(0, dtype=np.int64)
            return empty, np.zeros(0, dtype=np.float64)
        src = np.full(
            int(mask.sum()), self.node_compute[at_node], dtype=np.int64
        )
        dst = self.node_compute[peer_nodes[mask]]
        ids, owner = self._pair_links(src, dst)
        return ids, flows[mask][owner]

    def fits(
        self,
        fi: int,
        at_node: int,
        placement_vec: np.ndarray,
        loads: np.ndarray,
    ) -> bool:
        """Whether placing ``fi`` on ``at_node`` oversubscribes no link.

        ``loads`` must not yet include ``fi``'s own contributions (a
        relocate check removes them first — see :meth:`delta_loads`).
        """
        ids, flows = self.delta_loads(fi, at_node, placement_vec)
        if not len(ids):
            return True
        add = np.bincount(ids, weights=flows, minlength=self.num_links)
        touched = np.unique(ids)
        return bool(
            (loads[touched] + add[touched] <= self._slack[touched]).all()
        )

    def add_flows(
        self,
        fi: int,
        at_node: int,
        placement_vec: np.ndarray,
        loads: np.ndarray,
        sign: float = 1.0,
    ) -> None:
        """Commit (or with ``sign=-1`` retract) ``fi``'s routed flows."""
        ids, flows = self.delta_loads(fi, at_node, placement_vec)
        if len(ids):
            np.add.at(loads, ids, sign * flows)

    # ------------------------------------------------------------------
    # Per-request chain flows (incremental admit/depart)
    # ------------------------------------------------------------------
    def chain_link_flows(
        self,
        vnf_idx_seq: np.ndarray,
        placement_vec: np.ndarray,
        flow: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Link ids + flows of ONE chain routed on a placement.

        ``vnf_idx_seq`` is the chain as VNF indices (one request's
        ``chain_vnf`` slice).  Every adjacent distinct pair placed on
        distinct nodes charges ``flow`` along its canonical route —
        the single-request slice of the aggregate traffic matrix, so an
        engine can admit/depart requests against a running ``loads``
        vector without rebuilding :attr:`pair_flow`.
        """
        seq = np.asarray(vnf_idx_seq, dtype=np.int64)
        empty = np.zeros(0, dtype=np.int64)
        if len(seq) < 2:
            return empty, np.zeros(0, dtype=np.float64)
        a = seq[:-1]
        b = seq[1:]
        u = placement_vec[a]
        v = placement_vec[b]
        mask = (a != b) & (u >= 0) & (v >= 0) & (u != v)
        if not mask.any():
            return empty, np.zeros(0, dtype=np.float64)
        src = self.node_compute[u[mask]]
        dst = self.node_compute[v[mask]]
        ids, owner = self._pair_links(src, dst)
        return ids, np.full(len(ids), float(flow), dtype=np.float64)

    def chain_fits(
        self,
        vnf_idx_seq: np.ndarray,
        placement_vec: np.ndarray,
        loads: np.ndarray,
        flow: float,
    ) -> bool:
        """Whether routing one chain's ``flow`` oversubscribes no link."""
        ids, flows = self.chain_link_flows(vnf_idx_seq, placement_vec, flow)
        if not len(ids):
            return True
        add = np.bincount(ids, weights=flows, minlength=self.num_links)
        touched = np.unique(ids)
        return bool(
            (loads[touched] + add[touched] <= self._slack[touched]).all()
        )

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def oversubscribed_links(
        self, placement_vec: np.ndarray
    ) -> np.ndarray:
        """Indices of links whose routed load exceeds their bandwidth."""
        loads = self.link_loads(placement_vec)
        return np.nonzero(loads > self._slack)[0]

    def max_link_utilization(self, placement_vec: np.ndarray) -> float:
        """Peak routed-load / bandwidth over all links."""
        loads = self.link_loads(placement_vec)
        if not len(loads):
            return 0.0
        return float((loads / self.bandwidth).max())

    def placement_vector(
        self, placement: Mapping[str, Hashable]
    ) -> np.ndarray:
        """Scenario-node index per VNF (``-1`` unplaced), for callers
        holding a ``vnf_name -> node_key`` dict."""
        node_index = {key: i for i, key in enumerate(self.node_keys)}
        vec = np.empty(len(self.vnf_names), dtype=np.int64)
        for i, name in enumerate(self.vnf_names):
            node = placement.get(name)
            if node is None:
                vec[i] = -1
            else:
                idx = node_index.get(node)
                if idx is None:
                    raise ValidationError(
                        f"placement node {node!r} unknown to the network "
                        f"model"
                    )
                vec[i] = idx
        return vec
