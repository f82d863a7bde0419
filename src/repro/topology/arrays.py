"""Array-native topology view — dense all-pairs shortest paths + links.

The scalar :class:`~repro.topology.routing.Router` answers one
``(source, target)`` query at a time through networkx Dijkstra runs; the
evaluation and solver hot paths need *every* compute-pair latency as a
gatherable array.  :class:`TopologyArrays` materializes, once per
topology:

* ``dist``/``pred`` — dense ``(V, V)`` shortest-path latency and
  predecessor matrices over **all** vertices (compute nodes and
  switches), computed by one batched Dijkstra sweep
  (:func:`scipy.sparse.csgraph.dijkstra` when scipy is available, a
  heapq sweep otherwise — identical distances either way);
* ``latency``/``hops`` — the compute-node submatrices Eq. (16) consumes:
  ``latency[i, j]`` is the shortest-path latency between compute nodes
  ``i`` and ``j`` (float64, so gathers match the scalar Dijkstra sums
  bit for bit), ``hops[i, j]`` the link count of the materialized route;
* a **link index** — ``link_u``/``link_v``/``link_latency``/
  ``link_bandwidth`` columns in ``graph.edges`` order plus a CSR
  adjacency, giving every link a stable integer id that bandwidth
  accounting can ``bincount`` over;
* a **path-link CSR** over compute pairs — ``path_links[path_ptr[p] :
  path_ptr[p + 1]]`` lists the link ids on the routed path of compute
  pair ``p = i * C + j``, which turns "charge this flow on every link of
  its route" into one ``np.repeat`` + ``np.bincount``.

Routes are unique per (source, target) — whatever tie-break the Dijkstra
sweep applied — so link-load accounting is deterministic.  Latency
gathers are tie-independent (all shortest paths cost the same); hop
counts and link loads describe the materialized route.

Build cost is ``O(V * E log V)`` time and ``O(V^2)`` memory; the repo's
fabrics (tens to a few thousand vertices) fit comfortably.  The arrays
are immutable snapshots: :meth:`DatacenterTopology.arrays
<repro.topology.graph.DatacenterTopology.arrays>` caches one per
topology and invalidates it on mutation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.exceptions import ValidationError

try:  # pragma: no cover - exercised implicitly by every build
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra

    _HAVE_SCIPY = True
except ImportError:  # pragma: no cover - scipy is in the default image
    _HAVE_SCIPY = False

#: ``pred`` sentinel for "no predecessor" (source itself); matches
#: :func:`scipy.sparse.csgraph.dijkstra`.
NO_PREDECESSOR = -9999


@dataclass
class TopologyArrays:
    """Immutable columnar snapshot of one :class:`DatacenterTopology`."""

    # --- vertex index (all vertices, graph insertion order) ----------
    vertex_keys: Tuple[str, ...]
    vertex_index: Dict[str, int]
    #: True per vertex that is a compute node.
    is_compute: np.ndarray

    # --- compute-node index (insertion order, = compute_nodes()) -----
    compute_keys: Tuple[str, ...]
    compute_index: Dict[str, int]
    #: Vertex index of each compute node.
    compute_vertex: np.ndarray
    #: ``A_v`` per compute node.
    capacity: np.ndarray

    # --- link columns (graph.edges order; one id per undirected link) -
    link_u: np.ndarray
    link_v: np.ndarray
    link_latency: np.ndarray
    link_bandwidth: np.ndarray

    # --- CSR adjacency over vertices (both directions per link) ------
    adj_ptr: np.ndarray
    adj_vertex: np.ndarray
    adj_link: np.ndarray

    # --- all-pairs shortest paths over vertices -----------------------
    #: ``(V, V)`` float64 shortest-path latency.
    dist: np.ndarray
    #: ``(V, V)`` int32 predecessor matrix (``pred[s, t]`` is the vertex
    #: before ``t`` on the route from ``s``; ``NO_PREDECESSOR`` at the
    #: source).
    pred: np.ndarray

    # --- compute-pair views (what Eq. (16) gathers) -------------------
    #: ``(C, C)`` float64 compute-to-compute shortest-path latency.
    latency: np.ndarray
    #: ``(C, C)`` int32 link count of the materialized route.
    hops: np.ndarray

    # --- path-link CSR over compute pairs (lazily built) --------------
    _path_csr: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        default=None, repr=False
    )
    #: Vertex-level hop matrix (the compute ``hops`` is its submatrix);
    #: kept for scalar Router queries that may touch switches.
    _hops_all: Optional[np.ndarray] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # Builder
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, topology) -> "TopologyArrays":
        """Materialize the arrays from a validated topology."""
        topology.validate()
        graph = topology.graph
        vertex_keys = tuple(graph.nodes)
        vertex_index = {key: i for i, key in enumerate(vertex_keys)}
        num_vertices = len(vertex_keys)
        compute_keys = tuple(n.key for n in topology.compute_nodes())
        compute_index = {key: i for i, key in enumerate(compute_keys)}
        compute_vertex = np.array(
            [vertex_index[key] for key in compute_keys], dtype=np.int64
        )
        is_compute = np.zeros(num_vertices, dtype=bool)
        is_compute[compute_vertex] = True
        capacity = np.array(
            [n.capacity for n in topology.compute_nodes()], dtype=np.float64
        )

        edges = list(graph.edges(data=True))
        link_u = np.array(
            [vertex_index[a] for a, _, _ in edges], dtype=np.int64
        )
        link_v = np.array(
            [vertex_index[b] for _, b, _ in edges], dtype=np.int64
        )
        link_latency = np.array(
            [data["latency"] for _, _, data in edges], dtype=np.float64
        )
        link_bandwidth = np.array(
            [data["bandwidth"] for _, _, data in edges], dtype=np.float64
        )

        # CSR adjacency: every link appears in both endpoint rows.
        ends = np.concatenate([link_u, link_v])
        other = np.concatenate([link_v, link_u])
        link_ids = np.concatenate(
            [np.arange(len(edges), dtype=np.int64)] * 2
        ) if edges else np.zeros(0, dtype=np.int64)
        order = np.argsort(ends, kind="stable")
        adj_ptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(ends, minlength=num_vertices), out=adj_ptr[1:]
        )
        adj_vertex = other[order]
        adj_link = link_ids[order]

        dist, pred = _all_pairs_dijkstra(
            num_vertices, link_u, link_v, link_latency
        )

        hops_all = _hop_counts(pred)
        latency = dist[np.ix_(compute_vertex, compute_vertex)].copy()
        hops = hops_all[np.ix_(compute_vertex, compute_vertex)].copy()

        return cls(
            vertex_keys=vertex_keys,
            vertex_index=vertex_index,
            is_compute=is_compute,
            compute_keys=compute_keys,
            compute_index=compute_index,
            compute_vertex=compute_vertex,
            capacity=capacity,
            link_u=link_u,
            link_v=link_v,
            link_latency=link_latency,
            link_bandwidth=link_bandwidth,
            adj_ptr=adj_ptr,
            adj_vertex=adj_vertex,
            adj_link=adj_link,
            dist=dist,
            pred=pred,
            latency=latency,
            hops=hops,
            _hops_all=hops_all,
        )

    # ------------------------------------------------------------------
    # Dimensions
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.vertex_keys)

    @property
    def num_compute(self) -> int:
        return len(self.compute_keys)

    @property
    def num_links(self) -> int:
        return int(self.link_u.shape[0])

    # ------------------------------------------------------------------
    # Path reconstruction
    # ------------------------------------------------------------------
    def vertex_path(self, source: int, target: int) -> np.ndarray:
        """Vertex indices along the route ``source -> target``.

        Raises
        ------
        ValidationError
            If ``target`` is unreachable from ``source``.
        """
        if source == target:
            return np.array([source], dtype=np.int64)
        if not np.isfinite(self.dist[source, target]):
            raise ValidationError(
                f"no path from {self.vertex_keys[source]!r} to "
                f"{self.vertex_keys[target]!r}"
            )
        out = [target]
        cur = target
        while True:
            cur = int(self.pred[source, cur])
            if cur == NO_PREDECESSOR:
                break
            out.append(cur)
        return np.array(out[::-1], dtype=np.int64)

    def path_link_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR of link ids per compute pair (built once, cached).

        Returns ``(ptr, links)`` where
        ``links[ptr[i * C + j] : ptr[i * C + j + 1]]`` are the link ids
        on the route from compute node ``i`` to compute node ``j`` (empty
        for ``i == j``).  Total size is ``sum(hops)``.
        """
        if self._path_csr is not None:
            return self._path_csr
        C = self.num_compute
        num_pairs = C * C
        lens = self.hops.reshape(-1).astype(np.int64)
        ptr = np.zeros(num_pairs + 1, dtype=np.int64)
        np.cumsum(lens, out=ptr[1:])
        links = np.empty(int(ptr[-1]), dtype=np.int64)

        # Walk every pair's predecessor chain simultaneously, one hop
        # level per iteration: at each step the current frontier vertex
        # steps to its predecessor and the traversed link is recorded
        # back-to-front in the pair's CSR slot.
        src = np.repeat(self.compute_vertex, C)
        cur = np.tile(self.compute_vertex, C)
        remaining = lens.copy()
        active = np.nonzero(remaining > 0)[0]
        while len(active):
            step = self.pred[src[active], cur[active]]
            remaining[active] -= 1
            slot = ptr[active] + remaining[active]
            links[slot] = self._edge_ids(step, cur[active])
            cur[active] = step
            active = active[remaining[active] > 0]
        self._path_csr = (ptr, links)
        return self._path_csr

    def _edge_ids(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorized link-id lookup for direct links ``a[i] - b[i]``."""
        if not hasattr(self, "_edge_code_sorted"):
            V = np.int64(self.num_vertices)
            lo = np.minimum(self.link_u, self.link_v)
            hi = np.maximum(self.link_u, self.link_v)
            codes = lo * V + hi
            order = np.argsort(codes, kind="stable")
            self._edge_code_sorted = codes[order]
            self._edge_code_order = order
        V = np.int64(self.num_vertices)
        codes = np.minimum(a, b) * V + np.maximum(a, b)
        pos = np.searchsorted(self._edge_code_sorted, codes)
        return self._edge_code_order[pos]

    # ------------------------------------------------------------------
    # Gathers (the hot-path API)
    # ------------------------------------------------------------------
    def links_on_pairs(
        self, src: np.ndarray, dst: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated link ids of the routes ``src[i] -> dst[i]``.

        Returns ``(link_ids, pair_of_link)``: for each traversed link,
        its id and the index ``i`` of the pair that traverses it.  Feed
        ``np.bincount(link_ids, weights=flow[pair_of_link])`` to charge
        per-pair flows onto links.
        """
        ptr, links = self.path_link_csr()
        pair = src * np.int64(self.num_compute) + dst
        starts = ptr[pair]
        lens = ptr[pair + 1] - starts
        total = int(lens.sum())
        if not total:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        # Standard CSR multi-slice gather: output position t of slice i
        # reads links[starts[i] + (t - out_start[i])].
        out_start = np.cumsum(lens) - lens
        idx = np.arange(total, dtype=np.int64) + np.repeat(
            starts - out_start, lens
        )
        pair_of_link = np.repeat(
            np.arange(len(pair), dtype=np.int64), lens
        )
        return links[idx], pair_of_link

    def mean_compute_latency(self) -> float:
        """Mean shortest-path latency over distinct compute pairs."""
        C = self.num_compute
        if C < 2:
            return 0.0
        total = float(self.latency.sum())  # diagonal is zero
        return total / (C * (C - 1))


def _all_pairs_dijkstra(
    num_vertices: int,
    link_u: np.ndarray,
    link_v: np.ndarray,
    link_latency: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Dense APSP ``(dist, pred)`` over an undirected weighted graph."""
    if _HAVE_SCIPY:
        rows = np.concatenate([link_u, link_v])
        cols = np.concatenate([link_v, link_u])
        data = np.concatenate([link_latency, link_latency])
        csgraph = coo_matrix(
            (data, (rows, cols)), shape=(num_vertices, num_vertices)
        ).tocsr()
        dist, pred = _scipy_dijkstra(
            csgraph, directed=True, return_predecessors=True
        )
        return dist, pred.astype(np.int32, copy=False)
    return _heapq_apsp(num_vertices, link_u, link_v, link_latency)


def _heapq_apsp(
    num_vertices: int,
    link_u: np.ndarray,
    link_v: np.ndarray,
    link_latency: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:  # pragma: no cover - scipy fallback
    """Pure-python Dijkstra sweep (same contract as the scipy path)."""
    adjacency: list = [[] for _ in range(num_vertices)]
    for u, v, w in zip(
        link_u.tolist(), link_v.tolist(), link_latency.tolist()
    ):
        adjacency[u].append((v, w))
        adjacency[v].append((u, w))
    dist = np.full((num_vertices, num_vertices), np.inf)
    pred = np.full((num_vertices, num_vertices), NO_PREDECESSOR, np.int32)
    for s in range(num_vertices):
        d = dist[s]
        p = pred[s]
        d[s] = 0.0
        heap = [(0.0, s)]
        done = np.zeros(num_vertices, dtype=bool)
        while heap:
            du, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            for v, w in adjacency[u]:
                nd = du + w
                if nd < d[v]:
                    d[v] = nd
                    p[v] = u
                    heapq.heappush(heap, (nd, v))
    return dist, pred


def _hop_counts(pred: np.ndarray) -> np.ndarray:
    """Link counts of every route, from the predecessor matrix.

    One vectorized predecessor step per hop level: entries still short
    of their source step to their predecessor and increment.  Iteration
    count equals the routed diameter.
    """
    num_vertices = pred.shape[0]
    hops = np.zeros((num_vertices, num_vertices), dtype=np.int32)
    row = np.arange(num_vertices)[:, None]
    cur = np.broadcast_to(
        np.arange(num_vertices), (num_vertices, num_vertices)
    ).copy()
    while True:
        step = pred[row, cur]
        live = step != NO_PREDECESSOR
        if not live.any():
            break
        hops[live] += 1
        cur = np.where(live, step, cur)
    return hops
