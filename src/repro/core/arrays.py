"""Columnar scenario representation — the vectorized evaluation core.

Every metric in the paper's evaluation pipeline (Eqs. 7, 12-16) reduces
to segment sums over three entity tables: VNFs ``F`` (``M_f``, ``D_f``,
``mu_f``), compute nodes ``V`` (``A_v``) and requests ``R``
(``lambda_r``, ``P_r``).  :class:`ScenarioArrays` materializes those
tables once as numpy columns — plus a CSR view of the request chains
(the ``U_r^f`` incidence, in chain order) and a global service-instance
index — so the hot metric paths become ``np.bincount`` / gather
operations instead of per-object Python loops.

Caching contract
----------------
The *static* columns depend only on the entity sets, which are immutable
on every owning object (``PlacementProblem`` and ``SchedulingProblem``
are frozen; ``DeploymentState.vnfs``/``requests``/``node_capacities``
are never replaced in-repo).  Owners therefore build a
:class:`ScenarioArrays` lazily on first use and cache it forever.

One exception: the *request rows* (and their chain CSR) support
in-place mutation through :meth:`ScenarioArrays.append_requests` /
:meth:`ScenarioArrays.remove_requests` — the substrate of the
incremental :class:`~repro.core.incremental.DeploymentEngine`, where
the request set churns while VNFs and nodes stay fixed.  Appends write
into amortized-doubling backing buffers (the public columns are slices
of them), removes compact the surviving rows down with C-level array
moves, and both invalidate the two request-derived CSR caches
(``vnf_requests`` / ``vnf_chain_neighbors``) so the next query rebuilds
them.  The id -> row map of a mutated scenario is a :class:`RowIndex`,
which locates rows by arrival sequence, so a removal never renumbers
the later ids.  A mutated instance is column-for-column identical
(exact, not approximate) to a from-scratch :meth:`ScenarioArrays.build`
over the surviving request sequence — pinned by
``tests/core/test_arrays_mutation.py``.  The VNF/node columns and
their caches (``node_str_rank``, topology attachment) remain immutable
forever.

The *dynamic* decision variables — the ``vnf_name -> node`` placement
dict and the ``(request_id, vnf_name) -> k`` schedule dict — are
mutable (e.g. :func:`repro.core.local_search.refine_placement` edits the
placement in place).  They are converted to index vectors per call:

* :meth:`ScenarioArrays.placement_vector` is O(|F|) — cheap enough to
  rebuild on every metric evaluation, so placement mutation needs no
  invalidation at all.  Its checked forms,
  :meth:`ScenarioArrays.checked_placement_vector` (every chain walkable)
  and :meth:`ScenarioArrays.complete_placement_vector` (every VNF placed,
  Eq. 2), are the one place a bad placement is turned into a
  ``ValidationError``; :meth:`ScenarioArrays.check_node_capacity` adds
  Eq. (6).
* :meth:`ScenarioArrays.schedule_arrays` is O(|z|); owners that hold a
  schedule (``DeploymentState``) cache the result keyed on the dict's
  entries.  :meth:`ScenarioArrays.check_schedule` checks Eq. (5) on the
  index form.

Adding a new vectorized metric (see ``docs/ARRAYS_CORE.md``) is: fetch
the owner's cached ``ScenarioArrays``, convert the decision dicts with
the checked methods above, then express the metric as numpy reductions
over the columns — there is no scalar second path.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import compress, count
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.dtypes import ensure_index_capacity, resolve_policy
from repro.exceptions import SchedulingError, ValidationError
from repro.queueing.mm1 import mm1_mean_response_times, mm1_utilizations


class RowIndex(Mapping):
    """``request_id -> row`` of a mutable request table.

    Each id keeps the arrival sequence number it was given when its row
    joined.  Rows only join at the end and leave without reordering, so
    the live sequence numbers, listed in row order, stay ascending and
    an id's row is the bisect position of its number: O(log n) per
    lookup, and a removal drops list slots (one ``del``, or one pass
    for several rows) instead of renumbering every later id.  ``get``,
    ``[]``, ``in``, ``len``, iteration (row order) and ``dict(...)``
    equal the plain dict :meth:`ScenarioArrays.build` makes over the
    same rows.
    """

    __slots__ = ("_seq", "_order", "_next")

    def __init__(self, request_ids: Iterable[str] = ()) -> None:
        #: id -> arrival sequence number (insertion order = row order).
        self._seq: Dict[str, int] = dict(zip(request_ids, count()))
        #: Live sequence numbers in row order (ascending).
        self._order = list(range(len(self._seq)))
        self._next = len(self._seq)

    def __getitem__(self, request_id) -> int:
        return bisect_left(self._order, self._seq[request_id])

    def get(self, request_id, default=None):
        seq = self._seq.get(request_id)
        return default if seq is None else bisect_left(self._order, seq)

    def __contains__(self, request_id) -> bool:
        return request_id in self._seq

    def __iter__(self):
        return iter(self._seq)

    def __len__(self) -> int:
        return len(self._seq)

    def as_dict(self) -> Dict[str, int]:
        """The plain ``id -> row`` dict (one C-level pass)."""
        return dict(zip(self._seq, range(len(self._seq))))

    def extend(self, request_ids: Sequence[str]) -> None:
        """Register ``request_ids`` as the new last rows, in order."""
        start = self._next
        self._next += len(request_ids)
        self._seq.update(zip(request_ids, range(start, self._next)))
        self._order.extend(range(start, self._next))

    def remove(
        self,
        request_ids: Sequence[str],
        rows: Sequence[int] = (),
        keep: Optional[Sequence[bool]] = None,
    ) -> None:
        """Drop ``request_ids``, which sit at the descending ``rows``;
        given ``keep``, the survivor flag of every row, the rows are
        dropped in one pass instead."""
        for rid in request_ids:
            del self._seq[rid]
        if keep is not None:
            self._order[:] = compress(self._order, keep)
        for row in rows:
            del self._order[row]


@dataclass
class ScheduleArrays:
    """Index form of the ``z`` map: one row per (request, VNF) entry.

    ``req``/``vnf``/``k`` hold the request index, VNF index and
    instance-within-VNF index of each schedule entry; ``inst`` is the
    global instance index (``instance_offset[vnf] + k``) used for
    segment sums over all ``sum_f M_f`` service instances.
    """

    req: np.ndarray
    vnf: np.ndarray
    k: np.ndarray
    inst: np.ndarray
    #: Lazily built sort permutation of ``req * F + vnf`` entry codes,
    #: enabling vectorized (request, vnf) -> instance lookups.
    _codes_sorted: Optional[np.ndarray] = field(default=None, repr=False)
    _order: Optional[np.ndarray] = field(default=None, repr=False)

    def __len__(self) -> int:
        return int(self.req.shape[0])

    def sorted_codes(self, num_vnfs: int) -> Tuple[np.ndarray, np.ndarray]:
        """The entry codes ``req * F + vnf`` sorted, with the sort order."""
        if self._codes_sorted is None:
            codes = self.req * np.int64(num_vnfs) + self.vnf
            order = np.argsort(codes, kind="stable")
            self._codes_sorted = codes[order]
            self._order = order
        return self._codes_sorted, self._order


@dataclass
class ScenarioArrays:
    """Columnar view of one scenario's entity tables.

    Attributes mirror the paper's symbols: ``M_f``/``D_f``/``mu_f`` per
    VNF, ``A_v`` per node, ``lambda_r``/``P_r`` and the loss-feedback
    effective rate ``lambda_r / P_r`` per request.  ``chain_req`` /
    ``chain_vnf`` list every (request, chain-position) pair in
    request-major chain order — the CSR row pointers are ``chain_ptr``.
    """

    # --- VNF columns -------------------------------------------------
    vnf_names: Tuple[str, ...]
    vnf_index: Dict[str, int]
    M_f: np.ndarray
    D_f: np.ndarray
    mu_f: np.ndarray
    total_demand_f: np.ndarray
    #: Exclusive prefix sum of ``M_f`` (length ``F + 1``): instance
    #: ``(f, k)`` has global index ``instance_offset[f] + k``.
    instance_offset: np.ndarray
    num_instances: int
    #: Per global instance: owning VNF index and its ``mu_f``.
    inst_vnf: np.ndarray
    mu_inst: np.ndarray

    # --- node columns ------------------------------------------------
    node_keys: Tuple[Hashable, ...]
    node_index: Dict[Hashable, int]
    A_v: np.ndarray

    # --- request columns ---------------------------------------------
    request_ids: Tuple[str, ...]
    request_index: Mapping[str, int]
    lambda_r: np.ndarray
    P_r: np.ndarray
    eff_rate: np.ndarray

    # --- chain incidence (CSR, request-major, chain order) -----------
    chain_req: np.ndarray
    chain_vnf: np.ndarray
    chain_ptr: np.ndarray
    #: VNF name per chain entry (for error reporting; ``chain_vnf`` is
    #: ``-1`` when the name is unknown).
    chain_names: Tuple[str, ...]
    #: True when some chain references a VNF name absent from ``vnfs``
    #: (``chain_vnf`` holds ``-1`` there).  Per-VNF scheduling views
    #: legitimately carry such chains; :meth:`checked_placement_vector`
    #: rejects them before any chain-walking metric runs.
    chain_has_unknown: bool = False

    # --- inverted chain views (static, lazily built) -----------------
    #: Cached ``vnf_requests()`` CSR: (ptr, req) or ``None``.
    _vnf_req_csr: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        default=None, repr=False
    )
    #: Cached ``vnf_chain_neighbors()`` CSR: (ptr, nbr) or ``None``.
    _vnf_nbr_csr: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        default=None, repr=False
    )
    #: Cached ``node_str_rank()`` vector or ``None``.
    _node_str_rank: Optional[np.ndarray] = field(default=None, repr=False)
    #: Cached topology attachment: ``(topology_arrays, node_compute)``
    #: where ``node_compute[i]`` is the compute index of scenario node
    #: ``i`` in that fabric.  Keyed by identity — re-attached when a
    #: different topology is queried.
    _topo_attach: Optional[Tuple[object, np.ndarray]] = field(
        default=None, repr=False
    )

    # --- request-row mutation buffers (``None`` until first mutation) --
    #: Amortized-doubling backing stores; the public request/chain
    #: columns become slices of these after ``_ensure_mutable()``.
    _lambda_buf: Optional[np.ndarray] = field(default=None, repr=False)
    _P_buf: Optional[np.ndarray] = field(default=None, repr=False)
    _eff_buf: Optional[np.ndarray] = field(default=None, repr=False)
    _chain_req_buf: Optional[np.ndarray] = field(default=None, repr=False)
    _chain_vnf_buf: Optional[np.ndarray] = field(default=None, repr=False)
    _chain_ptr_buf: Optional[np.ndarray] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        vnfs: Sequence,
        requests: Sequence,
        node_capacities: Mapping[Hashable, float],
        dtypes=None,
    ) -> "ScenarioArrays":
        """Materialize the static columns from the entity objects.

        ``dtypes`` is an optional
        :class:`~repro.core.dtypes.DtypePolicy`; ``None`` keeps the
        historical ``int64``/``float64`` columns byte-identical.  The
        lean ``int32`` policy is guarded against index overflow at
        construction (see :func:`~repro.core.dtypes.ensure_index_capacity`).
        """
        policy = resolve_policy(dtypes)
        idt = policy.index_dtype
        fdt = policy.float_dtype
        vnf_names = tuple(f.name for f in vnfs)
        vnf_index = {name: i for i, name in enumerate(vnf_names)}
        M_f = np.array([f.num_instances for f in vnfs], dtype=idt)
        D_f = np.array([f.demand_per_instance for f in vnfs], dtype=fdt)
        mu_f = np.array([f.service_rate for f in vnfs], dtype=fdt)
        total_demand_f = np.array(
            [f.total_demand for f in vnfs], dtype=fdt
        )
        instance_offset = np.zeros(len(vnfs) + 1, dtype=idt)
        num_instances = int(np.sum(M_f, dtype=np.int64))
        ensure_index_capacity(num_instances, idt, "service instance table")
        np.cumsum(M_f, out=instance_offset[1:])
        inst_vnf = np.repeat(np.arange(len(vnfs), dtype=idt), M_f)
        mu_inst = mu_f[inst_vnf] if len(vnfs) else np.zeros(0, dtype=fdt)

        node_keys = tuple(node_capacities.keys())
        node_index = {key: i for i, key in enumerate(node_keys)}
        ensure_index_capacity(len(node_keys), idt, "node table")
        A_v = np.array(
            [node_capacities[key] for key in node_keys], dtype=fdt
        )

        request_ids = tuple(r.request_id for r in requests)
        request_index = {rid: i for i, rid in enumerate(request_ids)}
        ensure_index_capacity(len(request_ids), idt, "request table")
        lambda_r = np.array([r.arrival_rate for r in requests], dtype=fdt)
        P_r = np.array(
            [r.delivery_probability for r in requests], dtype=fdt
        )
        # Elementwise division matches the scalar lambda_r / P_r exactly.
        eff_rate = lambda_r / P_r if len(requests) else np.zeros(0, dtype=fdt)

        chain_req_list = []
        chain_vnf_list = []
        chain_name_list = []
        chain_ptr = np.zeros(len(requests) + 1, dtype=idt)
        has_unknown = False
        for i, request in enumerate(requests):
            for name in request.chain:
                idx = vnf_index.get(name, -1)
                if idx < 0:
                    has_unknown = True
                chain_req_list.append(i)
                chain_vnf_list.append(idx)
                chain_name_list.append(name)
            chain_ptr[i + 1] = len(chain_req_list)
        ensure_index_capacity(len(chain_req_list), idt, "chain CSR table")
        chain_req = np.array(chain_req_list, dtype=idt)
        chain_vnf = np.array(chain_vnf_list, dtype=idt)

        return cls(
            vnf_names=vnf_names,
            vnf_index=vnf_index,
            M_f=M_f,
            D_f=D_f,
            mu_f=mu_f,
            total_demand_f=total_demand_f,
            instance_offset=instance_offset,
            num_instances=num_instances,
            inst_vnf=inst_vnf,
            mu_inst=mu_inst,
            node_keys=node_keys,
            node_index=node_index,
            A_v=A_v,
            request_ids=request_ids,
            request_index=request_index,
            lambda_r=lambda_r,
            P_r=P_r,
            eff_rate=eff_rate,
            chain_req=chain_req,
            chain_vnf=chain_vnf,
            chain_ptr=chain_ptr,
            chain_names=tuple(chain_name_list),
            chain_has_unknown=has_unknown,
        )

    @classmethod
    def from_columns(
        cls,
        vnfs: Sequence,
        node_capacities: Mapping[Hashable, float],
        request_ids,
        request_index,
        lambda_r: np.ndarray,
        P_r: np.ndarray,
        chain_req: np.ndarray,
        chain_vnf: np.ndarray,
        chain_ptr: np.ndarray,
        chain_names,
        dtypes=None,
    ) -> "ScenarioArrays":
        """Assemble a scenario from prebuilt *request* columns.

        The object-free construction path
        (:mod:`repro.workload.stream`) samples the request table as
        numpy columns directly; this builder attaches them to the
        VNF/node columns without ever walking per-request objects.  The
        request columns must satisfy the exact :meth:`build` invariants
        (chain CSR in request-major chain order, ``eff_rate`` computed
        as the elementwise ``lambda_r / P_r``); the construction-parity
        suite pins that streamed columns equal :meth:`build` over the
        materialized request sequence.  ``request_ids`` /
        ``request_index`` / ``chain_names`` may be lazy sequence/mapping
        views — at million-request scale the eager tuple+dict cost more
        than every numpy column combined.
        """
        policy = resolve_policy(dtypes)
        idt = policy.index_dtype
        fdt = policy.float_dtype
        base = cls.build(vnfs, (), node_capacities, dtypes=policy)
        n = len(request_ids)
        ensure_index_capacity(n, idt, "request table")
        ensure_index_capacity(len(chain_req), idt, "chain CSR table")
        if not (
            len(lambda_r) == len(P_r) == n
            and len(chain_ptr) == n + 1
            and len(chain_req) == len(chain_vnf) == len(chain_names)
        ):
            raise ValidationError(
                "request column lengths are inconsistent with the id table"
            )
        base.request_ids = request_ids
        base.request_index = request_index
        base.lambda_r = np.ascontiguousarray(lambda_r, dtype=fdt)
        base.P_r = np.ascontiguousarray(P_r, dtype=fdt)
        base.eff_rate = base.lambda_r / base.P_r
        base.chain_req = np.ascontiguousarray(chain_req, dtype=idt)
        base.chain_vnf = np.ascontiguousarray(chain_vnf, dtype=idt)
        base.chain_ptr = np.ascontiguousarray(chain_ptr, dtype=idt)
        base.chain_names = chain_names
        base.chain_has_unknown = bool(len(chain_vnf)) and bool(
            (base.chain_vnf < 0).any()
        )
        return base

    # ------------------------------------------------------------------
    # Dtype policy (derived from the columns themselves)
    # ------------------------------------------------------------------
    @property
    def index_dtype(self) -> np.dtype:
        """The active index-column dtype (``int64`` unless lean-built)."""
        return self.chain_req.dtype

    @property
    def float_dtype(self) -> np.dtype:
        """The active float-column dtype (``float64`` unless lean-built)."""
        return self.lambda_r.dtype

    @classmethod
    def from_placement_problem(cls, problem) -> "ScenarioArrays":
        """Columns for a :class:`~repro.placement.base.PlacementProblem`."""
        return cls.build(problem.vnfs, (), problem.capacities)

    @classmethod
    def from_scheduling_problem(cls, problem) -> "ScenarioArrays":
        """Columns for a :class:`~repro.scheduling.base.SchedulingProblem`."""
        return cls.build((problem.vnf,), problem.requests, {})

    @classmethod
    def from_deployment_state(cls, state) -> "ScenarioArrays":
        """Columns for a :class:`~repro.nfv.state.DeploymentState`."""
        return cls.build(state.vnfs, state.requests, state.node_capacities)

    # ------------------------------------------------------------------
    # Decision-variable conversion (dynamic, rebuilt per call)
    # ------------------------------------------------------------------
    def placement_vector(self, placement: Mapping[str, Hashable]) -> np.ndarray:
        """Node index per VNF; ``-1`` for an unplaced VNF.

        The unchecked conversion, for placements already validated (or
        produced by a solver).  Metrics on user input go through
        :meth:`checked_placement_vector` or
        :meth:`complete_placement_vector`.

        Raises
        ------
        KeyError
            If some VNF is placed on a node absent from the capacity map.
        """
        vec = np.empty(len(self.vnf_names), dtype=np.int64)
        node_index = self.node_index
        for i, name in enumerate(self.vnf_names):
            node = placement.get(name)
            vec[i] = -1 if node is None else node_index[node]
        return vec

    def _known_node_vector(self, placement: Mapping[str, Hashable]) -> np.ndarray:
        """:meth:`placement_vector` with an unknown node raised as a
        :class:`ValidationError`."""
        node_index = self.node_index
        for name in self.vnf_names:
            node = placement.get(name)
            if node is not None and node not in node_index:
                raise ValidationError(
                    f"VNF {name!r} placed at unknown node {node!r}"
                )
        return self.placement_vector(placement)

    def _chain_entry_request(self, entry: int) -> str:
        return self.request_ids[int(self.chain_req[entry])]

    def checked_placement_vector(
        self, placement: Mapping[str, Hashable]
    ) -> np.ndarray:
        """The metric boundary: :meth:`placement_vector` for a placement
        every chain can walk.

        After this check the chain-walking columns (``hops_per_request``,
        ``topology_latency_per_request``) are valid as they stand.  VNFs
        no chain uses may stay unplaced (``-1``).

        Raises
        ------
        ValidationError
            If a VNF is placed at a node absent from the capacity map, a
            chain references an unknown VNF, or a chain uses an unplaced
            VNF.
        """
        vec = self._known_node_vector(placement)
        if self.chain_has_unknown:
            entry = int(np.argmax(self.chain_vnf < 0))
            raise ValidationError(
                f"request {self._chain_entry_request(entry)!r} references "
                f"unknown VNF {self.chain_names[entry]!r}"
            )
        unplaced = vec[self.chain_vnf] < 0
        if unplaced.any():
            entry = int(np.argmax(unplaced))
            raise ValidationError(
                f"request {self._chain_entry_request(entry)!r} uses "
                f"unplaced VNF {self.chain_names[entry]!r}"
            )
        return vec

    def complete_placement_vector(
        self, placement: Mapping[str, Hashable]
    ) -> np.ndarray:
        """:meth:`placement_vector` for a placement that places every
        VNF on a known node (Eq. 2).

        Raises
        ------
        ValidationError
            On a node absent from the capacity map or an unplaced VNF.
        """
        vec = self._known_node_vector(placement)
        unplaced = vec < 0
        if unplaced.any():
            name = self.vnf_names[int(np.argmax(unplaced))]
            raise ValidationError(f"VNF {name!r} is not placed (Eq. 2)")
        return vec

    def check_node_capacity(self, placement_vec: np.ndarray) -> None:
        """Check Eq. (6): no node is loaded past ``A_v``.

        Raises
        ------
        ValidationError
            Naming the first overloaded node in node-key order.
        """
        loads = self.node_loads(placement_vec)
        over = loads > self.A_v + 1e-9
        if over.any():
            i = int(np.argmax(over))
            raise ValidationError(
                f"node {self.node_keys[i]!r} over capacity: load "
                f"{loads[i]:.6g} > A_v {self.A_v[i]:.6g} (Eq. 6)"
            )

    def validate_placement(self, placement: Mapping[str, Hashable]) -> None:
        """Check Eqs. (2) and (6) for ``placement``."""
        self.check_node_capacity(self.complete_placement_vector(placement))

    def schedule_arrays(
        self, schedule: Mapping[Tuple[str, str], int]
    ) -> ScheduleArrays:
        """Convert the ``(request_id, vnf_name) -> k`` map to index form.

        Raises
        ------
        ValidationError
            If an entry references an unknown request or an instance
            outside ``[0, M_f)`` — mirroring
            :meth:`~repro.nfv.state.DeploymentState.instances`.
        """
        req: List[int] = []
        vnf: List[int] = []
        k: List[int] = []
        request_index = self.request_index
        if isinstance(request_index, RowIndex):
            # Bulk lookups: one dict beats a bisect per entry.
            request_index = request_index.as_dict()
        vnf_index = self.vnf_index
        M_f = self.M_f.tolist()
        for (request_id, vnf_name), kk in schedule.items():
            ri = request_index.get(request_id)
            if ri is None:
                raise ValidationError(
                    f"schedule references unknown request {request_id!r}"
                )
            fi = vnf_index.get(vnf_name)
            if fi is None or not 0 <= kk < M_f[fi]:
                raise ValidationError(
                    f"schedule references unknown instance ({vnf_name!r}, {kk})"
                )
            req.append(ri)
            vnf.append(fi)
            k.append(kk)
        idt = self.index_dtype
        req, vnf, k = (np.array(col, dtype=idt) for col in (req, vnf, k))
        inst = self.instance_offset[vnf] + k
        return ScheduleArrays(req=req, vnf=vnf, k=k, inst=inst)

    def schedule_dict(self, sched: ScheduleArrays) -> Dict[Tuple[str, str], int]:
        """The ``(request_id, vnf_name) -> k`` map of ``sched``, one entry
        per row in row order: the inverse of :meth:`schedule_arrays`."""
        ids, names = self.request_ids, self.vnf_names
        keys = zip(
            map(ids.__getitem__, sched.req.tolist()),
            map(names.__getitem__, sched.vnf.tolist()),
        )
        return dict(zip(keys, sched.k.tolist()))

    # ------------------------------------------------------------------
    # Placement metrics (Eqs. 13/14, Fig. 9)
    # ------------------------------------------------------------------
    def node_loads(self, placement_vec: np.ndarray) -> np.ndarray:
        """Placed demand per node: ``sum_f x_v^f M_f D_f`` (length |V|)."""
        mask = placement_vec >= 0
        return np.bincount(
            placement_vec[mask],
            weights=self.total_demand_f[mask],
            minlength=len(self.node_keys),
        )

    def used_node_mask(self, placement_vec: np.ndarray) -> np.ndarray:
        """Boolean ``y_v`` per node (Eq. 1): hosts at least one VNF."""
        mask = placement_vec >= 0
        counts = np.bincount(
            placement_vec[mask], minlength=len(self.node_keys)
        )
        return counts > 0

    def average_node_utilization(self, placement_vec: np.ndarray) -> float:
        """Eq. (13): mean load/capacity over the nodes in service."""
        used_mask = self.used_node_mask(placement_vec)
        if not used_mask.any():
            return 0.0
        capacities = self.A_v[used_mask]
        with np.errstate(divide="ignore", invalid="ignore"):
            utilization = np.where(
                capacities > 0.0,
                self.node_loads(placement_vec)[used_mask] / capacities,
                0.0,
            )
        return float(utilization.sum() / used_mask.sum())

    def nodes_in_service(self, placement_vec: np.ndarray) -> int:
        """Eq. (14): ``sum_v y_v``."""
        return int(self.used_node_mask(placement_vec).sum())

    def occupied_capacity(self, placement_vec: np.ndarray) -> float:
        """Fig. 9's resource occupation: ``sum_v y_v A_v``."""
        return float(self.A_v[self.used_node_mask(placement_vec)].sum())

    # ------------------------------------------------------------------
    # Instance aggregates (Eqs. 7/9/12)
    # ------------------------------------------------------------------
    def instance_rates(
        self, sched: ScheduleArrays
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-instance ``(Lambda_k^f, external rate, request count)``.

        ``Lambda_k^f = sum_r z_{r,k}^f lambda_r / P_r`` (Eq. 7); the
        external rate is the same sum over the raw ``lambda_r``.  The
        rates are float64 also for an empty schedule (a weighted
        ``bincount`` of no entries returns int64 zeros).
        """
        equivalent = np.bincount(
            sched.inst,
            weights=self.eff_rate[sched.req],
            minlength=self.num_instances,
        ).astype(np.float64, copy=False)
        external = np.bincount(
            sched.inst,
            weights=self.lambda_r[sched.req],
            minlength=self.num_instances,
        ).astype(np.float64, copy=False)
        counts = np.bincount(sched.inst, minlength=self.num_instances)
        return equivalent, external, counts

    def instance_utilizations(self, equivalent: np.ndarray) -> np.ndarray:
        """``rho_k^f = Lambda_k^f / mu_f`` (Eq. 9) for every instance."""
        return mm1_utilizations(equivalent, self.mu_inst)

    def instance_response_times(
        self, equivalent: np.ndarray, external: np.ndarray
    ) -> np.ndarray:
        """``W(f,k)`` per instance (Eq. 12); ``inf`` where unstable.

        Entries for idle instances (zero external rate) are ``nan`` and
        must be masked by the caller.
        """
        return mm1_mean_response_times(equivalent, self.mu_inst, external)

    # ------------------------------------------------------------------
    # Chain traversal (Eq. 16's communication term)
    # ------------------------------------------------------------------
    def chain_instances(self, sched: ScheduleArrays) -> np.ndarray:
        """Global instance index per chain entry; ``-1`` where the
        (request, VNF) pair has no schedule entry."""
        num_vnfs = len(self.vnf_names)
        codes_sorted, order = sched.sorted_codes(num_vnfs)
        chain_codes = self.chain_req * np.int64(num_vnfs) + self.chain_vnf
        pos = np.searchsorted(codes_sorted, chain_codes)
        pos_clipped = np.minimum(pos, max(len(sched) - 1, 0))
        if len(sched):
            found = (codes_sorted[pos_clipped] == chain_codes) & (
                self.chain_vnf >= 0
            )
            inst = np.where(found, sched.inst[order[pos_clipped]], -1)
        else:
            inst = np.full(len(chain_codes), -1, dtype=np.int64)
        return inst

    def check_schedule(self, sched: ScheduleArrays) -> None:
        """Check Eq. (5) on index form: every chain entry (request, VNF)
        has a row whose ``k`` lies in ``[0, M_f)``, and ``sched`` holds
        no other row.  These are the checks of converting the dict form
        with :meth:`schedule_arrays` and matching it to the chains, as a
        few vector passes.

        Raises
        ------
        ValidationError
            Naming the first fault found: a row with an unknown request
            or VNF, a row outside ``[0, M_f)``, a chain naming an
            unknown VNF, a chain entry without a row, or a row no chain
            entry claims.
        """
        req, vnf, k = sched.req, sched.vnf, sched.k
        bad = np.flatnonzero(
            (req < 0) | (req >= len(self.request_ids))
            | (vnf < 0) | (vnf >= len(self.vnf_names))
        )
        if len(bad):
            row = int(bad[0])
            raise ValidationError(
                f"schedule row {row} references unknown request or VNF "
                f"({int(req[row])}, {int(vnf[row])})"
            )
        bad = np.flatnonzero((k < 0) | (k >= self.M_f[vnf]))
        if len(bad):
            row = int(bad[0])
            raise ValidationError(
                "schedule references unknown instance "
                f"({self.vnf_names[int(vnf[row])]!r}, {int(k[row])})"
            )
        if self.chain_has_unknown:
            entry = int(np.flatnonzero(self.chain_vnf < 0)[0])
            raise ValidationError(
                f"request {self.request_ids[int(self.chain_req[entry])]!r} "
                "references an unknown VNF"
            )
        missing = np.flatnonzero(self.chain_instances(sched) < 0)
        if len(missing):
            entry = int(missing[0])
            raise ValidationError(
                f"request {self.request_ids[int(self.chain_req[entry])]!r} "
                "has no instance for VNF "
                f"{self.vnf_names[int(self.chain_vnf[entry])]!r} (Eq. 5)"
            )
        if len(sched) != len(self.chain_vnf):
            raise ValidationError(
                f"schedule holds {len(sched)} entries for "
                f"{len(self.chain_vnf)} chain entries (Eq. 5)"
            )

    def hops_per_request(self, placement_vec: np.ndarray) -> np.ndarray:
        """Eq. (16)'s ``(sum_v eta_v^r - 1)`` with consecutive-duplicate
        collapsing: inter-node transitions along each chain."""
        node_seq = placement_vec[self.chain_vnf]
        if len(node_seq) < 2:
            return np.zeros(len(self.request_ids), dtype=np.int64)
        same_request = self.chain_req[1:] == self.chain_req[:-1]
        transition = same_request & (node_seq[1:] != node_seq[:-1])
        return np.bincount(
            self.chain_req[1:][transition], minlength=len(self.request_ids)
        )

    def topology_view(self, topology) -> Tuple[object, np.ndarray]:
        """Attach a fabric: its arrays + scenario-node -> compute map.

        ``topology`` is a ``DatacenterTopology`` or its
        ``TopologyArrays`` (duck-typed; :mod:`repro.core` never imports
        :mod:`repro.topology`).  Every scenario node key must name a
        compute node of the fabric.  The mapping is cached per fabric
        identity, so repeated evaluations against the same topology pay
        the key lookups once.
        """
        topo = topology.arrays() if hasattr(topology, "arrays") else topology
        if self._topo_attach is not None and self._topo_attach[0] is topo:
            return self._topo_attach
        node_compute = np.empty(len(self.node_keys), dtype=np.int64)
        for i, key in enumerate(self.node_keys):
            ci = topo.compute_index.get(key)
            if ci is None:
                ci = topo.compute_index.get(str(key))
            if ci is None:
                raise ValidationError(
                    f"scenario node {key!r} is not a compute node of "
                    f"topology arrays with {len(topo.compute_keys)} "
                    f"compute nodes"
                )
            node_compute[i] = ci
        self._topo_attach = (topo, node_compute)
        return self._topo_attach

    def topology_latency_per_request(
        self, placement_vec: np.ndarray, topology
    ) -> np.ndarray:
        """Eq. (16)'s communication term on a real fabric, per request.

        The flat-fabric term is ``hops_per_request(...) * L``; here each
        inter-node transition instead contributes the measured
        shortest-path latency between the two hosting nodes — gathered
        from the fabric's dense compute-pair matrix in one shot.  All
        chain VNFs must be placed (callers gate exactly as they do for
        :meth:`hops_per_request`).
        """
        topo, node_compute = self.topology_view(topology)
        node_seq = placement_vec[self.chain_vnf]
        num_requests = len(self.request_ids)
        if len(node_seq) < 2:
            return np.zeros(num_requests, dtype=np.float64)
        same_request = self.chain_req[1:] == self.chain_req[:-1]
        transition = same_request & (node_seq[1:] != node_seq[:-1])
        src = node_compute[node_seq[:-1][transition]]
        dst = node_compute[node_seq[1:][transition]]
        return np.bincount(
            self.chain_req[1:][transition],
            weights=topo.latency[src, dst],
            minlength=num_requests,
        )

    # ------------------------------------------------------------------
    # Inverted chain views (delta evaluation, see docs/ARRAYS_CORE.md)
    # ------------------------------------------------------------------
    def vnf_requests(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR of the inverted ``U_r^f`` incidence: VNF -> request indices.

        Returns ``(ptr, req)`` where ``req[ptr[f]:ptr[f+1]]`` lists the
        (ascending, deduplicated) indices of the requests whose chains
        include VNF ``f``.  This is the touch set of a relocate move:
        moving ``f`` can only change the hop counts of these requests.
        Static — chains never change on an owner — so it is built once
        and cached.  Entries with unknown VNF names (``chain_vnf < 0``)
        are skipped; consumers must gate on ``chain_has_unknown``.
        """
        if self._vnf_req_csr is None:
            num_vnfs = len(self.vnf_names)
            known = self.chain_vnf >= 0
            # ``chain_req`` ascends, so a stable sort by VNF leaves each
            # VNF's requests ascending and a repeat (vnf, req) adjacent.
            vnf = self.chain_vnf[known]
            order = np.argsort(vnf, kind="stable")
            vnf = vnf[order]
            req = self.chain_req[known][order].astype(np.int64)
            fresh = np.ones(len(req), dtype=bool)
            fresh[1:] = (vnf[1:] != vnf[:-1]) | (req[1:] != req[:-1])
            vnf, req = vnf[fresh], req[fresh]
            ptr = np.zeros(num_vnfs + 1, dtype=np.int64)
            np.cumsum(np.bincount(vnf, minlength=num_vnfs), out=ptr[1:])
            self._vnf_req_csr = (ptr, req)
        return self._vnf_req_csr

    def vnf_chain_neighbors(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR of chain-adjacent VNF pairs: VNF -> neighbor VNF indices.

        Returns ``(ptr, nbr)`` where ``nbr[ptr[f]:ptr[f+1]]`` lists, with
        multiplicity, the VNF index on the other side of every adjacent
        same-request chain pair involving ``f`` exactly once (pairs of
        ``f`` with itself transfer no hops and are dropped).  The hop
        delta of relocating ``f`` from node ``s`` to node ``t`` is then

            ``count(placement[nbr] == s) - count(placement[nbr] == t)``

        — the entire Eq. (16) communication-term delta in two bincount
        lookups.  Static per scenario; built once and cached.  Only
        valid when ``chain_has_unknown`` is False.
        """
        if self._vnf_nbr_csr is None:
            num_vnfs = len(self.vnf_names)
            if len(self.chain_vnf) < 2:
                empty = np.zeros(0, dtype=np.int64)
                self._vnf_nbr_csr = (
                    np.zeros(num_vnfs + 1, dtype=np.int64),
                    empty,
                )
                return self._vnf_nbr_csr
            a = self.chain_vnf[:-1]
            b = self.chain_vnf[1:]
            pair = (
                (self.chain_req[1:] == self.chain_req[:-1])
                & (a != b)
                & (a >= 0)
                & (b >= 0)
            )
            owners = np.concatenate([a[pair], b[pair]])
            neighbors = np.concatenate([b[pair], a[pair]])
            order = np.argsort(owners, kind="stable")
            ptr = np.zeros(num_vnfs + 1, dtype=np.int64)
            np.cumsum(np.bincount(owners, minlength=num_vnfs), out=ptr[1:])
            self._vnf_nbr_csr = (ptr, neighbors[order])
        return self._vnf_nbr_csr

    def node_str_rank(self) -> np.ndarray:
        """Rank of each node in the stable ``str(node_key)`` ordering.

        ``node_str_rank()[i]`` is the position of ``node_keys[i]`` when
        the keys are sorted by their string form — the deterministic
        tie-break BFDSU's candidate ordering uses.  Static per scenario;
        built once and cached.
        """
        if self._node_str_rank is None:
            rank = np.empty(len(self.node_keys), dtype=np.int64)
            rank[
                sorted(
                    range(len(self.node_keys)),
                    key=lambda i: str(self.node_keys[i]),
                )
            ] = np.arange(len(self.node_keys))
            self._node_str_rank = rank
        return self._node_str_rank

    # ------------------------------------------------------------------
    # Request-row mutation (incremental serving)
    # ------------------------------------------------------------------
    def _ensure_mutable(self) -> None:
        """Switch the request/chain columns onto growable backing buffers.

        Idempotent; called by the first :meth:`append_requests` /
        :meth:`remove_requests`.  ``request_ids``/``chain_names`` become
        lists, ``request_index`` a :class:`RowIndex` (a streamed
        scenario's lazy id view is replaced only here, on the first
        mutation), the numpy request columns become slices of
        amortized-doubling buffers.
        """
        if self._lambda_buf is not None:
            return
        self.request_ids = list(self.request_ids)
        self.chain_names = list(self.chain_names)
        self.request_index = RowIndex(self.request_ids)
        n = len(self.request_ids)
        c = len(self.chain_req)
        rcap = max(4, 2 * n)
        ccap = max(8, 2 * c)
        fdt = self.float_dtype
        idt = self.index_dtype
        self._lambda_buf = np.zeros(rcap, dtype=fdt)
        self._P_buf = np.zeros(rcap, dtype=fdt)
        self._eff_buf = np.zeros(rcap, dtype=fdt)
        self._chain_ptr_buf = np.zeros(rcap + 1, dtype=idt)
        self._chain_req_buf = np.zeros(ccap, dtype=idt)
        self._chain_vnf_buf = np.zeros(ccap, dtype=idt)
        self._lambda_buf[:n] = self.lambda_r
        self._P_buf[:n] = self.P_r
        self._eff_buf[:n] = self.eff_rate
        self._chain_ptr_buf[: n + 1] = self.chain_ptr
        self._chain_req_buf[:c] = self.chain_req
        self._chain_vnf_buf[:c] = self.chain_vnf
        self._reslice(n, c)

    @staticmethod
    def _grown(buf: np.ndarray, need: int) -> np.ndarray:
        """``buf`` itself, or a doubled copy with room for ``need``."""
        if need <= len(buf):
            return buf
        new = np.zeros(max(need, 2 * len(buf)), dtype=buf.dtype)
        new[: len(buf)] = buf
        return new

    def _reslice(self, num_requests: int, num_chain: int) -> None:
        """Point the public columns at the live buffer prefixes."""
        self.lambda_r = self._lambda_buf[:num_requests]
        self.P_r = self._P_buf[:num_requests]
        self.eff_rate = self._eff_buf[:num_requests]
        self.chain_ptr = self._chain_ptr_buf[: num_requests + 1]
        self.chain_req = self._chain_req_buf[:num_chain]
        self.chain_vnf = self._chain_vnf_buf[:num_chain]

    def _invalidate_request_caches(self) -> None:
        self._vnf_req_csr = None
        self._vnf_nbr_csr = None

    def append_requests(self, requests: Iterable) -> int:
        """Append request rows (+ their chain entries) in the given
        order; returns the index of the first.

        Amortized O(rows + chain entries) via the doubling buffers: one
        slice write per column for the whole batch.  The appended
        columns are exactly what :meth:`build` would compute for the
        extended request sequence (same IEEE ``lambda / P`` division),
        and the request-derived CSR caches are invalidated.  All or
        nothing: nothing changes when some id is rejected.

        Raises
        ------
        ValidationError
            If some request id is already present or repeats within
            ``requests``.
        """
        requests = list(requests)
        ids = [request.request_id for request in requests]
        index = self.request_index
        seen = set()
        for rid in ids:
            if rid in index or rid in seen:
                raise ValidationError(
                    f"duplicate request id {rid!r} appended to ScenarioArrays"
                )
            seen.add(rid)
        self._ensure_mutable()
        n = len(self.request_ids)
        c = int(self.chain_ptr[n])
        chains = [request.chain.vnf_names for request in requests]
        names = [name for chain in chains for name in chain]
        k = len(ids)
        m = len(names)
        idt = self._chain_req_buf.dtype
        ensure_index_capacity(c + m, idt, "chain CSR table")
        ensure_index_capacity(n + k, idt, "request table")
        self._lambda_buf = self._grown(self._lambda_buf, n + k)
        self._P_buf = self._grown(self._P_buf, n + k)
        self._eff_buf = self._grown(self._eff_buf, n + k)
        self._chain_ptr_buf = self._grown(self._chain_ptr_buf, n + k + 1)
        self._chain_req_buf = self._grown(self._chain_req_buf, c + m)
        self._chain_vnf_buf = self._grown(self._chain_vnf_buf, c + m)
        vnf_index = self.vnf_index
        idxs = [vnf_index.get(name, -1) for name in names]
        self._chain_vnf_buf[c : c + m] = idxs
        if k == 1:
            # Scalar writes: the same IEEE division, without the
            # per-call cost of building one-element arrays.
            (request,) = requests
            self._lambda_buf[n] = request.arrival_rate
            self._P_buf[n] = request.delivery_probability
            self._eff_buf[n] = self._lambda_buf[n] / self._P_buf[n]
            self._chain_req_buf[c : c + m] = n
            self._chain_ptr_buf[n + 1] = c + m
        else:
            lam = self._lambda_buf[n : n + k]
            p = self._P_buf[n : n + k]
            lam[:] = [request.arrival_rate for request in requests]
            p[:] = [request.delivery_probability for request in requests]
            np.divide(lam, p, out=self._eff_buf[n : n + k])
            lens = [len(chain) for chain in chains]
            self._chain_req_buf[c : c + m] = np.repeat(
                np.arange(n, n + k), lens
            )
            self._chain_ptr_buf[n + 1 : n + k + 1] = np.cumsum(lens) + c
        self.request_ids.extend(ids)
        self.chain_names.extend(names)
        self.request_index.extend(ids)
        if -1 in idxs:
            self.chain_has_unknown = True
        self._reslice(n + k, c + m)
        self._invalidate_request_caches()
        return n

    def remove_requests(self, request_ids: Iterable[str]) -> np.ndarray:
        """Remove request rows; returns the (ascending) rows they held.

        The survivors keep their order and close ranks (their chain
        entries move with them), so the columns are exactly what
        :meth:`build` would produce for the surviving request sequence.
        A single row costs one slice shift per column and one list
        ``del`` per id list; several cost one masked copy per column and
        one ``compress`` pass per id list, O(rows) in all however many
        leave.  No later id is renumbered (see :class:`RowIndex`).  The
        request-derived CSR caches are invalidated; nothing changes
        when an id is unknown.

        Raises
        ------
        ValidationError
            If some id is unknown.
        """
        self._ensure_mutable()
        ids = list(dict.fromkeys(request_ids))
        index = self.request_index
        rows = []
        for rid in ids:
            i = index.get(rid)
            if i is None:
                raise ValidationError(
                    f"cannot remove unknown request {rid!r}"
                )
            rows.append(i)
        rows.sort()
        n = len(self.request_ids)
        c = int(self.chain_ptr[n])
        ptr = self._chain_ptr_buf
        m = n - len(rows)
        if len(rows) == 1:
            (i,) = rows
            lo, hi = int(ptr[i]), int(ptr[i + 1])
            gap = hi - lo
            for buf in (self._lambda_buf, self._P_buf, self._eff_buf):
                buf[i:m] = buf[i + 1 : n]
            # Shifted chain entries all belong to requests after ``i``.
            self._chain_req_buf[lo : c - gap] = self._chain_req_buf[hi:c] - 1
            self._chain_vnf_buf[lo : c - gap] = self._chain_vnf_buf[hi:c]
            ptr[i : m + 1] = ptr[i + 1 : n + 1] - gap
            kept = c - gap
            del self.request_ids[i]
            del self.chain_names[lo:hi]
            index.remove(ids, rows)
        else:
            keep = np.ones(n, dtype=bool)
            keep[rows] = False
            for buf in (self._lambda_buf, self._P_buf, self._eff_buf):
                buf[:m] = buf[:n][keep]
            chain_req = self._chain_req_buf[:c]
            keep_entry = keep[chain_req]
            kept = int(np.count_nonzero(keep_entry))
            # A survivor's new row is its rank among the kept rows.
            rank = np.cumsum(keep) - 1
            self._chain_req_buf[:kept] = rank[chain_req[keep_entry]]
            self._chain_vnf_buf[:kept] = self._chain_vnf_buf[:c][keep_entry]
            np.cumsum(np.diff(ptr[: n + 1])[keep], out=ptr[1 : m + 1])
            # One pass per list over the survivors: O(rows) however many
            # leave.
            keep_rows = keep.tolist()
            self.request_ids[:] = compress(self.request_ids, keep_rows)
            self.chain_names[:] = compress(
                self.chain_names, keep_entry.tolist()
            )
            index.remove(ids, keep=keep_rows)
        self._reslice(m, kept)
        if self.chain_has_unknown:
            self.chain_has_unknown = bool((self.chain_vnf < 0).any())
        self._invalidate_request_caches()
        return np.asarray(rows, dtype=np.int64)

    def response_per_request(
        self,
        sched: ScheduleArrays,
        instance_w: np.ndarray,
    ) -> np.ndarray:
        """First term of Eq. (16): summed ``W(f,k)`` along each chain.

        Raises
        ------
        SchedulingError
            If some chain entry has no schedule assignment (mirroring
            :func:`repro.core.objectives.per_request_response_time`).
        """
        inst = self.chain_instances(sched)
        missing = inst < 0
        if missing.any():
            entry = int(np.argmax(missing))
            raise SchedulingError(
                f"request {self._chain_entry_request(entry)!r} unscheduled "
                f"on VNF {self.chain_names[entry]!r}"
            )
        return np.bincount(
            self.chain_req,
            weights=instance_w[inst],
            minlength=len(self.request_ids),
        )


def cached_arrays(owner, builder) -> ScenarioArrays:
    """Fetch/build the ``ScenarioArrays`` cached on ``owner``.

    Works for frozen dataclasses too (attribute set bypasses
    ``__setattr__``).  ``builder`` is called once with ``owner``.
    """
    arrays = getattr(owner, "_scenario_arrays", None)
    if arrays is None:
        arrays = builder(owner)
        object.__setattr__(owner, "_scenario_arrays", arrays)
    return arrays
