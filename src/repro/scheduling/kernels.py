"""Column-native scheduling: build :class:`ScheduleArrays` directly.

:func:`schedule_columns` goes straight from the inverted ``U_r^f`` CSR
(:meth:`ScenarioArrays.vnf_requests`) to the index-form schedule, with
no ``SchedulingProblem`` per VNF and no dict entry per (request, VNF)
pair (3.5M entries at 1M requests).  It is row for row the object
route that ``benchmarks/_reference_impl.reference_schedule_all_vnfs``
keeps (``tests/scheduling/test_schedule_columns.py`` pins it per
scheduler):

* each VNF's CSR user list is ascending request order, the object
  path's in-request-order scan (chains never revisit a VNF);
* both routes run the scheduler's one per-VNF rule,
  :meth:`~repro.scheduling.base.SchedulingAlgorithm.assign`, on the
  same float rates and emit rows VNF by VNF in the rule's order (RCKK,
  CGA, CKK: way by way in subset order; the rest: user order).  Row
  order fixes the order of the per-instance float sums, so the loads
  agree bit for bit.

Every scheduler runs here: :class:`~repro.core.joint.JointOptimizer`
and :class:`~repro.core.incremental.DeploymentEngine` solve with it
(RCKK by default), and the batch pipeline uses least-loaded at 100k
requests.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.core.arrays import ScenarioArrays, ScheduleArrays
from repro.exceptions import SchedulingError, ValidationError
from repro.scheduling.base import Assignment, RuleFault, SchedulingAlgorithm
from repro.scheduling.least_loaded import LeastLoadedScheduler
from repro.scheduling.round_robin import RoundRobinScheduler

__all__ = ["schedule_columns"]

AssignKernel = Callable[[Sequence[float], int], np.ndarray]

_POLICIES = {
    "least_loaded": LeastLoadedScheduler(),
    "round_robin": RoundRobinScheduler(),
}


def _scheduler(
    policy: Union[str, SchedulingAlgorithm, AssignKernel],
) -> SchedulingAlgorithm:
    if isinstance(policy, SchedulingAlgorithm):
        return policy
    if isinstance(policy, str):
        scheduler = _POLICIES.get(policy)
        if scheduler is None:
            raise ValidationError(
                f"unknown scheduling policy {policy!r}; "
                f"expected one of {sorted(_POLICIES)}"
            )
        return scheduler
    return _Checked(policy)


class _Checked(SchedulingAlgorithm):
    """A custom ``(rates, m) -> k`` callable as a scheduler whose every
    way is an integer in ``[0, m)``; a fractional way would be truncated
    and NaN cast to a huge negative index, and any way outside the range
    would land a row on the next VNF's instance or past the instance
    table.  The built-in schedulers' rules are pinned by their own tests
    and skip this check."""

    def __init__(self, policy: AssignKernel) -> None:
        self._policy = policy

    def assign(self, rates: Sequence[float], m: int) -> Assignment:
        ways = np.asarray(self._policy(rates, m))
        if ways.dtype.kind == "f":
            bad = ways[~(np.floor(ways) == ways)]
            if bad.size:
                raise RuleFault(
                    f"policy returned non-integral instance {bad[0]}"
                )
        bad = ways[(ways < 0) | (ways >= m)]
        if bad.size:
            raise RuleFault(
                f"policy returned instance {bad[0]} outside 0..{m - 1}"
            )
        return Assignment(ways=ways.astype(np.int64, copy=False))


def schedule_columns(
    arrays: ScenarioArrays,
    policy: Union[str, SchedulingAlgorithm, AssignKernel] = "least_loaded",
    *,
    down: Optional[np.ndarray] = None,
) -> ScheduleArrays:
    """Schedule every VNF's users straight into index form.

    ``policy`` is a scheduler, the name of a built-in one
    (``"least_loaded"`` / ``"round_robin"``) or a callable
    ``(rates, m) -> k`` giving the instance of each user in user order.
    The scheduler's whole-table rule
    (:meth:`~repro.scheduling.base.SchedulingAlgorithm.assign_segments`)
    sees every VNF's users' effective rates (float64, user-list order)
    as one segment of the CSR.  VNFs used by no request idle and get no
    rows.

    ``down`` is a per-global-instance mask of failed instances: a VNF
    with some down is scheduled over its live instances only, way ``j``
    going to its ``j``-th live instance.

    Raises
    ------
    SchedulingError
        On chains naming unknown VNFs, on a rule returning the wrong
        number of assignments, on a callable policy choosing a
        non-integral instance or one outside ``0 <= k < m``, and when a
        used VNF has every instance down.
    """
    scheduler = _scheduler(policy)
    if arrays.chain_has_unknown:
        raise SchedulingError("cannot schedule chains referencing unknown VNFs")
    ptr, req_csr = arrays.vnf_requests()
    counts = np.diff(ptr)
    m = arrays.M_f.astype(np.int64)
    live = None
    if down is not None and down.any():
        live = np.flatnonzero(~down)
        m_live = np.bincount(arrays.inst_vnf[live], minlength=len(m))
        dead = np.flatnonzero((counts > 0) & (m > 0) & (m_live == 0))
        m = m_live
        if len(dead):
            f = int(dead[0])
            raise SchedulingError(
                f"VNF {arrays.vnf_names[f]!r} has {int(counts[f])} users "
                "but every instance is down"
            )
    rates = arrays.eff_rate.astype(np.float64, copy=False)[req_csr]
    try:
        assigned = scheduler.assign_segments(rates, ptr, m)
    except RuleFault as exc:
        raise SchedulingError(
            f"{exc} for VNF {arrays.vnf_names[exc.segment]!r}"
        ) from None
    idt = arrays.index_dtype
    vnf = np.repeat(np.arange(len(counts), dtype=idt), counts)
    way = assigned.ways
    if live is not None:
        # Way j of VNF f is its j-th live instance.
        live_start = np.zeros(len(m), dtype=np.int64)
        np.cumsum(m[:-1], out=live_start[1:])
        way = live[live_start[vnf] + way] - arrays.instance_offset[vnf]
    k = np.asarray(way).astype(idt, copy=False)
    req = req_csr if assigned.order is None else req_csr[assigned.order]
    inst = arrays.instance_offset[vnf] + k
    return ScheduleArrays(req=req.astype(idt), vnf=vnf, k=k, inst=inst)
