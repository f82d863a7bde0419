"""Column-native scheduling: build :class:`ScheduleArrays` directly.

``schedule_all_vnfs`` + ``ScenarioArrays.schedule_arrays`` go through a
``SchedulingProblem`` per VNF and a dict entry per (request, VNF) pair
-- 3.5M entries at 1M requests, and at a serving-engine rebalance more
time than the RCKK kernel.  :func:`schedule_columns` goes straight from
the inverted ``U_r^f`` CSR (:meth:`ScenarioArrays.vnf_requests`) to the
index-form schedule, row for row the dict route's
(``tests/scheduling/test_schedule_columns.py`` pins it per scheduler):

* each VNF's CSR user list is ascending request order, the object
  path's in-request-order scan (chains never revisit a VNF);
* both routes run the scheduler's one per-VNF rule,
  :meth:`~repro.scheduling.base.SchedulingAlgorithm.assign`, on the
  same float rates and emit rows VNF by VNF in the rule's order (RCKK,
  CGA, CKK: way by way in subset order; the rest: user order).  Row
  order fixes the order of the per-instance float sums, so the loads
  agree bit for bit.

Every scheduler runs here: :class:`~repro.core.incremental
.DeploymentEngine` re-solves with RCKK, and the batch pipeline uses
least-loaded at 100k requests.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.core.arrays import ScenarioArrays, ScheduleArrays
from repro.exceptions import SchedulingError, ValidationError
from repro.scheduling.base import Assignment, SchedulingAlgorithm
from repro.scheduling.least_loaded import LeastLoadedScheduler
from repro.scheduling.round_robin import RoundRobinScheduler

__all__ = ["schedule_columns"]

AssignKernel = Callable[[Sequence[float], int], np.ndarray]

_POLICIES = {
    "least_loaded": LeastLoadedScheduler(),
    "round_robin": RoundRobinScheduler(),
}


def _rule(
    policy: Union[str, SchedulingAlgorithm, AssignKernel],
) -> Callable[[Sequence[float], int], Assignment]:
    if isinstance(policy, SchedulingAlgorithm):
        return policy.assign
    if isinstance(policy, str):
        scheduler = _POLICIES.get(policy)
        if scheduler is None:
            raise ValidationError(
                f"unknown scheduling policy {policy!r}; "
                f"expected one of {sorted(_POLICIES)}"
            )
        return scheduler.assign
    return _checked(policy)


class _WayOutOfRange(SchedulingError):
    """A custom rule chose an instance outside ``[0, m)``."""


def _checked(policy: AssignKernel) -> Callable[[Sequence[float], int], Assignment]:
    """Wrap a custom ``(rates, m) -> k`` callable as a rule whose every
    way lies in ``[0, m)``; any other way would land a row on the next
    VNF's instance or past the instance table.  The built-in schedulers'
    rules are pinned by their own tests and skip this check."""

    def rule(rates: Sequence[float], m: int) -> Assignment:
        ways = np.asarray(policy(rates, m))
        bad = ways[(ways < 0) | (ways >= m)]
        if bad.size:
            raise _WayOutOfRange(
                f"policy returned instance {bad[0]} outside 0..{m - 1}"
            )
        return Assignment(ways=ways)

    return rule


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
    The rule sees each VNF's users' effective rates (float64,
    user-list order).  VNFs used by no request idle, exactly as
    :func:`~repro.scheduling.base.schedule_all_vnfs` skips them.

    ``down`` is a per-global-instance mask of failed instances: a VNF
    with some down is scheduled over its live instances only, way ``j``
    going to its ``j``-th live instance.

    Raises
    ------
    SchedulingError
        On chains naming unknown VNFs, on a rule returning the wrong
        number of assignments, on a callable policy choosing an instance
        outside ``0 <= k < m``, and when a used VNF has every instance
        down.
    """
    rule = _rule(policy)
    if arrays.chain_has_unknown:
        raise SchedulingError("cannot schedule chains referencing unknown VNFs")
    ptr, req_csr = arrays.vnf_requests()
    eff64 = arrays.eff_rate.astype(np.float64, copy=False)
    idt = arrays.index_dtype
    req = np.empty(int(ptr[-1]), dtype=idt)
    k = np.empty_like(req)
    bounds = ptr.tolist()
    offsets = arrays.instance_offset.tolist()
    for f, m in enumerate(arrays.M_f.tolist()):
        lo, hi = bounds[f], bounds[f + 1]
        if hi == lo:
            continue
        live = None
        if down is not None:
            dead = down[offsets[f] : offsets[f] + m]
            if dead.any():
                live = np.flatnonzero(~dead)
                m = len(live)
                if not m:
                    raise SchedulingError(
                        f"VNF {arrays.vnf_names[f]!r} has {hi - lo} users "
                        "but every instance is down"
                    )
        users = req_csr[lo:hi]
        try:
            assigned = rule(eff64[users].tolist(), m)
        except _WayOutOfRange as exc:
            raise SchedulingError(
                f"{exc} for VNF {arrays.vnf_names[f]!r}"
            ) from None
        if len(assigned.ways) != hi - lo:
            raise SchedulingError(
                f"policy returned {len(assigned.ways)} assignments for "
                f"{hi - lo} users of VNF {arrays.vnf_names[f]!r}"
            )
        if assigned.order is not None:
            users = users[assigned.order]
        req[lo:hi] = users
        k[lo:hi] = assigned.ways if live is None else live[assigned.ways]
    vnf = np.repeat(np.arange(len(bounds) - 1, dtype=idt), np.diff(ptr))
    inst = arrays.instance_offset[vnf] + k
    return ScheduleArrays(req=req, vnf=vnf, k=k, inst=inst)
