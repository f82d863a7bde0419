"""Admission control: which requests an overloaded deployment admits.

The paper (Sections I and III-B): "When the arrival rate is larger than
the service rate, the admission control mechanism will drop some requests
to ensure the normal operation of the services."  The *job rejection
rate* — rejected requests over offered requests — is the metric of
Figs. 15-16.

:func:`admission_mask` is the one admission rule, over schedule columns:
requests are visited lightest first (ascending effective rate, then
request index), and each is admitted whole — at every instance of its
chain — or rejected whole, against the capacity the requests before it
left (``mu * target_utilization`` per instance).  Rejecting the heaviest
flows restores stability with few rejections, and a rejected request
loads no instance.  :func:`repro.core.evaluation.evaluate_columns` and
:func:`repro.scheduling.metrics.schedule_report` score the admitted
requests only.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ValidationError

#: Default post-admission utilization ceiling.  Strictly below 1 so the
#: M/M/1 steady state exists after shedding.
DEFAULT_TARGET_UTILIZATION = 0.999


def power_of_two_admit(
    loads: np.ndarray,
    rate: float,
    rng: np.random.Generator,
    capacity: Optional[float] = None,
    fit_eps: float = 1e-9,
) -> int:
    """Power-of-two-choices warm-start admit: probe two, join the lighter.

    The classic load-balancing result (Mitzenmacher): sampling *two*
    uniform instances and joining the less loaded one drops the maximum
    load from ``Theta(log M / log log M)`` to ``Theta(log log M)`` —
    near-least-loaded quality at O(1) probe cost instead of the O(M)
    argmin scan of :func:`~repro.scheduling.least_loaded
    .least_loaded_admit`.

    Two ``rng.integers`` probes are consumed per call (also when the
    join is ultimately rejected), so the stream position is a pure
    function of the admit sequence.  Ties — including probing the same
    instance twice — resolve to the lower index, matching the argmin
    convention.  With ``capacity`` given the winner must stay within
    ``capacity + fit_eps`` (the Eq. (6) slack); a winner with
    non-finite load (a masked/down instance) is rejected.  Returns the
    instance index, or ``-1`` for rejection with every caller-side
    residual untouched.
    """
    m = len(loads)
    if not m:
        return -1
    picks = rng.integers(0, m, size=2)
    i, j = int(picks[0]), int(picks[1])
    if loads[i] < loads[j]:
        k = i
    elif loads[j] < loads[i]:
        k = j
    else:
        k = min(i, j)
    if not np.isfinite(loads[k]):
        return -1
    if capacity is not None and loads[k] + rate > capacity + fit_eps:
        return -1
    return k


def admission_mask(
    req: np.ndarray,
    inst: np.ndarray,
    eff_rate: np.ndarray,
    mu: np.ndarray,
    target_utilization: float = DEFAULT_TARGET_UTILIZATION,
) -> np.ndarray:
    """Per-request admitted mask: a request is admitted whole or not at all.

    Parameters
    ----------
    req, inst:
        The schedule rows: request index and global instance index of
        every (request, VNF) entry.
    eff_rate:
        Effective rate ``lambda_r / P_r`` per request.
    mu:
        Service rate per instance (indexed by ``inst``).
    target_utilization:
        Post-admission utilization ceiling in ``(0, 1)``.

    Requests are visited in ascending ``(eff_rate, request index)``
    order.  A request is admitted iff, at every instance of its chain,
    the running admitted load plus its rate stays at or below
    ``mu * target_utilization``; an admitted request then adds its rate
    to each of those instances.  Requests without a schedule row load
    nothing and are admitted.

    Only requests touching an instance whose total load (summed in that
    same ascending order) is over target go through the sequential loop.
    Every other request is admitted directly, and this is exact: a float
    sum of non-negative terms never decreases as terms are added, so
    every running load of an instance under target stays under target.
    """
    if not 0.0 < target_utilization < 1.0:
        raise ValidationError(
            f"target utilization must be in (0, 1), got {target_utilization!r}"
        )
    rate = np.asarray(eff_rate, dtype=np.float64)
    capacity = np.asarray(mu, dtype=np.float64) * target_utilization
    admitted = np.ones(len(rate), dtype=bool)
    # Rows in ascending (rate, request) order; a weighted bincount adds
    # in array order, so each instance's load is the ascending sum.
    rows = np.lexsort((req, rate[req]))
    load = np.bincount(
        inst[rows], weights=rate[req[rows]], minlength=len(capacity)
    )
    hot = rows[(load > capacity)[inst[rows]]]

    # Rows of one request are adjacent in ``hot``; only its over-target
    # instances are checked, the others always have room.
    hot_req = req[hot].tolist()
    hot_inst = inst[hot].tolist()
    hot_rate = rate[req[hot]].tolist()
    caps = capacity.tolist()
    running = [0.0] * len(caps)
    start = 0
    while start < len(hot_req):
        end = start + 1
        while end < len(hot_req) and hot_req[end] == hot_req[start]:
            end += 1
        x = hot_rate[start]
        chain = hot_inst[start:end]
        if all(running[i] + x <= caps[i] for i in chain):
            for i in chain:
                running[i] += x
        else:
            admitted[hot_req[start]] = False
        start = end
    return admitted
