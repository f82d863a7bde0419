"""Scheduling evaluation metrics (Figs. 11-16 plus tail statistics).

:func:`schedule_report` reduces a :class:`ScheduleResult` to the paper's
latency metrics; when asked it first applies admission control
(:func:`repro.core.admission.admission_mask`) so the job-rejection
experiments (Figs. 15-16) can overload instances safely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.admission import admission_mask
from repro.queueing.mm1 import mm1_mean_response_times
from repro.scheduling.base import ScheduleResult


@dataclass(frozen=True)
class ScheduleReport:
    """One report row: a schedule reduced to the paper's metrics.

    ``average_response_time`` is Eq. (15)'s objective — the mean
    ``W(f,k)`` over instances actually serving requests.  When any
    serving instance is unstable and admission control was not applied,
    the latency fields are ``inf``.
    """

    algorithm: str
    instance_rates: tuple
    utilizations: tuple
    average_response_time: float
    max_response_time: float
    makespan: float
    spread: float
    num_requests: int
    num_rejected: int
    iterations: int

    @property
    def rejection_rate(self) -> float:
        """Job rejection rate: rejected / offered (Figs. 15-16)."""
        if self.num_requests == 0:
            return 0.0
        return self.num_rejected / self.num_requests


def schedule_report(
    result: ScheduleResult, apply_admission: bool = False
) -> ScheduleReport:
    """Reduce a schedule to the paper's latency/rejection metrics.

    Parameters
    ----------
    result:
        The schedule to evaluate.
    apply_admission:
        When True, :func:`repro.core.admission.admission_mask` decides
        which requests are admitted; latency is computed over the
        admitted requests and the rejected ones feed
        ``rejection_rate``.  When False, an unstable instance makes the
        latency fields infinite (no steady state exists).
    """
    problem = result.problem
    k = result.instance_vector()  # the Eq. (5) check
    m = problem.num_instances
    mu = problem.vnf.service_rate
    arrays = problem.arrays()
    # Each instance's rates are summed lightest request first, the order
    # in which admission adds them, and the mean W in instance order: the
    # goldens of fig11-fig16 pin these sums to the bit.
    rows = np.argsort(arrays.eff_rate, kind="stable")
    num_rejected = 0
    if apply_admission:
        admitted = admission_mask(
            np.arange(len(k)), k, arrays.eff_rate, np.full(m, mu)
        )
        rows = rows[admitted[rows]]
        num_rejected = len(k) - len(rows)
    equivalent = np.bincount(k[rows], weights=arrays.eff_rate[rows], minlength=m)
    external = np.bincount(k[rows], weights=arrays.lambda_r[rows], minlength=m)
    serving = np.bincount(k[rows], minlength=m) > 0
    utilizations = equivalent / mu
    if serving.any() and bool((utilizations[serving] < 1.0).all()):
        response_times = mm1_mean_response_times(
            equivalent[serving], mu, external[serving]
        )
        average_w = sum(response_times.tolist()) / len(response_times)
        max_w = float(response_times.max())
    else:
        average_w = math.inf
        max_w = math.inf
    rates = tuple(float(rate) for rate in equivalent)
    return ScheduleReport(
        algorithm=result.algorithm,
        instance_rates=rates,
        utilizations=tuple(float(u) for u in utilizations),
        average_response_time=average_w,
        max_response_time=max_w,
        makespan=max(rates) if rates else 0.0,
        spread=(max(rates) - min(rates)) if rates else 0.0,
        num_requests=problem.num_requests,
        num_rejected=num_rejected,
        iterations=result.iterations,
    )
