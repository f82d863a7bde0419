"""Hypoexponential chain latency — analytic end-to-end tails.

In a tandem of M/M/1 stations, each station's sojourn time is
exponential with rate ``theta_i = mu_i - lambda_i``; by queue-output
independence (Burke), the end-to-end latency is the *sum* of independent
exponentials — a hypoexponential distribution.  This module provides its
CDF and quantiles, so chain-level tail latencies (the 99th percentiles
of Section V-C) can be computed analytically instead of only per
instance.

For distinct rates the CDF has the classic partial-fraction closed form

    ``F(t) = 1 - sum_i C_i exp(-theta_i t)``,
    ``C_i = prod_{j != i} theta_j / (theta_j - theta_i)``;

repeated rates are handled by infinitesimally perturbing duplicates —
numerically indistinguishable from the Erlang limit at double precision
for the scales involved.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.exceptions import UnstableQueueError, ValidationError


class HypoexponentialLatency:
    """End-to-end latency of a chain of M/M/1 stations.

    Parameters
    ----------
    arrival_rates:
        Per-station equivalent arrival rates ``lambda_i``.
    service_rates:
        Per-station service rates ``mu_i``; all stations must be stable.
    """

    def __init__(
        self,
        arrival_rates: Sequence[float],
        service_rates: Sequence[float],
    ) -> None:
        if len(arrival_rates) != len(service_rates):
            raise ValidationError(
                f"{len(arrival_rates)} arrival rates vs "
                f"{len(service_rates)} service rates"
            )
        if not arrival_rates:
            raise ValidationError("chain must have at least one station")
        thetas: List[float] = []
        for lam, mu in zip(arrival_rates, service_rates):
            if mu <= 0.0 or lam < 0.0:
                raise ValidationError(
                    f"invalid station rates lambda={lam!r}, mu={mu!r}"
                )
            if lam >= mu:
                raise UnstableQueueError(
                    f"station with lambda={lam:.6g} >= mu={mu:.6g} has no "
                    "steady state"
                )
            thetas.append(mu - lam)
        self._thetas = _deduplicate(thetas)
        self._coefficients = _partial_fractions(self._thetas)

    @property
    def mean(self) -> float:
        """``E[T] = sum_i 1/theta_i`` — the Eq. (12) chain sum."""
        return sum(1.0 / t for t in self._thetas)

    def cdf(self, t: float) -> float:
        """``P[T <= t]``."""
        if t <= 0.0:
            return 0.0
        total = 0.0
        for theta, coeff in zip(self._thetas, self._coefficients):
            total += coeff * math.exp(-theta * t)
        return min(1.0, max(0.0, 1.0 - total))

    def percentile(self, q: float) -> float:
        """Inverse CDF by bisection; ``q`` in ``[0, 1)``.

        Bisection is exact enough (1e-12 relative) and unconditionally
        robust, unlike Newton near coefficient cancellations.
        """
        if not 0.0 <= q < 1.0:
            raise ValidationError(f"percentile must be in [0, 1), got {q!r}")
        if q == 0.0:
            return 0.0
        lo, hi = 0.0, self.mean
        while self.cdf(hi) < q:
            hi *= 2.0
            if hi > 1e12 * self.mean:
                raise ValidationError("percentile search diverged")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.cdf(mid) < q:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-12 * max(1.0, hi):
                break
        return 0.5 * (lo + hi)


def _deduplicate(thetas: Sequence[float]) -> List[float]:
    """Perturb duplicate rates so the partial fractions are defined."""
    out: List[float] = []
    for theta in sorted(thetas):
        candidate = theta
        while any(abs(candidate - existing) < 1e-9 * candidate for existing in out):
            candidate *= 1.0 + 1e-7
        out.append(candidate)
    return out


def _partial_fractions(thetas: Sequence[float]) -> List[float]:
    """``C_i = prod_{j != i} theta_j / (theta_j - theta_i)``."""
    coefficients = []
    for i, ti in enumerate(thetas):
        c = 1.0
        for j, tj in enumerate(thetas):
            if i != j:
                c *= tj / (tj - ti)
        coefficients.append(c)
    return coefficients
