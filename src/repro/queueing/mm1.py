"""Analytic M/M/1 queue — the model of one VNF service instance.

The paper (Section III-B) models every service instance of a VNF as an
M/M/1 queue: Poisson packet arrivals at an equivalent total rate
``Lambda_k^f`` (several request flows merged via Kleinrock's
approximation, each inflated by its loss feedback) and an exponential
single server with rate ``mu_f``.

:class:`MM1Queue` exposes every steady-state quantity the evaluation
needs: utilization (Eq. 9), queue-length distribution (Eq. 8), mean
number in system (Eq. 10) and mean response time (Eqs. 11/12), plus
response-time percentiles used for the tail-latency analysis in
Section V-C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import UnstableQueueError, ValidationError
from repro.queueing import littles_law


@dataclass(frozen=True)
class MM1Queue:
    """Steady-state analytics for an M/M/1 queue.

    Parameters
    ----------
    arrival_rate:
        Equivalent total Poisson arrival rate ``Lambda`` (packets/s).
    service_rate:
        Exponential service rate ``mu`` (packets/s).

    The queue may be constructed in an unstable configuration
    (``arrival_rate >= service_rate``); :attr:`is_stable` reports this and
    the steady-state accessors raise :class:`UnstableQueueError`.  This
    mirrors the paper's admission-control story: overload is a legal state
    of the *system* (requests get rejected), just not one with steady-state
    statistics.
    """

    arrival_rate: float
    service_rate: float

    def __post_init__(self) -> None:
        if self.service_rate <= 0.0:
            raise ValidationError(
                f"service rate must be positive, got {self.service_rate!r}"
            )
        if self.arrival_rate < 0.0:
            raise ValidationError(
                f"arrival rate must be non-negative, got {self.arrival_rate!r}"
            )

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------
    @property
    def rho(self) -> float:
        """Offered load ``rho = Lambda / mu`` (Eq. 9)."""
        return self.arrival_rate / self.service_rate

    @property
    def is_stable(self) -> bool:
        """Whether a steady state exists (``rho < 1``)."""
        return self.rho < 1.0

    def _require_stable(self) -> None:
        if not self.is_stable:
            raise UnstableQueueError(
                f"M/M/1 queue with Lambda={self.arrival_rate:.6g}, "
                f"mu={self.service_rate:.6g} (rho={self.rho:.6g}) has no steady state"
            )

    # ------------------------------------------------------------------
    # Queue-length distribution (Eq. 8)
    # ------------------------------------------------------------------
    def prob_n_in_system(self, n: int) -> float:
        """Steady-state probability ``pi(n) = (1 - rho) rho^n`` of Eq. (8)."""
        if n < 0:
            raise ValidationError(f"n must be non-negative, got {n!r}")
        self._require_stable()
        rho = self.rho
        return (1.0 - rho) * rho**n

    def prob_more_than(self, n: int) -> float:
        """Tail probability ``P[N > n] = rho^(n+1)``."""
        if n < 0:
            raise ValidationError(f"n must be non-negative, got {n!r}")
        self._require_stable()
        return self.rho ** (n + 1)

    # ------------------------------------------------------------------
    # Means (Eqs. 10-12)
    # ------------------------------------------------------------------
    @property
    def mean_number_in_system(self) -> float:
        """Mean packets in the instance, ``N = rho / (1 - rho)`` (Eq. 10)."""
        self._require_stable()
        return self.rho / (1.0 - self.rho)

    @property
    def mean_queue_length(self) -> float:
        """Mean packets waiting in the buffer, ``Nq = rho^2/(1-rho)``."""
        return littles_law.mean_queue_length(self.arrival_rate, self.service_rate)

    @property
    def mean_response_time(self) -> float:
        """Mean sojourn time ``W = 1/(mu - Lambda)`` (Eq. 12 with P=1)."""
        self._require_stable()
        return 1.0 / (self.service_rate - self.arrival_rate)

    @property
    def mean_waiting_time(self) -> float:
        """Mean buffer time ``Wq = rho/(mu - Lambda)``."""
        return littles_law.mean_waiting_time(self.arrival_rate, self.service_rate)

    # ------------------------------------------------------------------
    # Response-time distribution
    # ------------------------------------------------------------------
    def response_time_cdf(self, t: float) -> float:
        """CDF of the sojourn time: ``F(t) = 1 - exp(-(mu - Lambda) t)``.

        The M/M/1 sojourn time is exponential with rate ``mu - Lambda``.
        """
        if t < 0.0:
            return 0.0
        self._require_stable()
        return 1.0 - math.exp(-(self.service_rate - self.arrival_rate) * t)

    def response_time_percentile(self, q: float) -> float:
        """Inverse CDF of the sojourn time; ``q`` in ``[0, 1)``.

        Used for the paper's 99th-percentile tail analysis:
        ``t_q = -ln(1 - q) / (mu - Lambda)``.
        """
        if not 0.0 <= q < 1.0:
            raise ValidationError(f"percentile must be in [0, 1), got {q!r}")
        self._require_stable()
        return -math.log(1.0 - q) / (self.service_rate - self.arrival_rate)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def with_arrival_rate(self, arrival_rate: float) -> "MM1Queue":
        """Return a copy of this queue with a different arrival rate."""
        return MM1Queue(arrival_rate=arrival_rate, service_rate=self.service_rate)

    def headroom(self) -> float:
        """Remaining service capacity ``mu - Lambda`` (may be negative)."""
        return self.service_rate - self.arrival_rate


# ----------------------------------------------------------------------
# Vectorized forms — one entry per service instance
# ----------------------------------------------------------------------
def mm1_utilizations(
    arrival_rates: np.ndarray, service_rates: np.ndarray
) -> np.ndarray:
    """Elementwise ``rho = Lambda / mu`` (Eq. 9) over instance columns."""
    return np.asarray(arrival_rates) / np.asarray(service_rates)


def mm1_mean_numbers_in_system(
    arrival_rates: np.ndarray, service_rates: np.ndarray
) -> np.ndarray:
    """Elementwise ``N = rho / (1 - rho)`` (Eq. 10); ``inf`` if unstable.

    The arithmetic mirrors :attr:`MM1Queue.mean_number_in_system` op for
    op, so stable entries are bit-identical to the scalar path.
    """
    rho = mm1_utilizations(arrival_rates, service_rates)
    with np.errstate(divide="ignore", invalid="ignore"):
        n = rho / (1.0 - rho)
    return np.where(rho < 1.0, n, np.inf)


def mm1_mean_response_times(
    arrival_rates: np.ndarray,
    service_rates: np.ndarray,
    external_rates: np.ndarray,
) -> np.ndarray:
    """Elementwise ``W = N / external`` (Eqs. 11/12); ``inf`` if unstable.

    ``external_rates`` is the raw (pre-feedback) arrival rate the mean
    packet count is amortized over, per Eq. (11).  Entries with a zero
    external rate (idle instances, where ``W`` is undefined) come back
    ``nan`` and must be masked by the caller.
    """
    n = mm1_mean_numbers_in_system(arrival_rates, service_rates)
    external = np.asarray(external_rates, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = n / external
    return np.where(external > 0.0, w, np.nan)
