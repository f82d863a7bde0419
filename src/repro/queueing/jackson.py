"""Open Jackson network solver.

Jackson's theorem: in an open network of ``n`` single-server Markovian
stations with external Poisson arrivals ``lambda0`` and Markovian routing
``R``, the steady-state joint distribution factorizes — each station ``i``
behaves as an independent M/M/1 queue with arrival rate ``lambda_i``
solving the traffic equations ``lambda = lambda0 + R^T lambda``.

Two entry points:

* :class:`OpenJacksonNetwork` — the general solver over an arbitrary
  routing matrix.  Used directly by the discrete-event-simulator
  validation tests and by power users who build their own topologies.
* :class:`ChainFeedbackModel` — the paper's special case (Fig. 3): a
  linear chain of VNFs with a source-side retransmission feedback loop of
  probability ``1 - P``.  Its closed forms,

      ``E[T_i] = 1 / (P mu_i - lambda_0)``,

  are what Eqs. (11)/(12) use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import UnstableQueueError, ValidationError
from repro.queueing.feedback import validate_delivery_probability
from repro.queueing.kleinrock import solve_traffic_equations
from repro.queueing.mm1 import MM1Queue


@dataclass(frozen=True)
class JacksonNodeMetrics:
    """Steady-state metrics of one station of an open Jackson network."""

    index: int
    arrival_rate: float
    service_rate: float
    utilization: float
    mean_number_in_system: float
    mean_response_time: float
    mean_waiting_time: float


@dataclass(frozen=True)
class JacksonSolution:
    """Solved steady state of an open Jackson network."""

    node_metrics: List[JacksonNodeMetrics]
    total_external_rate: float

    @property
    def mean_total_number(self) -> float:
        """Expected total packets in the network, ``sum_i N_i``."""
        return sum(m.mean_number_in_system for m in self.node_metrics)

    @property
    def mean_network_response_time(self) -> float:
        """Mean end-to-end time per *external* arrival (Little's law).

        ``E[T] = E[N] / lambda0_total`` — the average time an external
        packet spends in the network, counting revisits caused by
        feedback routing.
        """
        if self.total_external_rate <= 0.0:
            raise ValidationError(
                "network response time is undefined with zero external traffic"
            )
        return self.mean_total_number / self.total_external_rate


class OpenJacksonNetwork:
    """An open Jackson network over an arbitrary routing matrix.

    Parameters
    ----------
    service_rates:
        Per-station exponential service rates ``mu_i > 0``.
    routing_matrix:
        ``R[j, i]`` = probability a packet finishing service at station
        ``j`` proceeds to station ``i``; row deficits leave the network.
    external_rates:
        Per-station external Poisson arrival rates ``lambda0_i >= 0``.
    """

    def __init__(
        self,
        service_rates: Sequence[float],
        routing_matrix: Sequence[Sequence[float]],
        external_rates: Sequence[float],
    ) -> None:
        self._mu = np.asarray(service_rates, dtype=float)
        if np.any(self._mu <= 0.0):
            raise ValidationError("all service rates must be positive")
        self._routing = np.asarray(routing_matrix, dtype=float)
        self._lam0 = np.asarray(external_rates, dtype=float)
        n = self._mu.shape[0]
        if self._routing.shape != (n, n):
            raise ValidationError(
                f"routing matrix shape {self._routing.shape} does not match "
                f"{n} stations"
            )
        if self._lam0.shape[0] != n:
            raise ValidationError(
                f"{self._lam0.shape[0]} external rates given for {n} stations"
            )
        self._arrival_rates: Optional[np.ndarray] = None

    @property
    def num_stations(self) -> int:
        """Number of stations in the network."""
        return self._mu.shape[0]

    def arrival_rates(self) -> np.ndarray:
        """Equivalent total arrival rates from the traffic equations."""
        if self._arrival_rates is None:
            self._arrival_rates = solve_traffic_equations(self._lam0, self._routing)
        return self._arrival_rates

    def utilizations(self) -> np.ndarray:
        """Per-station ``rho_i = lambda_i / mu_i``."""
        return self.arrival_rates() / self._mu

    def is_stable(self) -> bool:
        """Whether every station satisfies ``rho_i < 1``."""
        return bool(np.all(self.utilizations() < 1.0))

    def solve(self) -> JacksonSolution:
        """Solve for the steady state of every station.

        Raises
        ------
        UnstableQueueError
            If any station has ``rho >= 1``.
        """
        rates = self.arrival_rates()
        metrics = []
        for i in range(self.num_stations):
            queue = MM1Queue(arrival_rate=float(rates[i]), service_rate=float(self._mu[i]))
            if not queue.is_stable:
                raise UnstableQueueError(
                    f"station {i} is unstable: lambda={rates[i]:.6g} >= "
                    f"mu={self._mu[i]:.6g}"
                )
            metrics.append(
                JacksonNodeMetrics(
                    index=i,
                    arrival_rate=queue.arrival_rate,
                    service_rate=queue.service_rate,
                    utilization=queue.rho,
                    mean_number_in_system=queue.mean_number_in_system,
                    mean_response_time=queue.mean_response_time,
                    mean_waiting_time=queue.mean_waiting_time,
                )
            )
        return JacksonSolution(
            node_metrics=metrics,
            total_external_rate=float(self._lam0.sum()),
        )


@dataclass(frozen=True)
class ChainFeedbackModel:
    """The paper's Fig. 3 model: a VNF chain with end-to-end loss feedback.

    Packets enter at external rate ``lambda0``, traverse the chain of
    service rates ``mu_1 .. mu_n`` in order, and are delivered correctly
    with probability ``P``; otherwise the destination NACKs and the packet
    re-enters at the head of the chain.  At steady state every VNF sees the
    same equivalent rate ``lambda = lambda0 / P`` (Burke), so

        ``E[N_i] = lambda0 / (P mu_i - lambda0)``
        ``E[T_i] = 1 / (P mu_i - lambda0)``
        ``E[T]   = sum_i E[T_i]``
    """

    external_rate: float
    service_rates: Sequence[float]
    delivery_probability: float = 1.0
    _rates: tuple = field(init=False, repr=False, default=())

    def __post_init__(self) -> None:
        if self.external_rate < 0.0:
            raise ValidationError(
                f"external rate must be non-negative, got {self.external_rate!r}"
            )
        validate_delivery_probability(self.delivery_probability)
        rates = tuple(float(mu) for mu in self.service_rates)
        if not rates:
            raise ValidationError("chain must contain at least one VNF")
        if any(mu <= 0.0 for mu in rates):
            raise ValidationError("all service rates must be positive")
        object.__setattr__(self, "_rates", rates)

    @property
    def equivalent_rate(self) -> float:
        """The per-VNF equivalent arrival rate ``lambda = lambda0 / P``."""
        return self.external_rate / self.delivery_probability

    def is_stable(self) -> bool:
        """Whether every VNF on the chain satisfies ``lambda < mu_i``."""
        lam = self.equivalent_rate
        return all(lam < mu for mu in self._rates)

    def _require_stable(self) -> None:
        if not self.is_stable():
            raise UnstableQueueError(
                f"chain is unstable: equivalent rate {self.equivalent_rate:.6g} "
                f"exceeds the slowest service rate {min(self._rates):.6g}"
            )

    def mean_response_time_at(self, i: int) -> float:
        """``E[T_i] = 1 / (P mu_i - lambda0)`` for the i-th VNF (0-based)."""
        self._require_stable()
        mu = self._rates[i]
        return 1.0 / (self.delivery_probability * mu - self.external_rate)

    def total_response_time(self) -> float:
        """End-to-end chain latency per delivered packet, ``sum_i E[T_i]``."""
        return sum(
            self.mean_response_time_at(i) for i in range(len(self._rates))
        )

    def to_jackson_network(self) -> OpenJacksonNetwork:
        """Build the equivalent explicit Jackson network (for validation).

        The chain becomes ``n`` stations in series; the last station routes
        back to the first with probability ``1 - P`` (the retransmission
        loop) and leaves the network with probability ``P``.
        """
        n = len(self._rates)
        routing = np.zeros((n, n))
        for i in range(n - 1):
            routing[i, i + 1] = 1.0
        routing[n - 1, 0] = 1.0 - self.delivery_probability
        external = np.zeros(n)
        external[0] = self.external_rate
        return OpenJacksonNetwork(
            service_rates=self._rates,
            routing_matrix=routing,
            external_rates=external,
        )
