"""Analytic M/M/c queue (Erlang-C) — extension substrate.

The paper models every service instance as its own M/M/1 queue and
*suggests* placing all ``M_f`` instances of a VNF on one node.  A natural
design alternative — used by our ablation benchmarks — is to treat the
``M_f`` instances as a single M/M/c station with a shared buffer.  This
module provides the Erlang-C analytics for that comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import UnstableQueueError, ValidationError


@dataclass(frozen=True)
class MMCQueue:
    """Steady-state analytics for an M/M/c queue with FCFS discipline.

    Parameters
    ----------
    arrival_rate:
        Total Poisson arrival rate ``Lambda`` (packets/s).
    service_rate:
        Per-server exponential rate ``mu`` (packets/s).
    servers:
        Number of identical parallel servers ``c >= 1``.
    """

    arrival_rate: float
    service_rate: float
    servers: int

    def __post_init__(self) -> None:
        if self.service_rate <= 0.0:
            raise ValidationError(
                f"service rate must be positive, got {self.service_rate!r}"
            )
        if self.arrival_rate < 0.0:
            raise ValidationError(
                f"arrival rate must be non-negative, got {self.arrival_rate!r}"
            )
        if self.servers < 1:
            raise ValidationError(f"server count must be >= 1, got {self.servers!r}")

    @property
    def offered_load(self) -> float:
        """Offered load in Erlangs, ``a = Lambda / mu``."""
        return self.arrival_rate / self.service_rate

    @property
    def rho(self) -> float:
        """Per-server utilization ``rho = Lambda / (c mu)``."""
        return self.offered_load / self.servers

    @property
    def is_stable(self) -> bool:
        """Whether a steady state exists (``rho < 1``)."""
        return self.rho < 1.0

    def _require_stable(self) -> None:
        if not self.is_stable:
            raise UnstableQueueError(
                f"M/M/{self.servers} queue with Lambda={self.arrival_rate:.6g}, "
                f"mu={self.service_rate:.6g} (rho={self.rho:.6g}) has no steady state"
            )

    def erlang_c(self) -> float:
        """Probability an arriving packet must wait (Erlang-C formula).

        Computed with the standard numerically-stable recurrence on the
        Erlang-B blocking probability:
        ``B(0) = 1``, ``B(k) = a B(k-1) / (k + a B(k-1))``, then
        ``C = B(c) / (1 - rho (1 - B(c)))``.
        """
        self._require_stable()
        a = self.offered_load
        blocking = 1.0
        for k in range(1, self.servers + 1):
            blocking = a * blocking / (k + a * blocking)
        rho = self.rho
        return blocking / (1.0 - rho * (1.0 - blocking))

    @property
    def mean_waiting_time(self) -> float:
        """Mean time in the buffer, ``Wq = C / (c mu - Lambda)``."""
        self._require_stable()
        return self.erlang_c() / (
            self.servers * self.service_rate - self.arrival_rate
        )

    @property
    def mean_response_time(self) -> float:
        """Mean sojourn time, ``W = Wq + 1/mu``."""
        return self.mean_waiting_time + 1.0 / self.service_rate

    @property
    def mean_number_in_system(self) -> float:
        """Mean packets in the station (Little: ``N = Lambda W``)."""
        return self.arrival_rate * self.mean_response_time
