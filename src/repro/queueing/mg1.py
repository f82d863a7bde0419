"""M/G/1 queue (Pollaczek-Khinchine) — service-distribution sensitivity.

The paper's model assumes exponential service; real packet-processing
times are often less variable (near-deterministic per-packet work) or
more (mixed packet sizes).  The Pollaczek-Khinchine mean-value formula
quantifies what that assumption is worth:

    ``Wq = lambda E[S^2] / (2 (1 - rho))``
    ``W  = Wq + E[S]``

parameterized by the squared coefficient of variation ``cs2`` of the
service time (``cs2 = 1`` recovers M/M/1, ``cs2 = 0`` is M/D/1).  Used
by the sensitivity tests bounding the model error when service is not
exponential.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import UnstableQueueError, ValidationError


@dataclass(frozen=True)
class MG1Queue:
    """Mean-value analytics for an M/G/1 queue.

    Parameters
    ----------
    arrival_rate:
        Poisson arrival rate ``lambda``.
    service_rate:
        ``mu = 1 / E[S]``; the mean service rate.
    service_cv2:
        Squared coefficient of variation of the service time,
        ``Var[S] / E[S]^2``; 1 for exponential, 0 for deterministic.
    """

    arrival_rate: float
    service_rate: float
    service_cv2: float = 1.0

    def __post_init__(self) -> None:
        if self.service_rate <= 0.0:
            raise ValidationError(
                f"service rate must be positive, got {self.service_rate!r}"
            )
        if self.arrival_rate < 0.0:
            raise ValidationError(
                f"arrival rate must be non-negative, got {self.arrival_rate!r}"
            )
        if self.service_cv2 < 0.0:
            raise ValidationError(
                f"squared CV must be non-negative, got {self.service_cv2!r}"
            )

    @property
    def rho(self) -> float:
        """Offered load ``lambda / mu``."""
        return self.arrival_rate / self.service_rate

    @property
    def is_stable(self) -> bool:
        """Whether a steady state exists (``rho < 1``)."""
        return self.rho < 1.0

    def _require_stable(self) -> None:
        if not self.is_stable:
            raise UnstableQueueError(
                f"M/G/1 queue with rho={self.rho:.6g} has no steady state"
            )

    @property
    def mean_waiting_time(self) -> float:
        """Pollaczek-Khinchine: ``Wq = rho (1 + cs2) / (2 mu (1 - rho))``.

        (Equivalent to ``lambda E[S^2] / (2 (1 - rho))`` with
        ``E[S^2] = (1 + cs2) / mu^2``.)
        """
        self._require_stable()
        return (
            self.rho
            * (1.0 + self.service_cv2)
            / (2.0 * self.service_rate * (1.0 - self.rho))
        )

    @property
    def mean_response_time(self) -> float:
        """``W = Wq + 1/mu``."""
        return self.mean_waiting_time + 1.0 / self.service_rate

    @property
    def mean_number_in_system(self) -> float:
        """Little: ``N = lambda W``."""
        return self.arrival_rate * self.mean_response_time
