"""Requests — Poisson packet streams traversing a service chain.

A request ``r`` carries an external Poisson arrival rate ``lambda_r``
(packets/s) and a correct-delivery probability ``P_r``; lost packets are
retransmitted from the source, inflating the effective rate seen by every
VNF on its chain to ``lambda_r / P_r`` (Eq. 7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import ValidationError
from repro.nfv.chain import ServiceChain


@dataclass(frozen=True)
class Request:
    """A request (flow) to be scheduled onto service instances.

    Parameters
    ----------
    request_id:
        Unique identifier within the problem instance.
    chain:
        The :class:`ServiceChain` this request must traverse, in order.
    arrival_rate:
        External Poisson rate ``lambda_r > 0`` (packets/s), finite.
    delivery_probability:
        ``P_r`` in ``(0, 1]``; ``1 - P_r`` of packets are NACKed and
        retransmitted.
    """

    request_id: str
    chain: ServiceChain
    arrival_rate: float
    delivery_probability: float = 1.0

    def __post_init__(self) -> None:
        if not self.request_id:
            raise ValidationError("request id must be non-empty")
        if self.arrival_rate <= 0.0:
            raise ValidationError(
                f"request {self.request_id!r}: arrival rate must be positive, "
                f"got {self.arrival_rate!r}"
            )
        if not math.isfinite(self.arrival_rate):
            raise ValidationError(
                f"request {self.request_id!r}: arrival rate must be finite, "
                f"got {self.arrival_rate!r}"
            )
        if not 0.0 < self.delivery_probability <= 1.0:
            raise ValidationError(
                f"request {self.request_id!r}: delivery probability must be "
                f"in (0, 1], got {self.delivery_probability!r}"
            )

    @property
    def effective_rate(self) -> float:
        """Effective per-VNF rate with loss feedback, ``lambda_r / P_r``.

        The scalar form of
        :func:`repro.queueing.feedback.effective_arrival_rates`, whose
        checks the constructor has already made.
        """
        return self.arrival_rate / self.delivery_probability

    def uses(self, vnf_name: str) -> bool:
        """The ``U_r^f`` indicator for this request."""
        return self.chain.uses(vnf_name)
