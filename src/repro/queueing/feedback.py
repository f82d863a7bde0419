"""Loss-feedback effective arrival rates (Burke's theorem at steady state).

Section III-B of the paper analyses a request whose packets are delivered
correctly with probability ``P``; lost packets trigger a NACK and are
retransmitted from the source.  At steady state the flow conservation
equation ``lambda_0 + (1 - P) lambda = lambda`` gives the *equivalent*
arrival rate seen by every VNF on the chain:

    ``lambda = lambda_0 / P``

Eq. (7) sums these per-request effective rates into the equivalent total
rate at each service instance:

    ``Lambda_k^f = sum_r (lambda_r / P_r) z_{r,k}^f``
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ValidationError


def validate_delivery_probability(p: float) -> None:
    """Raise unless ``p`` is a valid delivery probability in ``(0, 1]``."""
    if not 0.0 < p <= 1.0:
        raise ValidationError(
            f"delivery probability must be in (0, 1], got {p!r}"
        )


def effective_arrival_rates(
    external_rates: Sequence[float],
    delivery_probabilities: Sequence[float],
) -> np.ndarray:
    """Effective per-request rates ``lambda_r / P_r`` with loss feedback.

    The columnar form of Eq. (7)'s ingredients; the trace-driven
    simulation backend and its benchmarks use it to size scenarios and
    cross-check measured utilizations against the closed form.
    """
    lam = np.asarray(external_rates, dtype=np.float64)
    p = np.asarray(delivery_probabilities, dtype=np.float64)
    if lam.shape != p.shape:
        raise ValidationError(
            f"rate and probability columns must align, got shapes "
            f"{lam.shape} and {p.shape}"
        )
    if np.any(lam < 0.0):
        raise ValidationError("external arrival rates must be non-negative")
    if np.any((p <= 0.0) | (p > 1.0)):
        raise ValidationError("delivery probabilities must be in (0, 1]")
    return lam / p
