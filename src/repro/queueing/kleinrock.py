"""Kleinrock's independence approximation: the open-network traffic equations.

Section III-B: "Based on Kleinrock's Approximation, we define lambda_i as
the equivalent total arrival rate at a service instance i":

    ``lambda_i = lambda_i^0 + sum_j lambda_j P_ji``

where ``lambda_i^0`` is the external flow into instance ``i`` and
``lambda_j P_ji`` are internal flows routed from instance ``j``.  Each
merged stream is then *treated as if Poissonian*, so each instance remains
an M/M/1 queue.

This module gives the fixed-point traffic-equation solver used by
:class:`repro.queueing.jackson.OpenJacksonNetwork`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ValidationError


def solve_traffic_equations(
    external_rates: Sequence[float],
    routing_matrix: np.ndarray,
) -> np.ndarray:
    """Solve the open-network traffic equations ``lambda = lambda0 + R^T lambda``.

    Parameters
    ----------
    external_rates:
        Vector ``lambda0`` of external Poisson arrival rates, one per
        station.
    routing_matrix:
        Matrix ``R`` where ``R[j, i]`` is the probability a packet leaving
        station ``j`` is routed to station ``i``.  Row sums must be
        at most 1; the deficit is the probability of leaving the network.

    Returns
    -------
    numpy.ndarray
        The equivalent total arrival rates ``lambda`` at each station.

    Raises
    ------
    ValidationError
        If dimensions disagree, probabilities are invalid, or the network
        is not open (i.e. ``I - R^T`` is singular, meaning some traffic
        never leaves).
    """
    lam0 = np.asarray(external_rates, dtype=float)
    routing = np.asarray(routing_matrix, dtype=float)
    n = lam0.shape[0]
    if routing.shape != (n, n):
        raise ValidationError(
            f"routing matrix shape {routing.shape} does not match "
            f"{n} external rates"
        )
    if np.any(lam0 < 0.0):
        raise ValidationError("external arrival rates must be non-negative")
    if np.any(routing < -1e-12):
        raise ValidationError("routing probabilities must be non-negative")
    row_sums = routing.sum(axis=1)
    if np.any(row_sums > 1.0 + 1e-9):
        raise ValidationError(
            f"routing matrix row sums exceed 1 (max {row_sums.max():.6g}); "
            "the network would not be open"
        )
    system = np.eye(n) - routing.T
    try:
        rates = np.linalg.solve(system, lam0)
    except np.linalg.LinAlgError as exc:
        raise ValidationError(
            "traffic equations are singular: the routing matrix traps "
            "traffic in a closed loop, so the network is not open"
        ) from exc
    if np.any(rates < -1e-9):
        raise ValidationError(
            "traffic equations produced a negative rate; routing matrix "
            "is not a valid open-network routing"
        )
    return np.maximum(rates, 0.0)
