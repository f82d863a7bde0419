"""Little's-law and basic steady-state helpers for Markovian queues.

These small functions implement the identities used throughout
Section III-B of the paper:

* utilization            ``rho = Lambda / mu``                    (Eq. 9)
* mean number in system  ``N   = rho / (1 - rho)``                (Eq. 10)
* mean response time     ``W   = N / lambda_effective``           (Eq. 11)

They validate their inputs aggressively: the Jackson model only has a
steady state for ``rho < 1`` and silent division blow-ups would corrupt
every experiment built on top.
"""

from __future__ import annotations

from repro.exceptions import UnstableQueueError, ValidationError


def utilization(arrival_rate: float, service_rate: float) -> float:
    """Return the offered load ``rho = Lambda / mu`` of a single server.

    Parameters
    ----------
    arrival_rate:
        Equivalent total Poisson arrival rate ``Lambda`` at the server
        (packets per second).  Must be non-negative.
    service_rate:
        Exponential service rate ``mu`` (packets per second).  Must be
        strictly positive.
    """
    if service_rate <= 0.0:
        raise ValidationError(f"service rate must be positive, got {service_rate!r}")
    if arrival_rate < 0.0:
        raise ValidationError(f"arrival rate must be non-negative, got {arrival_rate!r}")
    return arrival_rate / service_rate


def require_stable(rho: float, *, context: str = "queue") -> None:
    """Raise :class:`UnstableQueueError` unless ``rho < 1``."""
    if rho >= 1.0:
        raise UnstableQueueError(
            f"{context} is unstable: utilization rho={rho:.6g} >= 1; "
            "admission control must reject load before steady-state "
            "metrics can be computed"
        )


def mean_number_in_system(arrival_rate: float, service_rate: float) -> float:
    """Mean number of packets in an M/M/1 system, ``N = rho/(1-rho)``.

    This is Eq. (10) of the paper, covering both the packet in service and
    the packets waiting in the buffer.
    """
    rho = utilization(arrival_rate, service_rate)
    require_stable(rho)
    return rho / (1.0 - rho)


def mean_response_time(arrival_rate: float, service_rate: float) -> float:
    """Mean sojourn (queueing + service) time, ``W = 1/(mu - Lambda)``.

    Little's law applied to :func:`mean_number_in_system`:
    ``W = N / Lambda = 1 / (mu - Lambda)``.
    """
    rho = utilization(arrival_rate, service_rate)
    require_stable(rho)
    return 1.0 / (service_rate - arrival_rate)


def mean_waiting_time(arrival_rate: float, service_rate: float) -> float:
    """Mean time spent waiting in the buffer (excluding service).

    ``Wq = W - 1/mu = rho / (mu - Lambda)``.
    """
    return mean_response_time(arrival_rate, service_rate) - 1.0 / service_rate
