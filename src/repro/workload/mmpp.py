"""Markov-modulated Poisson process (MMPP) traces — burstiness substrate.

Datacenter traffic is bursty: flows arrive in on/off phases rather than
at a constant Poisson rate.  The two-state MMPP is the standard minimal
burstiness model — a hidden Markov chain switches between a *high* and a
*low* rate, and arrivals are Poisson at the current state's rate.  Used
by the stress tests probing how far the open-Jackson analytics (which
assume plain Poisson input) degrade under burstiness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exceptions import ValidationError
from repro.seeding import resolve_rng


@dataclass(frozen=True)
class MMPP2:
    """A two-state Markov-modulated Poisson process.

    Parameters
    ----------
    rate_high, rate_low:
        Poisson arrival rates in the two states (packets/s); high >= low.
    switch_to_low, switch_to_high:
        Exponential transition rates out of the high / low state (1/s).
    """

    rate_high: float
    rate_low: float
    switch_to_low: float
    switch_to_high: float

    def __post_init__(self) -> None:
        if self.rate_low < 0.0 or self.rate_high <= 0.0:
            raise ValidationError(
                "MMPP rates must satisfy rate_high > 0 and rate_low >= 0"
            )
        if self.rate_high < self.rate_low:
            raise ValidationError("rate_high must be >= rate_low")
        if self.switch_to_low <= 0.0 or self.switch_to_high <= 0.0:
            raise ValidationError("switch rates must be positive")

    @property
    def stationary_high_fraction(self) -> float:
        """Long-run fraction of time spent in the high state."""
        return self.switch_to_high / (self.switch_to_high + self.switch_to_low)

    @property
    def mean_rate(self) -> float:
        """Long-run average arrival rate."""
        p_high = self.stationary_high_fraction
        return p_high * self.rate_high + (1.0 - p_high) * self.rate_low

    def sample_arrival_times(
        self,
        horizon: float,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Arrival timestamps on ``[0, horizon)``.

        Simulated by thinning within state sojourns: in each state,
        exponential inter-arrivals at the state's rate until the next
        state switch.
        """
        if horizon <= 0.0:
            raise ValidationError(f"horizon must be positive, got {horizon!r}")
        rng = resolve_rng(rng)
        times = []
        t = 0.0
        # Start from the stationary distribution.
        high = bool(rng.uniform() < self.stationary_high_fraction)
        while t < horizon:
            rate = self.rate_high if high else self.rate_low
            switch_rate = self.switch_to_low if high else self.switch_to_high
            sojourn = float(rng.exponential(1.0 / switch_rate))
            state_end = min(t + sojourn, horizon)
            if rate > 0.0:
                clock = t
                while True:
                    clock += float(rng.exponential(1.0 / rate))
                    if clock >= state_end:
                        break
                    times.append(clock)
            t = state_end
            high = not high
        return np.array(times)
