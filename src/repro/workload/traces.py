"""Synthetic trace generation (substituting the paper's measured traces).

The paper drives its simulations with flow inter-arrival distributions
measured in real datacenters (Benson et al.).  Those traces are not
public at packet granularity; per DESIGN.md's substitution table we
generate the closest synthetic equivalents:

* :func:`poisson_arrival_times` — the Poisson streams the paper's model
  *assumes* (the open-Jackson prerequisite).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ValidationError
from repro.seeding import resolve_rng


def poisson_arrival_times(
    rate: float,
    horizon: float,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Arrival timestamps of a Poisson process on ``[0, horizon)``.

    Parameters
    ----------
    rate:
        Mean arrivals per second, > 0.
    horizon:
        Observation window length in seconds, > 0.
    rng:
        Seeded generator for reproducibility.
    """
    if rate <= 0.0:
        raise ValidationError(f"rate must be positive, got {rate!r}")
    if horizon <= 0.0:
        raise ValidationError(f"horizon must be positive, got {horizon!r}")
    rng = resolve_rng(rng)
    # Draw in blocks until the horizon is passed; exponential gaps.
    times = []
    t = 0.0
    block = max(16, int(rate * horizon * 1.2))
    while True:
        gaps = rng.exponential(1.0 / rate, size=block)
        for gap in gaps:
            t += gap
            if t >= horizon:
                return np.array(times)
            times.append(t)
