"""Summary statistics for Monte-Carlo experiment results.

The paper reports means over 1000 runs plus 99th-percentile tails
(Section V-C); the sweep drivers take the means with numpy and the
tails with :func:`percentile`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ValidationError


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (``q`` in [0, 100]), linear interpolation."""
    if not samples:
        raise ValidationError("cannot take a percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValidationError(f"percentile must be in [0, 100], got {q!r}")
    return float(np.percentile(np.asarray(samples, dtype=float), q))
