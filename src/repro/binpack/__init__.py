"""Lower bounds on the number of bins (nodes in service).

The paper proves VNF chain placement NP-hard by reduction from
variable-sized bin packing (Theorem 1).  This package keeps the classic
lower bounds on the optimal bin count over *variable-sized,
finitely-supplied* bins, which sandwich the placement heuristics as
``lower_bound <= OPT <= heuristic``.
"""

from repro.binpack.lower_bounds import (
    best_l2_lower_bound,
    continuous_lower_bound,
    l2_lower_bound,
    min_bins_possible,
)

__all__ = [
    "continuous_lower_bound",
    "l2_lower_bound",
    "best_l2_lower_bound",
    "min_bins_possible",
]
