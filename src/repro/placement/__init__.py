"""VNF chain placement algorithms (Section IV-A of the paper).

* :mod:`repro.placement.base` — problem/result model shared by all
  algorithms.
* :mod:`repro.placement.bfdsu` — **BFDSU**, the paper's priority-driven
  weighted algorithm (Algorithm 1).
* :mod:`repro.placement.ffd` — First-Fit-Decreasing baseline.
* :mod:`repro.placement.nah` — Node Assignment Heuristic baseline
  (Xia et al. [12], re-implemented from the paper's description).
* :mod:`repro.placement.bfd` — deterministic Best-Fit-Decreasing with the
  Used/Spare priority (the ablation of BFDSU's randomization).
* :mod:`repro.placement.random_fit` — uniform random feasible placement
  (a statistical floor).
* :mod:`repro.placement.exact` — branch-and-bound minimum-nodes placement
  for small instances.
"""

from repro.placement.base import (
    PlacementAlgorithm,
    PlacementProblem,
    PlacementResult,
)
from repro.placement.best_of import BestOfKPlacement
from repro.placement.bfd import BFDPlacement
from repro.placement.bfdsu import BFDSUPlacement
from repro.placement.chain_affinity import ChainAffinityBFDSU
from repro.placement.exact import ExactPlacement
from repro.placement.ffd import FFDPlacement
from repro.placement.nah import NAHPlacement
from repro.placement.random_fit import RandomFitPlacement

__all__ = [
    "PlacementProblem",
    "PlacementResult",
    "PlacementAlgorithm",
    "BFDSUPlacement",
    "BestOfKPlacement",
    "ChainAffinityBFDSU",
    "FFDPlacement",
    "NAHPlacement",
    "BFDPlacement",
    "RandomFitPlacement",
    "ExactPlacement",
]
