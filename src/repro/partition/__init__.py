"""Multi-way number partitioning substrate.

The paper maps request scheduling to Multi-Way Number Partitioning
(MWNP): divide the arrival rates ``lambda_r`` of the requests requiring a
VNF into ``M_f`` subsets with sums as equal as possible (Section IV-B).
This package provides:

* :mod:`repro.partition.base` — problem/solution data model and balance
  metrics (makespan, spread, variance).
* :mod:`repro.partition.greedy` — LPT/greedy partitioning, the first leaf
  of Korf's Complete Greedy Algorithm.
* :mod:`repro.partition.cga` — Complete Greedy Algorithm with a
  configurable search budget (the paper's baseline).
* :mod:`repro.partition.karmarkar_karp` — KK set differencing: the
  two-way heuristic, the two-way *complete* CKK search, and the multi-way
  tuple differencing that RCKK builds on.
* :mod:`repro.partition.rckk` — the paper's Reverse Complete
  Karmarkar-Karp heuristic (Algorithm 2), with provenance tracking so the
  request sets ``s_i`` fall out of the final partition.
* :mod:`repro.partition.kernels` — the multi-way KK kernel that RCKK
  runs on (list rows, implicit singletons, insertion for partition +
  singleton combines), byte-identical to the tuple-based reference.
* :mod:`repro.partition.exact` — exhaustive/branch-and-bound optimum for
  small instances, used to measure heuristic gaps in tests.
"""

from repro.partition.base import PartitionResult
from repro.partition.cga import complete_greedy_partition
from repro.partition.exact import exact_partition
from repro.partition.greedy import greedy_partition
from repro.partition.karmarkar_karp import (
    ckk_two_way,
    karmarkar_karp_multiway,
    karmarkar_karp_two_way,
)
from repro.partition.kernels import kk_multiway_kernel
from repro.partition.rckk import rckk_partition

__all__ = [
    "PartitionResult",
    "greedy_partition",
    "complete_greedy_partition",
    "karmarkar_karp_two_way",
    "karmarkar_karp_multiway",
    "kk_multiway_kernel",
    "ckk_two_way",
    "rckk_partition",
    "exact_partition",
]
