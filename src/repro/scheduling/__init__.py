"""Request scheduling algorithms (Section IV-B of the paper).

Scheduling assigns each request requiring a VNF ``f`` to one of its
``M_f`` service instances — the MWNP balancing problem.  Provided
algorithms:

* :mod:`repro.scheduling.rckk` — **RCKK**, the paper's heuristic
  (Algorithm 2).
* :mod:`repro.scheduling.cga` — Complete Greedy Algorithm baseline.
* :mod:`repro.scheduling.round_robin` — arrival-order round-robin.
* :mod:`repro.scheduling.random_assign` — uniform random assignment.
* :mod:`repro.scheduling.least_loaded` — join-the-least-loaded greedy.
* :mod:`repro.scheduling.metrics` — the latency/rejection metrics of
  Figs. 11-16 plus tail statistics.
"""

from repro.scheduling.base import (
    SchedulingAlgorithm,
    SchedulingProblem,
    ScheduleResult,
)
from repro.scheduling.cga import CGAScheduler
from repro.scheduling.ckk import CKKScheduler
from repro.scheduling.least_loaded import LeastLoadedScheduler
from repro.scheduling.metrics import schedule_report
from repro.scheduling.random_assign import RandomScheduler
from repro.scheduling.rckk import RCKKScheduler
from repro.scheduling.round_robin import RoundRobinScheduler
from repro.scheduling.swap_refine import SwapRefinedScheduler

__all__ = [
    "SwapRefinedScheduler",
    "SchedulingProblem",
    "ScheduleResult",
    "SchedulingAlgorithm",
    "RCKKScheduler",
    "CGAScheduler",
    "CKKScheduler",
    "RoundRobinScheduler",
    "RandomScheduler",
    "LeastLoadedScheduler",
    "schedule_report",
]
