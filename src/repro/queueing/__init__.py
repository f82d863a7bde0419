"""Queueing-theoretic substrate: M/M/1, M/M/c and open Jackson networks.

This package supplies the closed-form analytics the paper builds on
(Section III-B):

* :mod:`repro.queueing.mm1` — single-server Markovian queues, the model of
  one VNF service instance.
* :mod:`repro.queueing.mmc` — multi-server queues (an extension used by the
  ablation studies; the paper models each instance as its own M/M/1).
* :mod:`repro.queueing.feedback` — loss-feedback effective arrival rates:
  a request whose packets are delivered correctly with probability ``P``
  contributes an effective Poisson rate ``lambda / P`` (Burke's theorem at
  steady state).
* :mod:`repro.queueing.kleinrock` — Kleinrock's independence approximation
  for merging several request flows into one instance-level stream.
* :mod:`repro.queueing.jackson` — an open Jackson network solver over an
  arbitrary routing matrix, plus the chain-structured convenience used to
  model a single VNF chain with a retransmission feedback loop.
* :mod:`repro.queueing.littles_law` — Little's-law helpers shared by the
  other modules.
"""

from repro.queueing.jackson import (
    ChainFeedbackModel,
    JacksonNodeMetrics,
    JacksonSolution,
    OpenJacksonNetwork,
)
from repro.queueing.littles_law import (
    mean_number_in_system,
    mean_response_time,
    utilization,
)
from repro.queueing.hypoexponential import HypoexponentialLatency
from repro.queueing.mg1 import MG1Queue
from repro.queueing.mm1 import (
    MM1Queue,
    mm1_mean_numbers_in_system,
    mm1_mean_response_times,
    mm1_utilizations,
)
from repro.queueing.mmc import MMCQueue

__all__ = [
    "MM1Queue",
    "mm1_utilizations",
    "mm1_mean_numbers_in_system",
    "mm1_mean_response_times",
    "MMCQueue",
    "MG1Queue",
    "HypoexponentialLatency",
    "OpenJacksonNetwork",
    "JacksonSolution",
    "JacksonNodeMetrics",
    "ChainFeedbackModel",
    "utilization",
    "mean_number_in_system",
    "mean_response_time",
]
