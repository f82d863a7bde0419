"""repro — Joint Optimization of VNF Chain Placement and Request Scheduling.

A production-quality reproduction of the ICDCS 2017 paper "Joint
Optimization of Chain Placement and Request Scheduling for Network
Function Virtualization" (Zhang et al.): the BFDSU placement algorithm,
the RCKK request scheduler, the open-Jackson-network analytic model they
optimize, the baselines they are compared against (FFD, NAH, CGA), a
packet-level discrete-event simulator that validates the analytics, and
the full experiment harness regenerating every figure of the paper's
evaluation.

Quickstart
----------
>>> import numpy as np
>>> from repro import JointOptimizer, WorkloadGenerator
>>> gen = WorkloadGenerator(np.random.default_rng(7))
>>> w = gen.workload(num_vnfs=8, num_nodes=6, num_requests=40)
>>> solution = JointOptimizer().optimize(w.vnfs, w.requests, w.capacities)
>>> report = solution.evaluate()
>>> 0.0 < report.average_node_utilization <= 1.0
True
"""

from repro.core.joint import JointOptimizer, JointSolution
from repro.core.admission import admission_mask
from repro.core.evaluation import EvaluationReport, evaluate_deployment
from repro.exceptions import (
    ConfigurationError,
    InfeasiblePlacementError,
    MaxRestartsExceededError,
    ReproError,
    SchedulingError,
    SimulationError,
    UnstableQueueError,
    ValidationError,
)
from repro.nfv.chain import ServiceChain
from repro.nfv.request import Request
from repro.nfv.state import DeploymentState
from repro.nfv.vnf import VNF, VNFCategory
from repro.placement.base import PlacementProblem, PlacementResult
from repro.placement.bfdsu import BFDSUPlacement
from repro.placement.ffd import FFDPlacement
from repro.placement.nah import NAHPlacement
from repro.queueing.jackson import ChainFeedbackModel, OpenJacksonNetwork
from repro.queueing.mm1 import MM1Queue
from repro.scheduling.base import SchedulingProblem, ScheduleResult
from repro.scheduling.cga import CGAScheduler
from repro.scheduling.rckk import RCKKScheduler
from repro.sim.simulator import ChainSimulator, SimulationConfig
from repro.workload.generator import GeneratedWorkload, WorkloadGenerator

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # Core
    "JointOptimizer",
    "JointSolution",
    "evaluate_deployment",
    "EvaluationReport",
    "admission_mask",
    # Domain model
    "VNF",
    "VNFCategory",
    "ServiceChain",
    "Request",
    "DeploymentState",
    # Placement
    "PlacementProblem",
    "PlacementResult",
    "BFDSUPlacement",
    "FFDPlacement",
    "NAHPlacement",
    # Scheduling
    "SchedulingProblem",
    "ScheduleResult",
    "RCKKScheduler",
    "CGAScheduler",
    # Queueing
    "MM1Queue",
    "OpenJacksonNetwork",
    "ChainFeedbackModel",
    # Simulation
    "ChainSimulator",
    "SimulationConfig",
    # Workload
    "WorkloadGenerator",
    "GeneratedWorkload",
    # Errors
    "ReproError",
    "ValidationError",
    "InfeasiblePlacementError",
    "MaxRestartsExceededError",
    "UnstableQueueError",
    "SchedulingError",
    "SimulationError",
    "ConfigurationError",
]
