"""The paper's primary contribution: the two-phase joint optimizer.

* :mod:`repro.core.admission` — admission control: overloaded service
  instances shed requests until stable, producing the job-rejection-rate
  metric.
* :mod:`repro.core.objectives` — evaluators for the paper's objective
  functions, Eqs. (13)-(16).
* :mod:`repro.core.evaluation` — end-to-end evaluation of a joint
  solution against the open-Jackson-network analytics.
* :mod:`repro.core.joint` — :class:`JointOptimizer`, the two-phase
  pipeline (place with BFDSU, then schedule with RCKK) with pluggable
  algorithms.
"""

from repro.core.admission import AdmissionOutcome, apply_admission_control
from repro.core.evaluation import EvaluationReport, evaluate_deployment
from repro.core.joint import JointOptimizer, JointSolution
from repro.core.objectives import (
    average_node_utilization,
    average_response_latency,
    total_latency,
    total_nodes_in_service,
)
from repro.core.scaling import (
    ScaleOutPlan,
    required_instances,
    scale_out,
    size_instances,
)
from repro.core.local_search import RefinementReport, refine_placement
from repro.core.incremental import (
    AdmitReport,
    DeploymentEngine,
    RebalanceReport,
    solve_joint,
)
from repro.core.topology_eval import (
    average_total_latency_on_topology,
    total_latency_on_topology,
)

__all__ = [
    "JointOptimizer",
    "JointSolution",
    "apply_admission_control",
    "AdmissionOutcome",
    "evaluate_deployment",
    "EvaluationReport",
    "average_node_utilization",
    "total_nodes_in_service",
    "average_response_latency",
    "total_latency",
    "required_instances",
    "size_instances",
    "scale_out",
    "ScaleOutPlan",
    "total_latency_on_topology",
    "average_total_latency_on_topology",
    "refine_placement",
    "RefinementReport",
    "DeploymentEngine",
    "AdmitReport",
    "RebalanceReport",
    "solve_joint",
]
