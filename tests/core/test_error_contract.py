"""The error contract of the metric layer: bad input is rejected at entry.

Every objective, placement metric and schedule metric validates its input
once, at the boundary, and then runs only the column path.  Each case
below feeds one defect — an unplaced chain VNF, a node missing from the
capacity map, a missing schedule index, an out-of-range schedule index —
to every metric that reads that part of the solution, and expects a
``ValidationError`` carrying the validator's message (never a number, a
``KeyError`` or a ``SchedulingError``).  The simulator's run-control
parameters follow the same rule: a non-finite time is refused with a
message naming the field.  So do the scheduling scenarios of Figs.
11-16: a bad knob is refused at construction, not deep inside
``build``.  And ``refine_assignment`` refuses rates that do not match
its assignment one to one, or a way outside ``[0, num_ways)``, before
numpy can broadcast or index with them.
"""

from __future__ import annotations

import pytest

from repro.core import objectives
from repro.core.local_search import total_inter_node_hops
from repro.core.topology_eval import total_latency_on_topology
from repro.exceptions import ConfigurationError, ValidationError
from repro.nfv.chain import ServiceChain
from repro.nfv.request import Request
from repro.nfv.state import DeploymentState
from repro.nfv.vnf import VNF
from repro.placement.base import PlacementProblem, PlacementResult
from repro.scheduling.base import ScheduleResult, SchedulingProblem
from repro.scheduling.metrics import schedule_report
from repro.scheduling.swap_refine import refine_assignment
from repro.sim.simulator import SimulationConfig
from repro.topology.graph import DatacenterTopology
from repro.workload.scenarios import SchedulingScenario

VNFS = (VNF("fw", 10.0, 2, 100.0), VNF("nat", 5.0, 1, 200.0))
CHAIN = ServiceChain(["fw", "nat"])
REQUESTS = (Request("r0", CHAIN, 10.0), Request("r1", CHAIN, 20.0))
CAPACITIES = {"s0": 50.0, "s1": 50.0}
SCHEDULE = {("r0", "fw"): 0, ("r0", "nat"): 0, ("r1", "fw"): 1, ("r1", "nat"): 0}

#: One defect each; ``s2`` is a compute node of the fabric but has no
#: entry in the capacity map.
PLACEMENTS = {
    "unplaced_chain_vnf": {"fw": "s0"},
    "unknown_node": {"fw": "s0", "nat": "s2"},
}
SCHEDULES = {
    "missing_index": {
        key: k for key, k in SCHEDULE.items() if key != ("r1", "nat")
    },
    "out_of_range_index": {**SCHEDULE, ("r1", "fw"): 5},
}

#: The validator's message per defect, by the object that carries it.
STATE_MESSAGES = {
    "unplaced_chain_vnf": r"request 'r0' uses unplaced VNF 'nat'",
    "unknown_node": r"VNF 'nat' placed at unknown node 's2'",
    "missing_index": r"request 'r1' has no instance for VNF 'nat' \(Eq\. 5\)",
    "out_of_range_index": r"schedule references unknown instance \('fw', 5\)",
}
RESULT_MESSAGES = {
    "unplaced_chain_vnf": r"VNF 'nat' is not placed \(Eq\. 2\)",
    "unknown_node": r"VNF 'nat' placed at unknown node 's2'",
    "missing_index": r"request 'r1' unassigned \(Eq\. 5\)",
    "out_of_range_index": r"request 'r1': instance 5 out of range \[0, 2\)",
}


def _fabric() -> DatacenterTopology:
    topo = DatacenterTopology()
    for node in ("s0", "s1", "s2"):
        topo.add_compute_node(node, 50.0)
    topo.add_switch("sw")
    for node in ("s0", "s1", "s2"):
        topo.add_link(node, "sw", latency=1e-3)
    return topo


def _state(defect: str) -> DeploymentState:
    return DeploymentState(
        vnfs=VNFS,
        requests=REQUESTS,
        node_capacities=CAPACITIES,
        placement=dict(PLACEMENTS.get(defect, {"fw": "s0", "nat": "s1"})),
        schedule=dict(SCHEDULES.get(defect, SCHEDULE)),
    )


def _placement_result(defect: str) -> PlacementResult:
    problem = PlacementProblem(VNFS, CAPACITIES, chains=[CHAIN])
    return PlacementResult(placement=dict(PLACEMENTS[defect]), problem=problem)


def _schedule_result(defect: str) -> ScheduleResult:
    schedule = SCHEDULES[defect]
    assignment = {
        request_id: k
        for (request_id, vnf_name), k in schedule.items()
        if vnf_name == "fw"
    }
    if defect == "missing_index":
        del assignment["r1"]
    return ScheduleResult(
        assignment=assignment,
        problem=SchedulingProblem(vnf=VNFS[0], requests=REQUESTS),
    )


STATE_METRICS = {
    "total_latency": lambda s: objectives.total_latency(s, 0.1),
    "total_latency_on_topology": lambda s: total_latency_on_topology(
        s, _fabric()
    ),
}
STATE_SCHEDULE_METRICS = {
    "average_response_latency": objectives.average_response_latency,
    "per_request_response_time": objectives.per_request_response_time,
}
STATE_PLACEMENT_METRICS = {
    "total_inter_node_hops": total_inter_node_hops,
    "average_node_utilization": objectives.average_node_utilization,
    "total_nodes_in_service": objectives.total_nodes_in_service,
}
RESULT_METRICS = {
    "PlacementResult.node_loads": lambda r: r.node_loads(),
    "PlacementResult.num_used_nodes": lambda r: r.num_used_nodes,
    "PlacementResult.average_utilization": lambda r: r.average_utilization,
    "PlacementResult.total_occupied_capacity": (
        lambda r: r.total_occupied_capacity
    ),
}
SCHEDULE_METRICS = {
    "ScheduleResult.instance_rates": lambda r: r.instance_rates(),
    "schedule_report": schedule_report,
    "schedule_report(apply_admission)": (
        lambda r: schedule_report(r, apply_admission=True)
    ),
}


def _cases():
    for name, metric in STATE_METRICS.items():
        for defect in (*PLACEMENTS, *SCHEDULES):
            yield name, defect, metric, _state, STATE_MESSAGES[defect]
    for name, metric in STATE_SCHEDULE_METRICS.items():
        for defect in SCHEDULES:
            yield name, defect, metric, _state, STATE_MESSAGES[defect]
    for name, metric in STATE_PLACEMENT_METRICS.items():
        for defect in PLACEMENTS:
            yield name, defect, metric, _state, STATE_MESSAGES[defect]
    for name, metric in RESULT_METRICS.items():
        for defect in PLACEMENTS:
            yield (
                name, defect, metric, _placement_result,
                RESULT_MESSAGES[defect],
            )
    for name, metric in SCHEDULE_METRICS.items():
        for defect in SCHEDULES:
            yield (
                name, defect, metric, _schedule_result,
                RESULT_MESSAGES[defect],
            )


@pytest.mark.parametrize(
    "metric, build, defect, message",
    [
        pytest.param(metric, build, defect, message, id=f"{name}-{defect}")
        for name, defect, metric, build, message in _cases()
    ],
)
def test_bad_input_raises_the_validator_message(metric, build, defect, message):
    with pytest.raises(ValidationError, match=message):
        metric(build(defect))


def test_the_clean_inputs_evaluate():
    """The fixtures minus their defect are a valid deployment, so each
    case above fails on its defect alone."""
    state = _state("none")
    state.validate()
    for metric in (
        *STATE_METRICS.values(),
        *STATE_SCHEDULE_METRICS.values(),
        *STATE_PLACEMENT_METRICS.values(),
    ):
        metric(state)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["duration", "warmup", "nack_delay"])
def test_simulation_config_refuses_non_finite_times(field, value):
    with pytest.raises(ValidationError, match=f"^{field} must be finite"):
        SimulationConfig(**{field: value})


def test_simulation_config_refuses_a_negative_seed():
    with pytest.raises(ValidationError, match="^seed must be non-negative"):
        SimulationConfig(seed=-1)


@pytest.mark.parametrize(
    "field, value",
    [
        ("num_instances", 0),
        ("num_instances", -2),
        ("rho", float("nan")),
        ("rho", float("inf")),
        ("rate_range", (100.0, 1.0)),
        ("rate_range", (-5.0, 1.0)),
        ("rate_range", (0.0, 1.0)),
        ("rate_range", (1.0, float("inf"))),
        ("rate_range", (float("nan"), 1.0)),
    ],
)
def test_scheduling_scenario_refuses_bad_knobs(field, value):
    with pytest.raises(ConfigurationError, match=f"^{field} must be"):
        SchedulingScenario(**{field: value})


@pytest.mark.parametrize(
    "rates, assignment, message",
    [
        # One rate for two items must not broadcast to both.
        ([1.0], [0, 0], "^rates must give one value per assigned item"),
        ([1.0, 2.0, 3.0], [0, 0], "^rates must give one value per assigned"),
        ([1.0, 2.0], [2, 0], r"^assignment ways must lie in \[0, 2\), got 2"),
        ([1.0, 2.0], [0, -1], r"^assignment ways must lie in \[0, 2\), got -1"),
    ],
)
def test_refine_assignment_refuses_mismatched_input(rates, assignment, message):
    with pytest.raises(ValidationError, match=message):
        refine_assignment(rates, assignment, 2)
