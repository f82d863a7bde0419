"""Topology comparison — flat ``L`` vs real fabrics vs bandwidth limits.

The paper charges a flat latency ``L`` per inter-node chain hop and
assumes link bandwidth is plentiful.  This experiment quantifies what
those two simplifications hide, on three fabrics (a random SNDlib-style
datacenter, a k=4 fat-tree, and the vendored Abilene backbone):

* **flat** — the paper's pipeline verbatim (BFDSU + relocate local
  search on hop counts), scored both by the flat-``L`` Eq. (16) and by
  the fabric's measured shortest-path latencies.  The gap between the
  two is the model error of a uniform ``L``.
* **fabric-aware** — the same placement post-optimized with
  :func:`~repro.core.local_search.swap_placement` against the measured
  latency matrix: what topology awareness buys.
* **bandwidth-aware** — the network-aware solver stack
  (:class:`~repro.topology.network.NetworkModel` inside BFDSU and the
  swap pass) under a deliberately tight per-link budget calibrated to
  80% of the flat placement's peak link load.  Its placements must
  oversubscribe **zero** links while the fabric-blind placement
  oversubscribes several under the same budget.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.arrays import ScenarioArrays
from repro.core.evaluation import evaluate_deployment
from repro.exceptions import MaxRestartsExceededError
from repro.core.local_search import refine_placement, swap_placement
from repro.core.topology_eval import total_latency_on_topology
from repro.experiments.harness import ExperimentResult
from repro.experiments.montecarlo import run_trials
from repro.experiments.registry import ExperimentSpec, register
from repro.nfv.request import Request
from repro.nfv.state import DeploymentState
from repro.placement.base import PlacementProblem
from repro.placement.bfdsu import BFDSUPlacement
from repro.scheduling.kernels import schedule_columns
from repro.scheduling.rckk import RCKKScheduler
from repro.topology.fattree import fat_tree
from repro.topology.io import abilene
from repro.topology.network import NetworkModel
from repro.topology.random_topology import random_datacenter
from repro.workload.generator import WorkloadGenerator

#: Compared solver variants, in report order.
VARIANTS = ("flat", "fabric-aware", "bandwidth-aware")

#: Compared fabrics, in report order.
FABRICS = ("random24", "fattree4", "abilene")

#: Tight budget: this fraction of the flat placement's peak link load.
BANDWIDTH_FRACTION = 0.8


def _build_fabric(
    name: str,
    total_demand: float,
    max_demand: float,
    rng: np.random.Generator,
):
    """A fabric with uniform compute capacities sized to ~2x the load.

    Every VNF colocates all its instances on one node (Eq. 2), so the
    capacity floor is the largest per-VNF demand bundle.
    """

    def capacity(num_compute: int) -> float:
        return max(2.0 * total_demand / num_compute, 1.5 * max_demand)

    if name == "random24":
        return random_datacenter(
            24, rng=rng, capacities=[capacity(24)] * 24
        )
    if name == "fattree4":
        return fat_tree(4, capacity=capacity(16))
    if name == "abilene":
        return abilene(capacity=capacity(11))
    raise ValueError(f"unknown fabric {name!r}")


def _rescale_for_stability(vnfs, requests, target: float = 0.7):
    """Scale arrival rates so every VNF's aggregate load is stable.

    Same convention as the benchmarks: cap the per-VNF aggregate
    utilization ``sum_r lambda_r/P_r / (M_f mu_f)`` at ``target`` so the
    Eq. (16) latencies are finite and the fabrics are compared on the
    no-shedding path.
    """
    load = {f.name: 0.0 for f in vnfs}
    for request in requests:
        for vnf_name in request.chain:
            load[vnf_name] += request.effective_rate
    worst = max(
        load[f.name] / (f.num_instances * f.service_rate)
        for f in vnfs
        if f.num_instances * f.service_rate > 0
    )
    if worst <= target:
        return list(requests)
    scale = target / worst
    return [
        Request(
            request_id=r.request_id,
            chain=r.chain,
            arrival_rate=r.arrival_rate * scale,
            delivery_probability=r.delivery_probability,
        )
        for r in requests
    ]


def _state(w, requests, caps, placement, schedule) -> DeploymentState:
    return DeploymentState(
        vnfs=w.vnfs,
        requests=requests,
        node_capacities=caps,
        placement=dict(placement),
        schedule=schedule,
    )


def _trial(task) -> Dict[str, Dict[str, float]]:
    """One repetition: all variants on all fabrics, shared workload."""
    seed, rep = task
    root = np.random.SeedSequence([seed, rep])
    gen_ss, topo_ss, flat_ss, bw_ss = root.spawn(4)
    gen = WorkloadGenerator(np.random.default_rng(gen_ss))
    w = gen.workload(num_vnfs=12, num_nodes=24, num_requests=60)
    requests = _rescale_for_stability(w.vnfs, w.requests)
    total_demand = sum(f.total_demand for f in w.vnfs)
    max_demand = max(f.total_demand for f in w.vnfs)
    arrays = ScenarioArrays.build(w.vnfs, requests, {})
    schedule = arrays.schedule_dict(schedule_columns(arrays, RCKKScheduler()))
    topo_rng = np.random.default_rng(topo_ss)

    metrics: Dict[str, Dict[str, float]] = {}
    for fabric in FABRICS:
        topo = _build_fabric(fabric, total_demand, max_demand, topo_rng)
        caps = topo.capacities()
        problem = PlacementProblem(
            vnfs=w.vnfs, capacities=caps, chains=w.chains
        )

        # -- flat: the paper's fabric-blind pipeline --------------------
        flat = BFDSUPlacement(rng=np.random.default_rng(flat_ss)).place(
            problem
        )
        state = _state(w, requests, caps, flat.placement, schedule)
        refine_placement(state)
        flat_report = evaluate_deployment(state, with_admission=False)
        fabric_latency = total_latency_on_topology(state, topo)
        n = len(requests)

        # Tight per-link budget: start at BANDWIDTH_FRACTION of this
        # placement's own peak link load, relaxing geometrically until
        # the constrained solver can actually construct a placement
        # (sparse fabrics can make the initial fraction infeasible for
        # *every* placement).
        probe = NetworkModel.for_problem(problem, topo, requests=requests)
        flat_vec = probe.placement_vector(state.placement)
        peak = float(probe.link_loads(flat_vec).max())
        budget = max(peak * BANDWIDTH_FRACTION, 1e-9)
        bw_place = None
        for _ in range(6):
            constrained = NetworkModel.for_problem(
                problem, topo, requests=requests, bandwidth=budget
            )
            try:
                bw_place = BFDSUPlacement(
                    rng=np.random.default_rng(bw_ss), network=constrained
                ).place(problem)
                break
            except MaxRestartsExceededError:
                budget *= 1.5
        if bw_place is None:  # pragma: no cover - 7.6x peak always fits
            raise MaxRestartsExceededError(
                f"no bandwidth-feasible placement on {fabric!r} within "
                f"{budget / max(peak, 1e-30):.1f}x the flat peak load"
            )
        tight = NetworkModel.for_problem(
            problem, topo, requests=requests, bandwidth=budget
        )
        metrics[f"{fabric}/flat"] = {
            "flat_latency": flat_report.average_total_latency,
            "fabric_latency": fabric_latency / n,
            "oversub_links": float(
                len(tight.oversubscribed_links(flat_vec))
            ),
            "max_link_util": tight.max_link_utilization(flat_vec),
        }

        # -- fabric-aware: swap against measured latencies --------------
        aware = _state(w, requests, caps, state.placement, schedule)
        swap_placement(aware, topology=topo)
        aware_report = evaluate_deployment(aware, with_admission=False)
        aware_vec = probe.placement_vector(aware.placement)
        metrics[f"{fabric}/fabric-aware"] = {
            "flat_latency": aware_report.average_total_latency,
            "fabric_latency": total_latency_on_topology(aware, topo) / n,
            "oversub_links": float(
                len(tight.oversubscribed_links(aware_vec))
            ),
            "max_link_util": tight.max_link_utilization(aware_vec),
        }

        # -- bandwidth-aware: the full network-aware solver stack -------
        bw_state = _state(w, requests, caps, bw_place.placement, schedule)
        # Fresh residual model for the swap pass (loads rebuilt inside).
        swap_net = NetworkModel.for_problem(
            problem, topo, requests=requests, bandwidth=budget
        )
        swap_placement(bw_state, topology=topo, network=swap_net)
        bw_report = evaluate_deployment(bw_state, with_admission=False)
        bw_vec = constrained.placement_vector(bw_state.placement)
        metrics[f"{fabric}/bandwidth-aware"] = {
            "flat_latency": bw_report.average_total_latency,
            "fabric_latency": total_latency_on_topology(bw_state, topo) / n,
            "oversub_links": float(
                len(constrained.oversubscribed_links(bw_vec))
            ),
            "max_link_util": constrained.max_link_utilization(bw_vec),
        }
    return metrics


def run(
    repetitions: int = 5, seed: int = 20170713, jobs: int = 1
) -> ExperimentResult:
    """Compare fabric models and bandwidth awareness on shared workloads."""
    keys = [f"{fabric}/{variant}" for fabric in FABRICS for variant in VARIANTS]
    acc: Dict[str, Dict[str, List[float]]] = {
        key: {
            "flat_latency": [],
            "fabric_latency": [],
            "oversub_links": [],
            "max_link_util": [],
        }
        for key in keys
    }
    trials = run_trials(
        _trial, [(seed, rep) for rep in range(repetitions)], jobs=jobs
    )
    for metrics in trials:
        for key, values in metrics.items():
            for column, value in values.items():
                acc[key][column].append(value)

    result = ExperimentResult(
        experiment_id="topology_compare",
        title="Flat-L vs real-fabric vs bandwidth-constrained solving",
        columns=[
            "fabric",
            "variant",
            "flat_latency",
            "fabric_latency",
            "oversub_links",
            "max_link_util",
        ],
    )
    for fabric in FABRICS:
        for variant in VARIANTS:
            key = f"{fabric}/{variant}"
            result.add_row(
                fabric=fabric,
                variant=variant,
                flat_latency=float(np.mean(acc[key]["flat_latency"])),
                fabric_latency=float(np.mean(acc[key]["fabric_latency"])),
                oversub_links=float(np.mean(acc[key]["oversub_links"])),
                max_link_util=float(np.mean(acc[key]["max_link_util"])),
            )
    result.notes.append(
        "flat_latency: Eq. (16) with uniform L; fabric_latency: Eq. (16) "
        "with measured shortest-path latencies (both per request, "
        "seconds)"
    )
    result.notes.append(
        "oversub_links/max_link_util: against a per-link budget set to "
        f"{BANDWIDTH_FRACTION:.0%} of the flat placement's peak link "
        "load; the bandwidth-aware stack must report 0 oversubscribed "
        "links"
    )
    return result


SPEC = register(
    ExperimentSpec(
        name="topology_compare",
        title="Flat-L vs real-fabric vs bandwidth-constrained solving",
        runner=run,
        profile="joint",
        tags=("topology", "beyond-paper"),
        default_repetitions=5,
        order=22,
    )
)


if __name__ == "__main__":  # pragma: no cover
    run().print()
