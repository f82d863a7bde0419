#!/usr/bin/env python3
"""Elastic scale-out: replicas as new VNFs (Section III-A of the paper).

The paper's scale-out rule: when a VNF's instances cannot cope with its
offered load, place replicas on different nodes and "regard each replica
as a new VNF".  This example takes a firewall facing far more traffic
than one node's worth of instances can serve, sizes it, splits it into
replicas, and runs the ordinary two-phase pipeline on the rewritten
problem — no special cases downstream.

Run with::

    python examples/elastic_scaling.py
"""

import numpy as np

from repro import JointOptimizer, Request, ServiceChain, VNF
from repro.core.scaling import required_instances, scale_out
from repro.placement import BFDSUPlacement


def main() -> None:
    # One firewall, mu = 100 pps per instance; 60 requests at ~40 pps
    # each offer ~2400 pps -> needs ~27 instances at 90% utilization.
    # (mu must exceed the largest single request's rate: requests are
    # unsplittable, so admission control rejects one that reaches mu.)
    firewall = VNF("firewall", demand_per_instance=25.0, num_instances=1,
                   service_rate=100.0)
    chain = ServiceChain(["firewall"])
    rng = np.random.default_rng(5)
    requests = [
        Request(f"r{i}", chain, float(rng.uniform(20.0, 60.0)),
                delivery_probability=0.99)
        for i in range(60)
    ]

    needed = required_instances(firewall, requests)
    print(f"offered load needs {needed} instances of "
          f"{firewall.name!r} (mu={firewall.service_rate} pps each)")

    # One node hosts at most 10 instances -> split into replicas.
    plan = scale_out(
        [firewall], requests, max_instances_per_vnf=10
    )
    print(f"scale-out: {plan.replicas_of('firewall')}")
    for vnf in plan.vnfs:
        served = sum(
            1 for r in plan.requests if r.uses(vnf.name)
        )
        print(f"  {vnf.name:12s} M_f={vnf.num_instances:2d} "
              f"demand={vnf.total_demand:6.0f} serving {served} requests")

    # The rewritten problem drops straight into the standard pipeline.
    capacities = {f"node{i}": 600.0 for i in range(6)}
    solution = JointOptimizer(
        placement=BFDSUPlacement(rng=np.random.default_rng(1))
    ).optimize(plan.vnfs, plan.requests, capacities)
    report = solution.evaluate()

    print("\nafter joint optimization:")
    for vnf in plan.vnfs:
        print(f"  {vnf.name:12s} -> {solution.state.placement[vnf.name]}")
    print(f"  avg node utilization  {report.average_node_utilization:.1%}")
    print(f"  avg response latency  {report.average_response_latency * 1e3:.2f} ms")
    print(f"  max instance load     {report.max_instance_utilization:.1%}")
    print(f"  job rejection rate    {report.rejection_rate:.1%}")


if __name__ == "__main__":
    main()
