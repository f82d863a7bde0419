"""Instance sizing and replica scaling (Section III-A of the paper).

The paper's model bounds the instance count of each VNF by the number of
requests using it (Eq. 3) and prescribes a scale-out path when one
node's worth of instances cannot carry the offered load:

    "If all the service instances still cannot cope with all the
    requests, we can then place some replicas of the VNF on different
    nodes, and regard each replica as a new VNF."

This module implements both steps:

* :func:`required_instances` — the minimum ``M_f`` that keeps a
  perfectly balanced schedule stable at a target utilization.
* :func:`scale_out` — when the required instances exceed a per-VNF
  ceiling (e.g. what one node can host), split the VNF into replicas
  ``f``, ``f#1``, ``f#2``, ... and deal the requests across them, each
  replica being an independent VNF exactly as the paper prescribes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.exceptions import ConfigurationError, ValidationError
from repro.nfv.chain import ServiceChain
from repro.nfv.request import Request
from repro.nfv.vnf import VNF

#: Default per-instance utilization ceiling used when sizing.
DEFAULT_TARGET_UTILIZATION = 0.9


def offered_load(vnf_name: str, requests: Sequence[Request]) -> float:
    """Total effective arrival rate offered to a VNF (Eq. 7 aggregate)."""
    return sum(r.effective_rate for r in requests if r.uses(vnf_name))


def required_instances(
    vnf: VNF,
    requests: Sequence[Request],
    target_utilization: float = DEFAULT_TARGET_UTILIZATION,
) -> int:
    """Minimum ``M_f`` keeping a balanced schedule at the target load.

    ``M_f = ceil(Lambda_f / (mu_f * rho_target))`` — with at least one
    instance, and no more than the number of requests using the VNF
    (Eq. 3: an instance with no request is useless; a request maps to
    exactly one instance).
    """
    if not 0.0 < target_utilization < 1.0:
        raise ValidationError(
            f"target utilization must be in (0, 1), got {target_utilization!r}"
        )
    users = [r for r in requests if r.uses(vnf.name)]
    if not users:
        return 1
    load = sum(r.effective_rate for r in users)
    needed = math.ceil(load / (vnf.service_rate * target_utilization))
    return max(1, min(needed, len(users)))


@dataclass(frozen=True)
class ScaleOutPlan:
    """The result of replica scale-out for one original VNF set."""

    #: The rewritten VNF set (originals resized, replicas appended).
    vnfs: List[VNF]
    #: The rewritten requests (chains repointed at assigned replicas).
    requests: List[Request]
    #: ``original name -> list of replica names`` (the original included).
    replica_groups: Dict[str, List[str]]

    def replicas_of(self, vnf_name: str) -> List[str]:
        """All replica names serving an original VNF."""
        try:
            return list(self.replica_groups[vnf_name])
        except KeyError:
            raise ValidationError(f"unknown VNF {vnf_name!r}") from None


def scale_out(
    vnfs: Sequence[VNF],
    requests: Sequence[Request],
    max_instances_per_vnf: int,
    target_utilization: float = DEFAULT_TARGET_UTILIZATION,
) -> ScaleOutPlan:
    """Split overloaded VNFs into replicas, dealing requests across them.

    Parameters
    ----------
    vnfs, requests:
        The original problem.
    max_instances_per_vnf:
        Ceiling on ``M_f`` for any single VNF (e.g. what one node can
        host).  A VNF whose required instance count exceeds it is split
        into ``ceil(required / ceiling)`` replicas.
    target_utilization:
        Per-instance utilization the sizing aims at.

    Returns
    -------
    ScaleOutPlan
        New VNFs (each a "new VNF" per the paper), and requests whose
        chains reference their assigned replica, so placement and
        scheduling work unchanged downstream.

    Notes
    -----
    Requests are dealt to replicas round-robin in decreasing-rate order,
    which keeps replica loads near-equal; the per-replica instance count
    is then re-derived from the load actually assigned to it.
    """
    if max_instances_per_vnf < 1:
        raise ConfigurationError(
            f"instance ceiling must be >= 1, got {max_instances_per_vnf!r}"
        )

    replica_groups: Dict[str, List[str]] = {}
    #: request id -> {original vnf name -> replica name}
    rebinding: Dict[str, Dict[str, str]] = {r.request_id: {} for r in requests}
    new_vnfs: List[VNF] = []

    for vnf in vnfs:
        users = [r for r in requests if r.uses(vnf.name)]
        needed = required_instances(vnf, requests, target_utilization)
        if needed <= max_instances_per_vnf:
            replica_groups[vnf.name] = [vnf.name]
            new_vnfs.append(vnf.with_instances(needed))
            continue
        num_replicas = math.ceil(needed / max_instances_per_vnf)
        names = [vnf.name] + [
            f"{vnf.name}#{i}" for i in range(1, num_replicas)
        ]
        replica_groups[vnf.name] = names
        # Deal requests: decreasing rate, round-robin over replicas.
        buckets: List[List[Request]] = [[] for _ in range(num_replicas)]
        ordered = sorted(users, key=lambda r: (-r.effective_rate, r.request_id))
        for i, request in enumerate(ordered):
            bucket = i % num_replicas
            buckets[bucket].append(request)
            rebinding[request.request_id][vnf.name] = names[bucket]
        for name, bucket in zip(names, buckets):
            load = sum(r.effective_rate for r in bucket)
            instances = max(
                1,
                min(
                    math.ceil(
                        load / (vnf.service_rate * target_utilization)
                    )
                    if load > 0.0
                    else 1,
                    max(1, len(bucket)),
                ),
            )
            instances = min(instances, max_instances_per_vnf)
            new_vnfs.append(
                VNF(
                    name=name,
                    demand_per_instance=vnf.demand_per_instance,
                    num_instances=instances,
                    service_rate=vnf.service_rate,
                    category=vnf.category,
                )
            )

    new_requests: List[Request] = []
    for request in requests:
        binding = rebinding[request.request_id]
        if not binding:
            new_requests.append(request)
            continue
        new_chain = ServiceChain(
            [binding.get(name, name) for name in request.chain]
        )
        new_requests.append(
            Request(
                request_id=request.request_id,
                chain=new_chain,
                arrival_rate=request.arrival_rate,
                delivery_probability=request.delivery_probability,
            )
        )

    return ScaleOutPlan(
        vnfs=new_vnfs,
        requests=new_requests,
        replica_groups=replica_groups,
    )
