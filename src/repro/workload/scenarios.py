"""Per-figure experiment scenarios (Section V of the paper).

Two scenario families cover all twelve figures:

* :class:`PlacementScenario` — Figs. 5-10: place ``num_vnfs`` VNFs on
  ``num_nodes`` heterogeneous nodes; requests size the instance counts.
* :class:`SchedulingScenario` — Figs. 11-16: schedule ``num_requests``
  requests onto the ``num_instances`` instances of one VNF, with the
  service rate scaled to the offered load ("we scale mu_f with the
  number of requests to eliminate its dominant influence") at a target
  utilization ``rho_target``.

Each scenario is deterministic given ``(seed, repetition)``, so
Monte-Carlo averages are reproducible run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.nfv.chain import ServiceChain
from repro.nfv.request import Request
from repro.nfv.vnf import VNF, VNFCategory
from repro.placement.base import PlacementProblem
from repro.scheduling.base import SchedulingProblem
from repro.workload.generator import WorkloadGenerator


def _rng_for(seed: int, repetition: int) -> np.random.Generator:
    """A generator deterministic in (seed, repetition)."""
    return np.random.default_rng(np.random.SeedSequence([seed, repetition]))


@dataclass(frozen=True)
class PlacementScenario:
    """A Figs. 5-10 style placement configuration.

    Parameters
    ----------
    num_vnfs, num_nodes, num_requests:
        The paper's sweep axes.  Requests influence placement through the
        instance counts ``M_f`` (more requests -> more instances, Eq. 3);
        since VNF demands are re-scaled to ``demand_fraction`` the request
        count leaves the packing tightness unchanged — exactly why the
        paper's Fig. 5 utilizations stay flat as requests scale 30-1000.
    demand_fraction:
        Total VNF demand as a fraction of total node capacity.  0.55
        leaves enough slack that every algorithm (including worst-fit
        style NAH) completes, while keeping the packing hard enough that
        the quality gaps show.
    capacity_range:
        Heterogeneous node capacities (the paper's units scale to 5000).
    seed:
        Base seed; combine with a repetition index via :meth:`build`.
    """

    num_vnfs: int = 15
    num_nodes: int = 10
    num_requests: int = 100
    demand_fraction: float = 0.55
    capacity_range: Tuple[float, float] = (500.0, 5000.0)
    instance_range: Tuple[int, int] = (1, 25)
    seed: int = 20170605

    def build(self, repetition: int = 0) -> PlacementProblem:
        """Materialize one problem instance for a repetition index."""
        rng = _rng_for(self.seed, repetition)
        gen = WorkloadGenerator(rng)
        # Instance counts grow with request pressure: M_f ~ requests per
        # VNF, clamped to the paper's 1-25 range (Eq. 3 upper bound).
        per_vnf = max(1, self.num_requests // max(1, self.num_vnfs))
        lo = max(self.instance_range[0], min(per_vnf, self.instance_range[1]) // 2 + 1)
        hi = max(lo, min(self.instance_range[1], per_vnf))
        vnfs = gen.vnfs(self.num_vnfs, instance_range=(lo, hi))
        chains = gen.chains(vnfs, max(1, self.num_vnfs // 3))
        caps = gen.capacities(self.num_nodes, capacity_range=self.capacity_range)

        # Re-scale demands so total demand hits the target fraction of
        # total capacity, then clamp any single VNF that would not fit in
        # the largest node (feasibility by construction).
        total_cap = sum(caps.values())
        max_cap = max(caps.values())
        current = sum(f.total_demand for f in vnfs)
        scale = (self.demand_fraction * total_cap) / current
        scaled = []
        for f in vnfs:
            demand = f.demand_per_instance * scale
            if demand * f.num_instances > 0.85 * max_cap:
                demand = 0.85 * max_cap / f.num_instances
            scaled.append(
                VNF(
                    name=f.name,
                    demand_per_instance=demand,
                    num_instances=f.num_instances,
                    service_rate=f.service_rate,
                    category=f.category,
                )
            )
        return PlacementProblem(vnfs=scaled, capacities=caps, chains=chains)


@dataclass(frozen=True)
class SchedulingScenario:
    """A Figs. 11-16 style per-VNF scheduling configuration.

    Parameters
    ----------
    num_requests:
        ``n = |R_f|`` (the paper sweeps 15-250).
    num_instances:
        ``m = M_f`` (the paper sweeps 2-10, fixing 5 for Figs. 11-12).
    delivery_probability:
        ``P`` — 1.00, 0.98 (latency figures), 0.997/0.984 (rejection).
    rho:
        Raw-load utilization the service rate is scaled to:
        ``mu = sum(lambda_raw) / (m * rho)`` — the paper's "we scale
        mu_f with the number of requests" rule.  The *effective* mean
        utilization is ``rho / P``: retransmissions eat headroom, so a
        lower ``P`` raises latency (Figs. 11 vs 12) and, as ``rho / P``
        approaches 1, triggers admission-control rejections
        (Figs. 15-16: rho=0.975 with P=0.997/0.984).
    rate_range:
        External request rates (the paper's 1-100 pps).
    seed:
        Base seed; combine with a repetition index via :meth:`build`.
    """

    num_requests: int = 50
    num_instances: int = 5
    delivery_probability: float = 1.0
    rho: float = 0.8
    rate_range: Tuple[float, float] = (1.0, 100.0)
    seed: int = 20170605

    def __post_init__(self) -> None:
        if self.num_instances < 1:
            raise ConfigurationError(
                f"num_instances must be >= 1, got {self.num_instances!r}"
            )
        if self.num_requests < self.num_instances:
            raise ConfigurationError(
                f"need at least as many requests ({self.num_requests}) as "
                f"instances ({self.num_instances}) — Eq. (3)"
            )
        if not (math.isfinite(self.rho) and self.rho > 0.0):
            raise ConfigurationError(
                f"rho must be positive and finite, got {self.rho!r}"
            )
        lo, hi = self.rate_range
        if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo <= hi):
            raise ConfigurationError(
                f"rate_range must be finite with 0 < lo <= hi, got "
                f"{self.rate_range!r}"
            )

    def build(self, repetition: int = 0) -> SchedulingProblem:
        """Materialize one scheduling problem for a repetition index."""
        rng = _rng_for(self.seed, repetition)
        lo, hi = self.rate_range
        rates = rng.uniform(lo, hi, size=self.num_requests)
        chain = ServiceChain(["vnf_under_test"])
        requests = [
            Request(
                request_id=f"r{i}",
                chain=chain,
                arrival_rate=float(rates[i]),
                delivery_probability=self.delivery_probability,
            )
            for i in range(self.num_requests)
        ]
        # mu scales with the offered raw load; retransmission overhead
        # (the 1/P factor on effective rates) then competes with balance
        # quality for the remaining headroom.
        total_raw = float(sum(rates))
        mu = total_raw / (self.num_instances * self.rho)
        vnf = VNF(
            name="vnf_under_test",
            demand_per_instance=1.0,
            num_instances=self.num_instances,
            service_rate=mu,
            category=VNFCategory.OTHER,
        )
        return SchedulingProblem(vnf=vnf, requests=requests)
