"""Catalog of commonly deployed VNFs.

The paper scales its VNF count from 6 to 30, anchored on six
commonly-deployed functions — NAT, firewall, IDS, load balancer, WAN
optimizer, flow monitor — and cites the Li & Chen survey's nine-category
taxonomy of 30+ VNFs.  This catalog reproduces that population: each
:class:`VNFSpec` carries a *relative* per-instance demand (resource units,
1 unit = 64-byte packets at 10 kpps per the paper's calibration) and a
relative per-instance service rate reflecting how heavyweight the
function's packet processing is (deep inspection slow, stateless
forwarding fast).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.exceptions import ValidationError
from repro.nfv.vnf import VNF, VNFCategory


@dataclass(frozen=True)
class VNFSpec:
    """Static template for one catalog VNF.

    ``base_demand`` is the per-instance resource demand in units;
    ``base_service_rate`` the per-instance packet service rate (pps).
    """

    name: str
    category: VNFCategory
    base_demand: float
    base_service_rate: float

    def instantiate(
        self, num_instances: int = 1, rate_scale: float = 1.0
    ) -> VNF:
        """Build a concrete :class:`VNF` from this template."""
        if rate_scale <= 0.0:
            raise ValidationError(
                f"rate scale must be positive, got {rate_scale!r}"
            )
        return VNF(
            name=self.name,
            demand_per_instance=self.base_demand,
            num_instances=num_instances,
            service_rate=self.base_service_rate * rate_scale,
            category=self.category,
        )


def _spec(
    name: str, category: VNFCategory, demand: float, rate: float
) -> VNFSpec:
    return VNFSpec(
        name=name, category=category, base_demand=demand, base_service_rate=rate
    )


#: The full catalog: 32 VNFs across the nine survey categories.
VNF_CATALOG: Tuple[VNFSpec, ...] = (
    # Security — inspection-heavy, high demand, low rate.
    _spec("firewall", VNFCategory.SECURITY, 20.0, 1200.0),
    _spec("ids", VNFCategory.SECURITY, 45.0, 600.0),
    _spec("ips", VNFCategory.SECURITY, 50.0, 550.0),
    _spec("dpi", VNFCategory.SECURITY, 60.0, 400.0),
    _spec("vpn_gateway", VNFCategory.SECURITY, 35.0, 800.0),
    _spec("anti_ddos", VNFCategory.SECURITY, 40.0, 900.0),
    _spec("web_filter", VNFCategory.SECURITY, 25.0, 1000.0),
    # Gateways / address translation.
    _spec("nat", VNFCategory.GATEWAY, 10.0, 2000.0),
    _spec("ipv6_gateway", VNFCategory.GATEWAY, 15.0, 1800.0),
    _spec("pgw", VNFCategory.GATEWAY, 30.0, 1000.0),
    _spec("sgw", VNFCategory.GATEWAY, 28.0, 1100.0),
    _spec("bras", VNFCategory.GATEWAY, 32.0, 950.0),
    # Load balancing.
    _spec("l4_load_balancer", VNFCategory.LOAD_BALANCING, 12.0, 1900.0),
    _spec("l7_load_balancer", VNFCategory.LOAD_BALANCING, 22.0, 1200.0),
    _spec("global_load_balancer", VNFCategory.LOAD_BALANCING, 18.0, 1400.0),
    # Monitoring — mostly passive, light.
    _spec("flow_monitor", VNFCategory.MONITORING, 8.0, 2500.0),
    _spec("qoe_monitor", VNFCategory.MONITORING, 14.0, 1600.0),
    _spec("traffic_analyzer", VNFCategory.MONITORING, 20.0, 1300.0),
    _spec("netflow_collector", VNFCategory.MONITORING, 10.0, 2200.0),
    # Optimization.
    _spec("wan_optimizer", VNFCategory.OPTIMIZATION, 38.0, 700.0),
    _spec("tcp_optimizer", VNFCategory.OPTIMIZATION, 16.0, 1500.0),
    _spec("video_optimizer", VNFCategory.OPTIMIZATION, 55.0, 450.0),
    _spec("header_compressor", VNFCategory.OPTIMIZATION, 9.0, 2300.0),
    # Caching.
    _spec("web_cache", VNFCategory.CACHING, 26.0, 1100.0),
    _spec("cdn_cache", VNFCategory.CACHING, 30.0, 1000.0),
    _spec("dns_cache", VNFCategory.CACHING, 6.0, 3000.0),
    # Addressing / naming.
    _spec("dhcp_server", VNFCategory.ADDRESSING, 5.0, 3200.0),
    _spec("dns_server", VNFCategory.ADDRESSING, 7.0, 2800.0),
    _spec("arp_proxy", VNFCategory.ADDRESSING, 4.0, 3500.0),
    # Signaling.
    _spec("sip_proxy", VNFCategory.SIGNALING, 12.0, 1700.0),
    _spec("ims_cscf", VNFCategory.SIGNALING, 24.0, 1050.0),
    # Other.
    _spec("transcoder", VNFCategory.OTHER, 65.0, 350.0),
)

#: The paper's six anchor VNFs ("at least six commonly-deployed VNFs").
COMMON_SIX: Tuple[str, ...] = (
    "nat",
    "firewall",
    "ids",
    "l4_load_balancer",
    "wan_optimizer",
    "flow_monitor",
)

_BY_NAME: Dict[str, VNFSpec] = {spec.name: spec for spec in VNF_CATALOG}


def spec_by_name(name: str) -> VNFSpec:
    """Look up a catalog spec by VNF name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValidationError(f"unknown catalog VNF {name!r}") from None
