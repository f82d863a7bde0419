"""The VNF model object.

A VNF ``f`` in the paper is characterized by:

* per-instance resource demand ``D_f`` (CPU-bounded units; one unit =
  the ability to process 64-byte packets at 10 kpps in the paper's
  calibration),
* number of service instances ``M_f`` it deploys (Eq. 3 bounds this by
  the number of requests that use it),
* exponential service rate ``mu_f`` per instance.

All ``M_f`` instances of a VNF are placed together on one computing node
(Eq. 2); scaling beyond one node is modeled by cloning the VNF as a
*replica* that counts as a new VNF.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from repro.exceptions import ValidationError


class VNFCategory(enum.Enum):
    """The nine VNF categories of the Li & Chen survey the paper cites."""

    SECURITY = "security"
    GATEWAY = "gateway"
    LOAD_BALANCING = "load_balancing"
    MONITORING = "monitoring"
    OPTIMIZATION = "optimization"
    CACHING = "caching"
    ADDRESSING = "addressing"
    SIGNALING = "signaling"
    OTHER = "other"


@dataclass(frozen=True)
class VNF:
    """A virtual network function.

    Parameters
    ----------
    name:
        Unique identifier, e.g. ``"firewall"`` or ``"nat#2"`` for a
        replica.
    demand_per_instance:
        ``D_f`` — resource units consumed by each service instance
        (positive, finite).
    num_instances:
        ``M_f`` — how many service instances this VNF deploys.
    service_rate:
        ``mu_f`` — exponential per-instance service rate (packets/s;
        positive, finite).
    category:
        Functional category from the Li & Chen taxonomy.
    """

    name: str
    demand_per_instance: float
    num_instances: int
    service_rate: float
    category: VNFCategory = VNFCategory.OTHER

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("VNF name must be non-empty")
        if self.demand_per_instance <= 0.0:
            raise ValidationError(
                f"VNF {self.name!r}: per-instance demand must be positive, "
                f"got {self.demand_per_instance!r}"
            )
        if not math.isfinite(self.demand_per_instance):
            raise ValidationError(
                f"VNF {self.name!r}: per-instance demand must be finite, "
                f"got {self.demand_per_instance!r}"
            )
        if self.num_instances < 1:
            raise ValidationError(
                f"VNF {self.name!r}: instance count must be >= 1, "
                f"got {self.num_instances!r}"
            )
        if self.service_rate <= 0.0:
            raise ValidationError(
                f"VNF {self.name!r}: service rate must be positive, "
                f"got {self.service_rate!r}"
            )
        if not math.isfinite(self.service_rate):
            raise ValidationError(
                f"VNF {self.name!r}: service rate must be finite, "
                f"got {self.service_rate!r}"
            )

    @property
    def total_demand(self) -> float:
        """Aggregate demand ``D_f^sum = M_f * D_f`` — the bin-packing size."""
        return self.demand_per_instance * self.num_instances

    def with_instances(self, num_instances: int) -> "VNF":
        """A copy with a different ``M_f`` (used when sizing to demand)."""
        return replace(self, num_instances=num_instances)
