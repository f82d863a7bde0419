"""Service chains — ordered VNF sequences a request must traverse.

The paper's evaluation uses chains of at most six VNFs drawn from a
catalog of commonly deployed functions (NAT, firewall, IDS, load
balancer, WAN optimizer, flow monitor, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

from repro.exceptions import ValidationError

#: The paper's maximum chain length (Section V-A: "at most 6 VNFs").
MAX_CHAIN_LENGTH = 6


@dataclass(frozen=True)
class ServiceChain:
    """An ordered sequence of VNF names.

    A chain visits each VNF at most once (the ``U_r^f`` indicator in the
    model is binary, so a chain cannot revisit a function).
    """

    vnf_names: Tuple[str, ...]

    def __init__(self, vnf_names: Sequence[str]) -> None:
        names = tuple(vnf_names)
        if not names:
            raise ValidationError("a service chain must contain at least one VNF")
        if len(set(names)) != len(names):
            raise ValidationError(
                f"a service chain may not revisit a VNF: {names!r}"
            )
        object.__setattr__(self, "vnf_names", names)

    def __len__(self) -> int:
        return len(self.vnf_names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.vnf_names)

    def __contains__(self, vnf_name: str) -> bool:
        return vnf_name in self.vnf_names

    def uses(self, vnf_name: str) -> bool:
        """The ``U_r^f`` indicator: whether this chain requires ``vnf_name``."""
        return vnf_name in self.vnf_names

    def hops(self) -> Tuple[Tuple[str, str], ...]:
        """Consecutive VNF pairs along the chain."""
        return tuple(zip(self.vnf_names[:-1], self.vnf_names[1:]))
