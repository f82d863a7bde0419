"""Shared problem/result model for VNF chain placement.

A :class:`PlacementProblem` bundles the VNFs ``F`` (each a bin-packing
item of size ``M_f D_f``), the compute-node capacities ``A_v`` and —
for chain-aware algorithms like NAH — the service chains.  All placement
algorithms implement :class:`PlacementAlgorithm` and return a
:class:`PlacementResult`, so experiments can sweep algorithm lists
uniformly.

Iteration accounting (paper Fig. 10)
------------------------------------
"Iterations of executing the algorithm for finding a feasible solution"
is algorithm-specific in the paper, and so here:

* FFD makes a single deterministic pass — always 1 iteration.
* BFDSU counts solution-construction attempts: 1 + the number of restarts
  its weighted random draws forced, plus fractional work for discarded
  partial passes (reported as whole attempts).
* NAH counts node-selection operations: one per heaviest-VNF placement
  and one per same-node/fallback attempt for the remaining chain VNFs.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Hashable, List, Mapping, Sequence

from repro.exceptions import InfeasiblePlacementError, ValidationError
from repro.nfv.chain import ServiceChain
from repro.nfv.vnf import VNF

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.arrays import ScenarioArrays


@dataclass(frozen=True)
class PlacementProblem:
    """An instance of the VNF-CP problem (Eq. 13).

    Parameters
    ----------
    vnfs:
        The VNFs to place; their ``total_demand`` is the packing size.
    capacities:
        ``A_v`` per compute-node key.
    chains:
        Optional service chains over the VNFs.  Chain-aware algorithms
        (NAH) use them; bin-packing algorithms ignore them.
    """

    vnfs: tuple
    capacities: Mapping[Hashable, float]
    chains: tuple = ()

    def __init__(
        self,
        vnfs: Sequence[VNF],
        capacities: Mapping[Hashable, float],
        chains: Sequence[ServiceChain] = (),
    ) -> None:
        object.__setattr__(self, "vnfs", tuple(vnfs))
        object.__setattr__(self, "capacities", dict(capacities))
        object.__setattr__(self, "chains", tuple(chains))
        object.__setattr__(
            self, "_vnf_by_name", {f.name: f for f in self.vnfs}
        )
        self._validate()

    def _validate(self) -> None:
        if not self.vnfs:
            raise ValidationError("placement problem has no VNFs")
        if not self.capacities:
            raise ValidationError("placement problem has no compute nodes")
        if len(self._vnf_by_name) != len(self.vnfs):
            raise ValidationError("duplicate VNF names in placement problem")
        for node, cap in self.capacities.items():
            if cap <= 0.0:
                raise ValidationError(
                    f"node {node!r}: capacity must be positive, got {cap!r}"
                )
        known = self._vnf_by_name
        for chain in self.chains:
            for vnf_name in chain:
                if vnf_name not in known:
                    raise ValidationError(
                        f"chain references unknown VNF {vnf_name!r}"
                    )

    def vnf(self, name: str) -> VNF:
        """Look up a VNF by name (O(1) via the cached name map)."""
        try:
            return self._vnf_by_name[name]
        except KeyError:
            raise ValidationError(f"unknown VNF {name!r}") from None

    def arrays(self) -> "ScenarioArrays":
        """The cached columnar view of this problem's VNF/node tables."""
        from repro.core.arrays import ScenarioArrays, cached_arrays

        return cached_arrays(self, ScenarioArrays.from_placement_problem)

    def total_demand(self) -> float:
        """Aggregate demand ``sum_f M_f D_f``."""
        return sum(f.total_demand for f in self.vnfs)

    def total_capacity(self) -> float:
        """Aggregate capacity ``sum_v A_v``."""
        return sum(self.capacities.values())

    def check_necessary_feasibility(self) -> None:
        """Fast necessary conditions (not sufficient for heterogeneity).

        Raises
        ------
        InfeasiblePlacementError
            If some VNF exceeds every node or total demand exceeds total
            capacity.
        """
        max_cap = max(self.capacities.values())
        for f in self.vnfs:
            if f.total_demand > max_cap + 1e-9:
                raise InfeasiblePlacementError(
                    f"VNF {f.name!r} total demand {f.total_demand:.6g} "
                    f"exceeds the largest node capacity {max_cap:.6g}"
                )
        if self.total_demand() > self.total_capacity() + 1e-9:
            raise InfeasiblePlacementError(
                f"total demand {self.total_demand():.6g} exceeds total "
                f"capacity {self.total_capacity():.6g}"
            )


@dataclass
class PlacementResult:
    """A feasible placement with its cost accounting.

    Attributes
    ----------
    placement:
        ``vnf_name -> node_key`` (the ``x_v^f`` variables).
    problem:
        The problem solved, kept for metric computation.
    iterations:
        Algorithm-specific iteration count (see module docstring).
    algorithm:
        Human-readable algorithm name for report rows.
    """

    placement: Dict[str, Hashable]
    problem: PlacementProblem
    iterations: int = 0
    algorithm: str = ""

    # ------------------------------------------------------------------
    # Derived state
    # ------------------------------------------------------------------
    def _placement_vector(self):
        """Node index per VNF, checked at the boundary: a node absent
        from the capacity map or an unplaced VNF (Eq. 2) raises."""
        return self.problem.arrays().complete_placement_vector(self.placement)

    def node_loads(self) -> Dict[Hashable, float]:
        """Placed demand per node (zero-load nodes omitted).

        Keys follow the first-placed-VNF order; the per-node sums come
        from one ``np.bincount`` over the columnar view.
        """
        placement_vec = self._placement_vector()
        arrays = self.problem.arrays()
        loads = arrays.node_loads(placement_vec)
        result: Dict[Hashable, float] = {}
        for node_idx in placement_vec:
            node = arrays.node_keys[node_idx]
            if node not in result:
                result[node] = float(loads[node_idx])
        return result

    @property
    def num_used_nodes(self) -> int:
        """``sum_v y_v`` — the Eq. (14) objective."""
        return self.problem.arrays().nodes_in_service(self._placement_vector())

    @property
    def average_utilization(self) -> float:
        """Eq. (13): mean of per-used-node load/capacity."""
        return self.problem.arrays().average_node_utilization(
            self._placement_vector()
        )

    @property
    def total_occupied_capacity(self) -> float:
        """Sum of ``A_v`` over used nodes (Fig. 9's "resource occupation")."""
        return self.problem.arrays().occupied_capacity(
            self._placement_vector()
        )

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check Eqs. (2) and (6) hold for this placement.

        Raises
        ------
        ValidationError
            On an unplaced VNF, unknown node, or capacity violation.
        """
        self.problem.arrays().validate_placement(self.placement)


class PlacementAlgorithm(abc.ABC):
    """Strategy interface implemented by every placement algorithm."""

    #: Stable display name used in experiment report rows.
    name: str = "placement"

    @abc.abstractmethod
    def place(self, problem: PlacementProblem) -> PlacementResult:
        """Solve ``problem``, returning a validated feasible placement.

        Raises
        ------
        InfeasiblePlacementError
            If the algorithm cannot find a feasible placement (which for
            incomplete heuristics does not prove none exists).
        """

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"


def demand_sorted_vnfs(problem: PlacementProblem) -> List[VNF]:
    """VNFs sorted by decreasing total demand (ties by name, deterministic)."""
    return sorted(problem.vnfs, key=lambda f: (-f.total_demand, f.name))
