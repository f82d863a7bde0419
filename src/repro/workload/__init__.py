"""Workload generation: VNF catalogs, chains, requests and traces.

* :mod:`repro.workload.catalog` — 30+ commonly deployed VNFs in the nine
  categories of the Li & Chen survey the paper cites (Section V-A.1).
* :mod:`repro.workload.generator` — seeded random generation of VNF
  sets, service chains (<= 6 VNFs) and Poisson requests
  (``lambda`` in 1-100 pps), following the paper's simulation setup.
* :mod:`repro.workload.scenarios` — the per-figure experiment
  configurations of Section V.
* :mod:`repro.workload.traces` — synthetic trace generation standing in
  for the datacenter measurements of Benson et al. (see DESIGN.md's
  substitution table).
* :mod:`repro.workload.stream` — object-free streaming construction of
  :class:`~repro.core.arrays.ScenarioArrays` columns for
  million-request scenarios (see docs/SCALE.md).
"""

from repro.workload.catalog import (
    COMMON_SIX,
    VNF_CATALOG,
    VNFSpec,
    spec_by_name,
)
from repro.workload.generator import GeneratedWorkload, WorkloadGenerator
from repro.workload.mmpp import MMPP2
from repro.workload.stream import (
    StreamedScenario,
    materialize_requests,
    rescale_to_stability,
    stream_scenario,
)
from repro.workload.traces import poisson_arrival_times

__all__ = [
    "VNFSpec",
    "VNF_CATALOG",
    "COMMON_SIX",
    "spec_by_name",
    "WorkloadGenerator",
    "GeneratedWorkload",
    "poisson_arrival_times",
    "MMPP2",
    "StreamedScenario",
    "stream_scenario",
    "materialize_requests",
    "rescale_to_stability",
]
