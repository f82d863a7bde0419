"""Packet-level discrete-event simulation of VNF chains.

The paper's evaluation is simulation-driven; this package provides an
independent packet-level simulator whose measured statistics converge to
the :mod:`repro.queueing` closed forms — the model-validation ablation of
DESIGN.md (abl-jackson):

* :mod:`repro.sim.events` — the event queue.
* :mod:`repro.sim.engine` — the simulation clock/dispatcher.
* :mod:`repro.sim.entities` — FCFS exponential servers (service
  instances) and Poisson packet sources.
* :mod:`repro.sim.simulator` — :class:`ChainSimulator`: requests flow
  through their chains' scheduled instances, with end-to-end loss and
  NACK retransmission feedback.
* :mod:`repro.sim.kernels` — array-native FCFS kernels (the Lindley
  recurrence) shared by the column simulator and the sensitivity sweeps.
* :mod:`repro.sim.scale` and :mod:`repro.sim.shard` — the column
  simulator: pre-sampled arrival/service columns replayed per chain hop
  and feedback round over instance shards, the batch pipeline's
  simulator and ``ChainSimulator(..., backend="trace")``; see
  docs/SIM_BACKENDS.md.
* :mod:`repro.sim.metrics` — measurement collectors (per-instance
  sojourn, utilization; per-request end-to-end latency).
"""

from repro.sim.engine import SimulationEngine
from repro.sim.events import Event, EventQueue
from repro.sim.kernels import fcfs_sojourn_times, lindley_departure_times
from repro.sim.metrics import InstanceStats, SimulationMetrics
from repro.sim.simulator import BACKENDS, ChainSimulator, SimulationConfig

__all__ = [
    "Event",
    "EventQueue",
    "SimulationEngine",
    "BACKENDS",
    "ChainSimulator",
    "SimulationConfig",
    "SimulationMetrics",
    "InstanceStats",
    "fcfs_sojourn_times",
    "lindley_departure_times",
]
