"""The NFV chain simulator.

Drives packets of every request through the service instances their
schedule assigns, hop by hop along the request's chain, with end-to-end
loss and NACK retransmission:

* Each request is a Poisson source of rate ``lambda_r``.
* Each (VNF, instance) pair is an FCFS exponential server shared by all
  requests scheduled onto it.
* When a packet finishes its last hop, it is delivered correctly with
  probability ``P_r``; otherwise it re-enters the chain head after the
  NACK round trip (``nack_delay``, 0 by default to match the analytic
  model, which treats feedback as instantaneous).

Measured statistics (per-instance sojourn and utilization, per-request
end-to-end latency) converge to the open-Jackson closed forms as the run
lengthens — the validation tests assert exactly this.

Two interchangeable backends produce those statistics:

* ``backend="events"`` (default) — the per-packet event loop below, the
  reference implementation.
* ``backend="trace"`` — the column simulator
  :func:`~repro.sim.scale.simulate_columns`, an array-native replay
  over pre-sampled arrival/service traces (Lindley kernels) that
  iterates over chain hops and feedback rounds, never packets; its
  columns are reshaped into the same :class:`SimulationMetrics`.
  Orders of magnitude faster at scale; agrees with the event backend
  in distribution (see docs/SIM_BACKENDS.md for the parity contract).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.arrays import ScenarioArrays
from repro.exceptions import ValidationError
from repro.nfv.request import Request
from repro.nfv.vnf import VNF
from repro.sim.engine import SimulationEngine
from repro.sim.entities import PoissonSource, SimPacket, SimServer
from repro.sim.metrics import InstanceStats, SimulationMetrics


@dataclass(frozen=True)
class SimulationConfig:
    """Run-control parameters for :class:`ChainSimulator`."""

    #: Simulated horizon in seconds.
    duration: float = 100.0
    #: Measurements before this time are discarded (transient removal).
    warmup: float = 10.0
    #: Extra delay a NACKed packet waits before retransmission.
    nack_delay: float = 0.0
    #: RNG seed.
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("duration", "warmup", "nack_delay"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value!r}")
        if self.duration <= 0.0:
            raise ValidationError(
                f"duration must be positive, got {self.duration!r}"
            )
        if not 0.0 <= self.warmup < self.duration:
            raise ValidationError(
                f"warmup must be in [0, duration), got {self.warmup!r}"
            )
        if self.nack_delay < 0.0:
            raise ValidationError(
                f"nack delay must be non-negative, got {self.nack_delay!r}"
            )


#: Valid ``ChainSimulator`` backends.
BACKENDS = ("events", "trace")


class ChainSimulator:
    """Packet-level simulation of scheduled VNF chains.

    Parameters
    ----------
    vnfs:
        The VNFs; each contributes ``M_f`` servers of rate ``mu_f``.
    requests:
        The requests; each is a Poisson source over its chain.
    schedule:
        ``(request_id, vnf_name) -> instance index`` covering every
        (request, chain VNF) pair — the ``z`` variables.
    config:
        Run-control parameters.
    backend:
        ``"events"`` for the per-packet event loop (the reference
        implementation) or ``"trace"`` for the column simulator
        :func:`~repro.sim.scale.simulate_columns`.
    """

    def __init__(
        self,
        vnfs: Sequence[VNF],
        requests: Sequence[Request],
        schedule: Mapping[Tuple[str, str], int],
        config: Optional[SimulationConfig] = None,
        backend: str = "events",
    ) -> None:
        if backend not in BACKENDS:
            raise ValidationError(
                f"unknown simulation backend {backend!r}; valid: {BACKENDS}"
            )
        self._vnfs = {f.name: f for f in vnfs}
        self._requests = {r.request_id: r for r in requests}
        self._schedule = dict(schedule)
        self._config = config if config is not None else SimulationConfig()
        self._backend = backend
        self._validate()

    def _validate(self) -> None:
        for request in self._requests.values():
            for vnf_name in request.chain:
                if vnf_name not in self._vnfs:
                    raise ValidationError(
                        f"request {request.request_id!r} uses unknown VNF "
                        f"{vnf_name!r}"
                    )
                key = (request.request_id, vnf_name)
                if key not in self._schedule:
                    raise ValidationError(
                        f"schedule missing instance for request "
                        f"{request.request_id!r} on VNF {vnf_name!r}"
                    )
                k = self._schedule[key]
                vnf = self._vnfs[vnf_name]
                if not 0 <= k < vnf.num_instances:
                    raise ValidationError(
                        f"instance index {k} out of range for VNF {vnf_name!r}"
                    )

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def run(self) -> SimulationMetrics:
        """Execute one simulation run and return measured statistics."""
        if self._backend == "trace":
            return self._run_columns()
        cfg = self._config
        engine = SimulationEngine()
        rng = np.random.default_rng(cfg.seed)

        servers: Dict[Tuple[str, int], SimServer] = {}
        delivered: Dict[str, int] = {rid: 0 for rid in self._requests}
        end_to_end: Dict[str, List[float]] = {rid: [] for rid in self._requests}
        retransmitted: Dict[str, int] = {rid: 0 for rid in self._requests}

        def route_packet(packet: SimPacket, _sojourn: float) -> None:
            request = self._requests[packet.request_id]
            packet.hop += 1
            if packet.hop < len(request.chain):
                next_vnf = request.chain.vnf_names[packet.hop]
                k = self._schedule[(packet.request_id, next_vnf)]
                servers[(next_vnf, k)].enqueue(packet)
                return
            # Last hop done: deliver or NACK + retransmit.
            if rng.uniform() < request.delivery_probability:
                if packet.created_at >= cfg.warmup:
                    delivered[packet.request_id] += 1
                    end_to_end[packet.request_id].append(
                        engine.now - packet.created_at
                    )
                return
            packet.attempts += 1
            if packet.attempts == 2 and packet.created_at >= cfg.warmup:
                retransmitted[packet.request_id] += 1
            packet.hop = 0
            first_vnf = request.chain.vnf_names[0]
            k = self._schedule[(packet.request_id, first_vnf)]
            target = servers[(first_vnf, k)]
            if cfg.nack_delay > 0.0:
                engine.schedule_in(
                    cfg.nack_delay, lambda p=packet, t=target: t.enqueue(p)
                )
            else:
                target.enqueue(packet)

        for vnf in self._vnfs.values():
            for k in range(vnf.num_instances):
                servers[(vnf.name, k)] = SimServer(
                    engine=engine,
                    service_rate=vnf.service_rate,
                    rng=rng,
                    on_departure=route_packet,
                )

        sources = []
        for request in self._requests.values():
            first_vnf = request.chain.vnf_names[0]
            k = self._schedule[(request.request_id, first_vnf)]
            target = servers[(first_vnf, k)]
            source = PoissonSource(
                engine=engine,
                request_id=request.request_id,
                rate=request.arrival_rate,
                rng=rng,
                emit=target.enqueue,
            )
            source.start()
            sources.append(source)

        final_time = engine.run(until=cfg.duration)
        measured_window = final_time

        instance_stats = []
        for (vnf_name, k), server in servers.items():
            server.finalize(final_time)
            instance_stats.append(
                InstanceStats(
                    key=(vnf_name, k),
                    arrivals=server.arrivals,
                    departures=server.departures,
                    mean_sojourn=server.mean_sojourn(),
                    utilization=server.measured_utilization(measured_window),
                )
            )

        return SimulationMetrics(
            duration=final_time,
            instances=instance_stats,
            delivered=delivered,
            end_to_end=end_to_end,
            retransmitted=retransmitted,
            generated=sum(s.generated for s in sources),
        )

    def _run_columns(self) -> SimulationMetrics:
        """The trace backend: one :func:`simulate_columns` run, its
        columns reshaped into :class:`SimulationMetrics`."""
        # Imported here: repro.sim.scale imports SimulationConfig from
        # this module.
        from repro.sim.scale import simulate_columns

        vnfs = list(self._vnfs.values())
        requests = list(self._requests.values())
        arrays = ScenarioArrays.build(vnfs, requests, {})
        # Only the chain pairs: like the event loop, ignore the rest.
        sched = arrays.schedule_arrays(
            {
                (r.request_id, name): self._schedule[(r.request_id, name)]
                for r in requests
                for name in r.chain
            }
        )
        m = simulate_columns(arrays, sched, self._config)

        keys = [(f.name, k) for f in vnfs for k in range(f.num_instances)]
        columns = zip(
            m.instance_arrivals.tolist(),
            m.instance_departures.tolist(),
            m.instance_mean_sojourn.tolist(),
            m.instance_utilization.tolist(),
        )
        instances = [
            InstanceStats(key, *stats) for key, stats in zip(keys, columns)
        ]
        # Group the per-delivery latencies by request; ``delivered``
        # counts exactly those deliveries, so it gives the group sizes.
        order = np.argsort(m.delivery_request, kind="stable")
        groups = np.split(
            m.delivery_latency[order], np.cumsum(m.delivered)[:-1]
        )
        rids = arrays.request_ids
        return SimulationMetrics(
            duration=m.duration,
            instances=instances,
            delivered=dict(zip(rids, m.delivered.tolist())),
            end_to_end={
                rid: group.tolist() for rid, group in zip(rids, groups)
            },
            retransmitted=dict(zip(rids, m.retransmitted.tolist())),
            generated=m.generated,
        )
