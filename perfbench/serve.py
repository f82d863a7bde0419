"""The serving workloads: churn through ``ServingLayer``, with and
without node crashes.

Both replay one seeded event trace through a warmed
:class:`~repro.core.incremental.DeploymentEngine` as fast as the engine
answers (a closed loop with one client).  ``serve_churn`` rebalances
every ``rebalance_every`` admits and has no fabric; ``serve_faults``
adds node crash/repair events, recovers with ``LeastLoadedReadmit`` and
never rebalances, on a leaf-spine fabric whose bandwidth gate every
admit goes through.

The VNFs, chains, node capacities and the node crash schedule come from
a fixed infrastructure seed, so every run serves the same deployment
through the same failures; ``--seed`` draws the traffic: the initial
population and the churn trace.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from harness import (
    Deadline,
    HostSpeed,
    Tracer,
    fcfs_response_times,
    median,
    quantile_stat,
)
from repro.core.incremental import DeploymentEngine
from repro.faults.events import failure_events, merge_timeline
from repro.faults.recovery import LeastLoadedReadmit
from repro.scheduling.rckk import RCKKScheduler
from repro.serve.events import ChurnEvent, poisson_churn
from repro.serve.service import ServingLayer
from repro.topology.leafspine import leaf_spine
from repro.workload.generator import WorkloadGenerator

#: Distinct stream tags so the two workloads never share traffic draws.
_STREAM_TAG = {"serve_churn": 1, "serve_faults": 2}


@dataclass
class Inputs:
    """Everything one serve run replays, made from the seeds alone."""

    vnfs: list
    capacities: dict
    topology: object
    initial: list
    events: list
    warmup: int


def make_inputs(name: str, cfg: dict, infra_seed: int, seed: int) -> Inputs:
    gen = WorkloadGenerator(np.random.default_rng(infra_seed))
    vnfs = gen.vnfs(cfg["num_vnfs"], instance_range=tuple(cfg["instance_range"]))
    chains = gen.chains(vnfs, cfg["num_chains"], max_length=cfg["max_chain_length"])
    sizes = list(
        gen.capacities_fitting(
            cfg["num_nodes"], vnfs, headroom=cfg["capacity_headroom"]
        ).values()
    )
    # Leaf-spine names its compute nodes server0..; use those keys on
    # both workloads so they serve the same deployment.
    capacities = {f"server{i}": cap for i, cap in enumerate(sizes)}
    topology = None
    if cfg.get("leaf_spine"):
        leaves, spines, per_leaf = cfg["leaf_spine"]
        topology = leaf_spine(
            leaves, spines, per_leaf, capacity_fn=lambda i: sizes[i]
        )

    init_ss, churn_ss = np.random.SeedSequence([seed, _STREAM_TAG[name]]).spawn(2)
    init_rng = np.random.default_rng(init_ss)
    rate_range = tuple(cfg["rate_range"])
    hold = cfg["mean_holding_s"]
    # A stationary start: the active population of the M/M/inf churn,
    # each with an Exp(hold) residual lifetime (memorylessness).
    initial = WorkloadGenerator(init_rng).requests(
        chains, cfg["active"], rate_range=rate_range, prefix="init-"
    )
    leaves_at = init_rng.exponential(hold, size=len(initial))
    duration = cfg["trace_events"] / (2.0 * cfg["arrival_rate"])
    churn = poisson_churn(
        chains,
        duration=duration,
        arrival_rate=cfg["arrival_rate"],
        mean_holding=hold,
        rng=np.random.default_rng(churn_ss),
        rate_range=rate_range,
    )
    churn.extend(
        ChurnEvent(time=float(t), kind="departure", request_id=r.request_id)
        for t, r in zip(leaves_at, initial)
        if t < duration
    )
    events = merge_timeline(churn)
    warmup = cfg["warmup_events"]
    if cfg.get("mtbf_s"):
        # Crashes start after the warm-up prefix, so every seed warms up
        # on the same kind of work.
        start = events[warmup].time
        faults = failure_events(
            tuple(capacities),
            duration=duration - start,
            mtbf=cfg["mtbf_s"],
            mttr=cfg["mttr_s"],
            # The crash schedule is part of the fixed infrastructure: which
            # nodes fail and when set how many chains each run evicts,
            # and a seeded schedule moved events_per_s by ~10% per seed.
            rng=np.random.default_rng([infra_seed, _STREAM_TAG[name]]),
        )
        shifted = [replace(f, time=f.time + start) for f in faults]
        events = events[:warmup] + merge_timeline(events[warmup:], shifted)
    return Inputs(
        vnfs=vnfs,
        capacities=capacities,
        topology=topology,
        initial=initial,
        events=events,
        warmup=warmup,
    )


class Server:
    """One warmed engine plus the layer that feeds it.

    The recovery policy is passed explicitly and the fault events are
    already merged into the trace, so ``ServingLayer`` gets no
    ``faults=`` list and the trace stays a plain iterable.
    """

    def __init__(self, inputs: Inputs, cfg: dict) -> None:
        self.scheduler = RCKKScheduler()
        self.policy = LeastLoadedReadmit() if cfg.get("mtbf_s") else None
        self.engine = DeploymentEngine(
            inputs.vnfs,
            inputs.capacities,
            inputs.initial,
            scheduler=self.scheduler,
            topology=inputs.topology,
            bandwidth=cfg.get("bandwidth"),
        )
        self.layer = ServingLayer(
            self.engine,
            rebalance_every=cfg["rebalance_every"],
            recovery=self.policy,
        )
        self.initial = len(inputs.initial)
        #: (start, seconds) of every call of the workload's blocking step:
        #: ``recover`` with a recovery policy, else ``rebalance``.  Timed
        #: here, with its start, so each sample can be normalised by the
        #: host speed at that moment.
        self.steps: List[Tuple[float, float]] = []
        if self.policy is not None:
            self.policy.recover = self._timed(self.policy.recover)
        else:
            self.engine.rebalance = self._timed(self.engine.rebalance)
        self.reports = [self.layer.process(inputs.events[: inputs.warmup])]

    def _timed(self, fn):
        steps = self.steps

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            steps.append((start, time.perf_counter() - start))
            return result

        return timed

    def replay(self, events, speed: HostSpeed, deadline: Optional[Deadline],
               limit=None, tracer: Optional[Tracer] = None):
        """Replay until the deadline passes (or ``limit`` events).

        Returns the report and the start and end stamp of every replayed
        event.  Host-speed probes run between events, outside both
        stamps.
        """
        starts: List[float] = []
        ends: List[float] = []
        if limit is not None:
            events = events[:limit]

        def feed():
            clock = time.perf_counter
            for event in events:
                now = clock()
                if starts:
                    ends.append(now)
                if deadline is not None and now >= deadline.end:
                    return
                if speed.due(now):
                    speed.probe()
                    now = clock()
                starts.append(now)
                yield event
            ends.append(clock())

        speed.probe()
        if tracer is None:
            report = self.layer.process(feed())
        else:
            with tracer.span("serve.service"):
                report = self.layer.process(feed())
        speed.probe()
        self.reports.append(report)
        return report, np.asarray(starts), np.asarray(ends)

    def instrument(self, tracer: Tracer) -> None:
        """Delegating span wrappers on the engine instance's public
        methods, the scheduler it was given and the recovery policy.

        The wrappers sit on the instance, so the engine's own calls go
        through them too: ``fail_node`` departs each evicted chain and
        ``LeastLoadedReadmit`` admits each readmitted one.  Those calls
        stay with the enclosing ``fail_node`` or ``recover`` span, so
        ``admit`` and ``depart`` count trace arrivals and departures only.
        """
        engine, count = self.engine, tracer.count

        def on_admit(report, _args):
            count("core.incremental.admit_calls")
            if report.admitted:
                count("core.incremental.admitted")
            else:
                count(f"core.incremental.rejected_{report.reason}")

        engine.admit = tracer.wrap(
            engine.admit, "core.incremental.admit", on_admit,
            within="faults.recovery.recover",
        )
        engine.depart = tracer.wrap(
            engine.depart, "core.incremental.depart",
            within="core.incremental.fail_node",
        )
        engine.fail_node = tracer.wrap(
            engine.fail_node,
            "core.incremental.fail_node",
            lambda evicted, _a: count("core.incremental.evicted", len(evicted)),
        )
        engine.rebalance = tracer.wrap(
            engine.rebalance,
            "core.incremental.rebalance",
            lambda rb, _a: count("core.incremental.migrations", rb.total_migrations),
        )
        self.scheduler.schedule = tracer.wrap(
            self.scheduler.schedule,
            "scheduling.rckk.schedule",
            lambda _r, _a: count("scheduling.rckk.calls"),
        )
        if self.policy is not None:

            def on_recover(outcome, _args):
                count("faults.recovery.episodes")
                count("faults.recovery.readmitted", len(outcome.readmitted))

            self.policy.recover = tracer.wrap(
                self.policy.recover, "faults.recovery.recover", on_recover
            )


def check_server(server: Server) -> List[str]:
    """Correctness of the replay so far; returns the failed checks."""
    failures = []
    engine = server.engine
    reports = server.reports
    for i, rep in enumerate(reports):
        if rep.admitted + rep.rejected != rep.arrivals:
            failures.append(
                f"report {i}: admitted {rep.admitted} + rejected "
                f"{rep.rejected} != arrivals {rep.arrivals}"
            )
    expected_active = server.initial + sum(
        rep.admitted + rep.readmissions - rep.departures - rep.evictions
        for rep in reports
    )
    if engine.num_active != expected_active or (
        engine.num_active != reports[-1].final_active
    ):
        failures.append(
            f"num_active {engine.num_active} != accounted {expected_active} "
            f"/ reported {reports[-1].final_active}"
        )

    arrays = engine.arrays
    expected = np.zeros(arrays.num_instances)
    failed_nodes = engine.failed_nodes
    placement = engine.placement
    on_failed = 0
    for rid in engine.active_requests:
        eff = float(arrays.eff_rate[arrays.request_index[rid]])
        for vnf_name, k in engine.assignment_of(rid).items():
            expected[int(arrays.instance_offset[arrays.vnf_index[vnf_name]]) + k] += eff
            if placement[vnf_name] in failed_nodes:
                on_failed += 1
    loads = engine.instance_loads()
    if not np.allclose(loads, expected, rtol=1e-9, atol=1e-6):
        worst = float(np.max(np.abs(loads - expected)))
        failures.append(f"instance loads drift from active assignments by {worst}")
    if on_failed:
        failures.append(f"{on_failed} active chain hops sit on failed nodes")
    return failures


def _normalised(starts, ends, speed: HostSpeed) -> np.ndarray:
    """Each event's handling time as the nominal host would take it."""
    return (ends - starts) / speed.slowdown(starts)


def _timed_stats(cfg: dict, inputs: Inputs, server: Server, report, starts,
                 ends, speed: HostSpeed, first_step: int) -> dict:
    """The end-to-end numbers of one untraced replay window.

    Times are host-speed normalised (see :class:`harness.HostSpeed`);
    the raw rate is reported beside the normalised one.
    """
    n = len(starts)
    service = _normalised(starts, ends, speed)
    timed = inputs.events[inputs.warmup : inputs.warmup + n]
    sim_t = np.fromiter((e.time for e in timed), dtype=np.float64, count=n)
    is_arrival = np.fromiter(
        (e.kind == "arrival" for e in timed), dtype=bool, count=n
    )
    # Map the trace's arrival intensity onto a fixed offered rate of
    # arrivals per wall second; every event keeps its relative due time.
    scale = cfg["arrival_rate"] / cfg["offered_arrivals_per_s"]
    due = (sim_t - sim_t[0]) * scale
    response = fcfs_response_times(due, service)[is_arrival]
    # ServingLayer times each admit; they come in arrival order.
    admits = np.asarray(report.admit_latencies) / speed.slowdown(
        starts[is_arrival]
    )
    steps = [
        seconds / float(speed.slowdown(start))
        for start, seconds in server.steps[first_step:]
    ]
    step = "recovery" if server.policy is not None else "rebalance"
    stats = {
        "events": n,
        "wall_s": float(ends[-1] - starts[0]),
        "handling_s": float(service.sum()),
        "events_per_s": n / float(service.sum()),
        "events_per_s_raw": n / float((ends - starts).sum()),
        "admit_p50_us": quantile_stat(admits, 0.50, 1e6),
        "admit_p99_us": quantile_stat(admits, 0.99, 1e6),
        "wait_p99_ms": quantile_stat(response, 0.99, 1e3),
        "offered_utilization": float(service.sum() / max(due[-1], 1e-12)),
        f"{step}_p50_ms": quantile_stat(steps, 0.50, 1e3),
        "arrivals": report.arrivals,
        "rejected": report.rejected,
        "crashes": report.crashes,
        "evictions": report.evictions,
        "readmissions": report.readmissions,
        "lost": report.lost,
    }
    if step == "recovery":
        stats["recovery_p90_ms"] = quantile_stat(steps, 0.90, 1e3)
    return stats


def _outcome(report) -> tuple:
    return (
        report.arrivals, report.admitted, report.rejected, report.departures,
        report.crashes, report.evictions, report.readmissions, report.lost,
        report.final_active,
    )


def _setup(inputs: Inputs, cfg: dict, repeats: int, speed: HostSpeed):
    """Build and warm ``repeats`` servers; keep the last, time each."""
    times = []
    for _ in range(repeats):
        speed.probe()
        start = time.perf_counter()
        with speed.sampling():
            server = Server(inputs, cfg)
        end = time.perf_counter()
        speed.probe()
        times.append(speed.normalise(start, end))
    return server, times


def run(name: str, cfg: dict, infra_seed: int, seed: int, seconds: float,
        trace: bool, setup_repeats: int, import_s: List[float],
        speed: HostSpeed) -> dict:
    inputs = make_inputs(name, cfg, infra_seed, seed)
    server, build_s = _setup(inputs, cfg, setup_repeats, speed)
    setup = [imp + build for imp, build in zip(import_s, build_s)]
    # Checked after warm-up too: a rebalance resets the load residuals,
    # and the timed window often ends right after one.
    failures = [f"after warm-up: {f}" for f in check_server(server)]
    window = seconds / 2.0 if trace else seconds
    first_step = len(server.steps)
    report, starts, ends = server.replay(
        inputs.events[inputs.warmup :], speed, Deadline(window)
    )
    if len(starts) == 0:
        raise RuntimeError("no events left to replay after warm-up")
    stats = _timed_stats(
        cfg, inputs, server, report, starts, ends, speed, first_step
    )
    failures.extend(check_server(server))
    out = {
        "setup_s": median(setup),
        "setup_samples": setup,
        "stats": stats,
        "attempted": stats["events"],
        # Refused arrivals are failed operations, of any reason.
        "failed": report.rejected,
        "failures": failures,
    }
    step_key = "recovery_p50_ms" if server.policy is not None else "rebalance_p50_ms"
    step = stats[step_key]
    if step["value"] is None:
        raise RuntimeError(f"no samples for {step_key} in the window")
    if step["beyond"] < 10:
        failures.append(f"{step_key} has {step['beyond']} samples beyond it")
    out["throughput_per_s"] = stats["events_per_s"]
    out["step_ms"] = step["value"]
    out["step"] = {"name": step_key, **step}
    if not trace:
        return out

    # Traced pass: a fresh, identically warmed server replays exactly
    # the events the untraced pass replayed, so it must reach the same
    # outcome, and the difference in handling time is the overhead.
    traced_server, _ = _setup(inputs, cfg, 1, speed)
    tracer = Tracer()
    traced_server.instrument(tracer)
    speed.tracer = tracer
    with tracer.span("perfbench.replay") as root:
        traced, t_starts, t_ends = traced_server.replay(
            inputs.events[inputs.warmup :], speed, None,
            limit=stats["events"], tracer=tracer,
        )
    failures.extend(check_server(traced_server))
    if _outcome(traced) != _outcome(report):
        failures.append(
            f"the traced replay ended {_outcome(traced)}, the untraced "
            f"one {_outcome(report)}"
        )
    out["tracer"] = tracer
    out["trace_wall_s"] = root["end"] - root["start"]
    out["overhead_s"] = (
        float(_normalised(t_starts, t_ends, speed).sum()) - stats["handling_s"]
    )
    return out
