"""Unit tests for the serving loop (``repro.serve.service``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.incremental import DeploymentEngine
from repro.exceptions import ValidationError
from repro.nfv.chain import ServiceChain
from repro.nfv.request import Request
from repro.nfv.vnf import VNF
from repro.serve.events import ChurnEvent, poisson_churn
from repro.serve.service import ServeReport, ServingLayer


def _engine(target=None, mu=100.0):
    vnfs = [
        VNF("fw", demand_per_instance=10.0, num_instances=2,
            service_rate=mu),
        VNF("lb", demand_per_instance=8.0, num_instances=2,
            service_rate=mu),
    ]
    caps = {"n0": 40.0, "n1": 40.0}
    return DeploymentEngine(vnfs, caps, target_utilization=target)


def _arrival(t, rid, names, rate):
    request = Request(rid, ServiceChain(list(names)), rate)
    return ChurnEvent(time=t, kind="arrival", request_id=rid,
                      request=request)


def _departure(t, rid):
    return ChurnEvent(time=t, kind="departure", request_id=rid)


class TestProcess:
    def test_counts_and_final_active(self):
        layer = ServingLayer(_engine())
        report = layer.process([
            _arrival(0.0, "a", ["fw"], 5.0),
            _arrival(1.0, "b", ["fw", "lb"], 3.0),
            _departure(2.0, "a"),
            _arrival(3.0, "c", ["lb"], 2.0),
        ])
        assert isinstance(report, ServeReport)
        assert report.arrivals == 3
        assert report.admitted == 3
        assert report.departures == 1
        assert report.rejected == 0
        assert report.final_active == 2
        assert layer.engine.num_active == 2
        assert len(report.admit_latencies) == 3
        assert sum(report.admit_latencies) > 0.0

    def test_rejected_departure_is_skipped_not_retracted(self):
        # Cap 100 * 0.5 = 50 per instance; the 60-rate arrival bounces.
        layer = ServingLayer(_engine(target=0.5))
        report = layer.process([
            _arrival(0.0, "a", ["fw"], 40.0),
            _arrival(1.0, "big", ["fw"], 60.0),
            _departure(2.0, "big"),  # must not raise / must not count
            _departure(3.0, "a"),
        ])
        assert report.rejected_capacity == 1
        assert report.rejection_rate == pytest.approx(0.5)
        assert report.departures == 1
        assert report.final_active == 0

    def test_rebalance_cadence(self):
        layer = ServingLayer(_engine(), rebalance_every=2)
        events = [
            _arrival(float(i), f"r{i}", ["fw"], 1.0) for i in range(5)
        ]
        report = layer.process(events)
        # 5 admits at cadence 2 -> rebalances after admits 2 and 4.
        assert report.rebalances == 2
        assert len(report.rebalance_latencies) == 2
        assert sum(report.rebalance_latencies) > 0.0

    def test_zero_cadence_never_rebalances(self):
        layer = ServingLayer(_engine(), rebalance_every=0)
        report = layer.process(
            [_arrival(float(i), f"r{i}", ["fw"], 1.0) for i in range(6)]
        )
        assert report.rebalances == 0

    def test_unknown_kind_rejected(self):
        layer = ServingLayer(_engine())
        with pytest.raises(ValidationError):
            layer.process(
                [ChurnEvent(time=0.0, kind="meteor", request_id="x")]
            )

    def test_arrival_without_request_rejected(self):
        layer = ServingLayer(_engine())
        with pytest.raises(ValidationError):
            layer.process(
                [ChurnEvent(time=0.0, kind="arrival", request_id="x")]
            )

    def test_negative_cadence_rejected(self):
        with pytest.raises(ValidationError):
            ServingLayer(_engine(), rebalance_every=-1)


class TestEndToEnd:
    def test_churn_trace_replay_is_deterministic_in_outcome(self):
        chains = [ServiceChain(["fw", "lb"]), ServiceChain(["lb"])]
        events = poisson_churn(
            chains,
            duration=300.0,
            arrival_rate=0.1,
            mean_holding=40.0,
            rng=np.random.default_rng(11),
            rate_range=(1.0, 10.0),
        )
        outcomes = []
        for _ in range(2):
            layer = ServingLayer(_engine(mu=1000.0), rebalance_every=5)
            report = layer.process(events)
            outcomes.append(
                (report.admitted, report.rejected, report.departures,
                 report.migrations, report.final_active,
                 tuple(layer.engine.active_requests))
            )
        assert outcomes[0] == outcomes[1]
        # Bookkeeping closes: arrivals all accounted for.
        report_admitted = outcomes[0][0]
        assert report_admitted - outcomes[0][2] == outcomes[0][4]
