"""``DeploymentEngine`` queues its request-row writes.

Admits record pending requests and departs queue row ids; whatever
reads request rows applies the queue first (one ``remove_requests``,
then one ``append_requests``).  Whenever it is read, ``engine.arrays``
must equal ``ScenarioArrays.build`` over the active requests in arrival
order, column for column and dtype for dtype, however the writes of the
epoch before interleaved.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arrays import ScenarioArrays
from repro.core.incremental import DeploymentEngine
from repro.exceptions import InfeasiblePlacementError
from repro.nfv.chain import ServiceChain
from repro.nfv.request import Request
from repro.nfv.vnf import VNF
from repro.topology.leafspine import leaf_spine

NODES = [f"server{i}" for i in range(4)]
CHAINS = [(0,), (0, 1), (1, 2, 3), (2,), (3, 0), (2, 1)]

_CHAIN = st.sampled_from(CHAINS)
_RATE = st.floats(0.5, 6.0)
_PROB = st.sampled_from([1.0, 0.8, 0.5])
_NEW = st.tuples(_CHAIN, _RATE, _PROB)
#: Every op carries a flag: read ``engine.arrays`` after it, or (more
#: often) leave the queue to grow into the next op.
_OP = st.tuples(
    st.one_of(
        st.tuples(st.just("admit"), _NEW),
        st.tuples(st.just("admit_many"), st.lists(_NEW, max_size=5)),
        st.tuples(st.just("depart"), st.integers(0, 99)),
        st.tuples(st.just("node"), st.integers(0, 3)),
        st.tuples(st.just("instance"), st.integers(0, 3), st.integers(0, 2)),
        st.tuples(st.just("latency")),
        st.tuples(
            st.just("readmit"), st.lists(st.integers(0, 99), max_size=4)
        ),
        st.tuples(st.just("rebalance")),
    ),
    st.sampled_from([False, False, False, True]),
)


def _vnfs(instances, mu):
    return [
        VNF(f"v{i}", demand_per_instance=1.0, num_instances=m,
            service_rate=rate)
        for i, (m, rate) in enumerate(zip(instances, mu))
    ]


class _Run:
    """One engine plus every request it was ever offered, by id."""

    def __init__(self, instances, mu, fabric, initial):
        self.vnfs = _vnfs(instances, mu)
        cap = float(max(instances) + 2 if fabric else sum(instances))
        self.caps = {node: cap for node in NODES}
        self.made = {}
        self.gone = []
        topology = (
            leaf_spine(2, 1, 2, capacity_fn=lambda i: cap) if fabric else None
        )
        self.engine = DeploymentEngine(
            self.vnfs,
            self.caps,
            [self._new(*spec) for spec in initial],
            topology=topology,
            bandwidth=20.0 if fabric else None,
        )

    def _new(self, chain, rate, p):
        request = Request(
            f"r{len(self.made)}",
            ServiceChain([f"v{i}" for i in chain]),
            rate,
            delivery_probability=p,
        )
        self.made[request.request_id] = request
        return request

    def apply(self, op):
        engine, kind = self.engine, op[0]
        if kind == "admit":
            engine.admit(self._new(*op[1]))
        elif kind == "admit_many":
            engine.admit_many([self._new(*spec) for spec in op[1]])
        elif kind == "depart":
            active = engine.active_requests
            if active:
                rid = active[op[1] % len(active)]
                engine.depart(rid)
                self.gone.append(self.made[rid])
        elif kind == "node":
            # Crash the host of VNF ``op[1]``, or repair it if it is down.
            node = engine.placement[f"v{op[1]}"]
            if node in engine.failed_nodes:
                engine.recover_node(node)
            else:
                self.gone.extend(engine.fail_node(node))
        elif kind == "instance":
            # Crash one instance of VNF ``op[1]``, or repair it if down.
            vnf, k = f"v{op[1]}", op[2] % self.vnfs[op[1]].num_instances
            down = engine._down_inst
            offset = sum(f.num_instances for f in self.vnfs[: op[1]])
            if down is not None and down[offset + k]:
                engine.recover_instance(vnf, k)
            else:
                self.gone.extend(engine.fail_instance(vnf, k))
        elif kind == "latency":
            ids, latencies = engine.request_response_times()
            assert ids == engine.active_requests
            assert len(latencies) == len(ids)
        elif kind == "readmit" and self.gone:
            active = set(engine.active_requests)
            batch = []
            for i in op[1]:
                request = self.gone[i % len(self.gone)]
                if request.request_id not in active and request not in batch:
                    batch.append(request)
            engine.admit_many(batch)
        elif kind == "rebalance":
            engine.rebalance()

    def assert_rows_are_the_build(self):
        arrays = self.engine.arrays
        fresh = ScenarioArrays.build(
            self.vnfs,
            [self.made[rid] for rid in self.engine.active_requests],
            self.caps,
        )
        assert list(arrays.request_ids) == list(fresh.request_ids)
        assert dict(arrays.request_index) == dict(fresh.request_index)
        assert list(arrays.chain_names) == list(fresh.chain_names)
        assert arrays.chain_has_unknown == fresh.chain_has_unknown
        for column in (
            "lambda_r", "P_r", "eff_rate", "chain_ptr", "chain_req",
            "chain_vnf",
        ):
            got, want = getattr(arrays, column), getattr(fresh, column)
            assert got.dtype == want.dtype, column
            assert got.tobytes() == want.tobytes(), column


@settings(max_examples=150, deadline=None)
@given(
    instances=st.lists(st.integers(1, 3), min_size=4, max_size=4),
    mu=st.lists(st.floats(10.0, 40.0), min_size=4, max_size=4),
    fabric=st.booleans(),
    initial=st.lists(_NEW, max_size=6),
    ops=st.lists(_OP, max_size=25),
)
def test_arrays_are_the_build_over_the_active_requests(
    instances, mu, fabric, initial, ops
):
    try:
        run = _Run(instances, mu, fabric, initial)
    except InfeasiblePlacementError:
        return
    for op, read in ops:
        run.apply(op)
        # A crash found its victims on the rows of the pending admits
        # too: no active chain is left on a failed node or a down
        # instance.
        engine = run.engine
        placement, failed = engine.placement, engine.failed_nodes
        for rid in engine.active_requests:
            for name, k in engine.assignment_of(rid).items():
                assert placement[name] not in failed
                fi = int(name[1:])
                offset = sum(f.num_instances for f in run.vnfs[:fi])
                down = engine._down_inst
                assert down is None or not down[offset + k]
        if read:
            run.assert_rows_are_the_build()
    run.assert_rows_are_the_build()


@pytest.fixture
def row_calls(monkeypatch):
    """Names of the ``ScenarioArrays`` row writes, in call order."""
    calls = []
    for name in ("append_requests", "remove_requests"):
        real = getattr(ScenarioArrays, name)

        def spy(self, *args, _real=real, _name=name):
            calls.append(_name)
            return _real(self, *args)

        monkeypatch.setattr(ScenarioArrays, name, spy)
    return calls


def _engine():
    run = _Run([2, 2, 2, 2], [40.0] * 4, False, [((0, 1), 2.0, 1.0)] * 3)
    return run, run.engine


def test_admit_then_depart_in_one_epoch_writes_no_row(row_calls):
    run, engine = _engine()
    request = run._new((1, 2, 3), 1.0, 1.0)
    assert engine.admit(request).admitted
    engine.depart(request.request_id)
    engine.arrays
    engine.rebalance()
    assert row_calls == []
    run.assert_rows_are_the_build()


def test_an_epoch_is_one_removal_then_one_append(row_calls):
    run, engine = _engine()
    first, second = engine.active_requests[:2]
    engine.depart(first)
    assert engine.admit(run._new((0,), 1.0, 1.0)).admitted
    engine.depart(second)
    assert engine.admit(run._new((2,), 1.0, 1.0)).admitted
    assert row_calls == []
    engine.rebalance()
    assert row_calls == ["remove_requests", "append_requests"]
    run.assert_rows_are_the_build()
    assert row_calls == ["remove_requests", "append_requests"]


def test_evictions_leave_the_rows_at_once(row_calls):
    run, engine = _engine()
    node = engine.placement["v0"]
    evicted = engine.fail_node(node)
    assert evicted and row_calls == ["remove_requests"]
    # Nothing is left queued for the next read.
    run.assert_rows_are_the_build()
    assert row_calls == ["remove_requests"]
