"""``DeploymentEngine.admit_many`` is a loop of single admits.

Two engines replay the same operation sequence in lockstep: the one
under test enters every operation with a plan cached for every chain,
the reference with an empty cache, so it decides each step from the
live state alone.  Each sequence ends with a batch of
readmits: evicted chains, fresh chains, repeats and (sometimes) an id
that is already active.  The batch engine takes it in one
``admit_many`` call, the reference one ``admit`` at a time with the
recovery policy's budget rule; after every operation, copies of both
also take a probe batch of every catalogue chain.  Reports, instance
and link loads (byte for byte), schedule, placement, the columnar
request rows, the budget ledger and the power-of-two RNG stream must
all agree — so a plan kept past a state change it depends on shows up
as a difference.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.incremental import AdmitReport, DeploymentEngine
from repro.exceptions import InfeasiblePlacementError, SchedulingError
from repro.faults.recovery import MigrationBudget
from repro.nfv.chain import ServiceChain
from repro.nfv.request import Request
from repro.nfv.vnf import VNF
from repro.topology.leafspine import leaf_spine

NUM_NODES = 4
NODES = [f"server{i}" for i in range(NUM_NODES)]

#: A small chain catalogue, so later requests reuse the plans of
#: earlier ones (plans are cached per chain).
CHAINS = [(0,), (0, 1), (1, 2, 3), (2,), (3, 0), (2, 1)]
_CHAIN = st.sampled_from(CHAINS)
_RATE = st.floats(0.5, 12.0)
_PROB = st.sampled_from([1.0, 0.8, 0.5])
_OP = st.one_of(
    st.tuples(st.just("admit"), _CHAIN, _RATE, _PROB),
    st.tuples(st.just("depart"), st.integers(0, 99)),
    st.tuples(st.just("node"), st.integers(0, 3)),
    st.tuples(st.just("instance"), st.integers(0, 3), st.integers(0, 2)),
    st.tuples(st.just("move_vnf"), st.integers(0, 3),
              st.integers(0, NUM_NODES - 1)),
    st.tuples(st.just("rebalance")),
)
_ITEM = st.one_of(
    st.tuples(st.just("evicted"), st.integers(0, 99)),
    st.tuples(st.just("new"), _CHAIN, _RATE, _PROB),
    st.tuples(st.just("repeat"), st.integers(0, 99)),
)
_SPEC = st.fixed_dictionaries(
    {
        "instances": st.lists(st.integers(1, 3), min_size=4, max_size=4),
        "mu": st.lists(st.floats(10.0, 40.0), min_size=4, max_size=4),
        "fabric": st.booleans(),
        "bandwidth": st.floats(4.0, 40.0),
        "target": st.one_of(st.none(), st.floats(0.3, 0.999)),
        "admission": st.sampled_from(["least-loaded", "power-of-two"]),
        "rng": st.integers(0, 2**16),
        "initial": st.lists(st.tuples(_CHAIN, _RATE, _PROB), max_size=6),
        "ops": st.lists(_OP, max_size=12),
        "batch": st.lists(_ITEM, min_size=1, max_size=12),
        # Where an already-active id joins the batch, if anywhere.
        "active": st.one_of(
            st.none(), st.none(), st.none(), st.integers(0, 99)
        ),
        "budget": st.one_of(
            st.none(),
            st.tuples(
                st.one_of(st.none(), st.integers(0, 8)),
                st.one_of(st.none(), st.floats(0.0, 60.0)),
            ),
        ),
    }
)


def _request(rid, chain, rate, p):
    return Request(
        rid,
        ServiceChain([f"v{i}" for i in chain]),
        rate,
        delivery_probability=p,
    )


def _engine(spec):
    vnfs = [
        VNF(f"v{i}", demand_per_instance=1.0, num_instances=m,
            service_rate=mu)
        for i, (m, mu) in enumerate(zip(spec["instances"], spec["mu"]))
    ]
    # Without a fabric one node holds every VNF; with one, a node holds
    # one or two, so chains cross links and moves find room.
    instances = spec["instances"]
    cap = float(max(instances) + 2 if spec["fabric"] else sum(instances))
    caps = {node: cap for node in NODES}
    topology = (
        leaf_spine(2, 1, NUM_NODES // 2, capacity_fn=lambda i: caps[NODES[i]])
        if spec["fabric"]
        else None
    )
    initial = [
        _request(f"init{i}", *item) for i, item in enumerate(spec["initial"])
    ]
    return DeploymentEngine(
        vnfs,
        caps,
        initial,
        topology=topology,
        bandwidth=spec["bandwidth"] if spec["fabric"] else None,
        target_utilization=spec["target"],
        admission=spec["admission"],
        admission_rng=spec["rng"],
    )


def _apply(engine, op, fresh):
    """One operation; returns a comparable outcome."""
    kind = op[0]
    if kind == "admit":
        return engine.admit(_request(f"op{fresh}", *op[1:]))
    if kind == "depart":
        active = engine.active_requests
        if not active:
            return None
        return engine.depart(active[op[1] % len(active)])
    if kind == "node":
        # Crash the host of VNF ``op[1]``, or repair it if it is down.
        node = engine.placement[f"v{op[1]}"]
        if node in engine.failed_nodes:
            return engine.recover_node(node)
        return engine.fail_node(node)
    if kind == "instance":
        # Crash one instance of VNF ``op[1]``, or repair it if it is down.
        vnf, fi = f"v{op[1]}", op[1]
        k = op[2] % int(engine.arrays.M_f[fi])
        down = engine._down_inst
        if down is not None and down[int(engine.arrays.instance_offset[fi]) + k]:
            return engine.recover_instance(vnf, k)
        return engine.fail_instance(vnf, k)
    if kind == "move_vnf":
        return engine.move_vnf(f"v{op[1]}", NODES[op[2]])
    return engine.rebalance()


def _batch(spec, engine, evicted):
    """The readmit batch the spec's items name, in order."""
    batch = []
    for n, item in enumerate(spec["batch"]):
        kind = item[0]
        if kind == "evicted" and evicted:
            request = evicted[item[1] % len(evicted)]
            if request not in batch:
                batch.append(request)
        elif kind == "new":
            batch.append(_request(f"new{n}", *item[1:]))
        elif kind == "repeat" and batch:
            batch.append(batch[item[1] % len(batch)])
    active = engine.active_requests
    if spec["active"] is not None and active:
        rid = active[spec["active"] % len(active)]
        batch.insert(
            spec["active"] % (len(batch) + 1), _request(rid, [0], 1.0, 1.0)
        )
    return batch


def _one_by_one(engine, batch, budget):
    """The reference: single admits behind the recovery budget rule,
    every plan rebuilt from the live state."""
    reports = []
    for request in batch:
        eff = float(request.effective_rate)
        if budget is not None and not budget.can_charge(1, eff):
            reports.append(
                AdmitReport(request.request_id, False, reason="budget")
            )
            continue
        engine._plans.clear()
        report = engine.admit(request)
        if report.admitted and budget is not None:
            budget.try_charge(1, eff)
        reports.append(report)
    return reports


def _outcome(call):
    try:
        return call(), None
    except SchedulingError as exc:
        return None, str(exc)


def assert_same_engine(a, b):
    assert a.active_requests == b.active_requests
    assert a.instance_loads().tobytes() == b.instance_loads().tobytes()
    if a._link_loads is None:
        assert b._link_loads is None
    else:
        assert a._link_loads.tobytes() == b._link_loads.tobytes()
    assert a._schedule == b._schedule
    assert a.placement == b.placement
    assert a.placement_vector().tobytes() == b.placement_vector().tobytes()
    assert a.failed_nodes == b.failed_nodes
    if a._down_inst is None or b._down_inst is None:
        assert a._down_inst is None or not a._down_inst.any()
        assert b._down_inst is None or not b._down_inst.any()
    else:
        assert a._down_inst.tobytes() == b._down_inst.tobytes()
    x, y = a.arrays, b.arrays
    assert list(x.request_ids) == list(y.request_ids)
    assert dict(x.request_index) == dict(y.request_index)
    assert list(x.chain_names) == list(y.chain_names)
    for column in (
        "lambda_r", "P_r", "eff_rate", "chain_ptr", "chain_req", "chain_vnf",
    ):
        got, want = getattr(x, column), getattr(y, column)
        assert got.dtype == want.dtype, column
        assert got.tobytes() == want.tobytes(), column
    if a._admission_rng is not None:
        assert (
            a._admission_rng.bit_generator.state
            == b._admission_rng.bit_generator.state
        )


def _probe(engine, reference):
    """Every catalogue chain through copies of both engines: any plan
    the engine keeps must decide as a freshly built one would."""
    a, b = copy.deepcopy(engine), copy.deepcopy(reference)
    # Distinct rates, so a flow on a wrong link cannot cancel out.
    batch = [
        _request(f"probe{i}", chain, 1.0 + i / 8.0, 1.0)
        for i, chain in enumerate(CHAINS)
    ]
    assert a.admit_many(batch) == _one_by_one(b, batch, None)
    assert_same_engine(a, b)


def check_batch_rule(spec):
    """Replay ``spec`` on both engines; returns the batch reports."""
    try:
        engine, reference = _engine(spec), _engine(spec)
    except InfeasiblePlacementError:
        return None
    evicted = []
    for fresh, op in enumerate(spec["ops"]):
        # A plan for every chain going in, so a change that fails to
        # drop the cache leaves stale plans for the probe to meet.
        for chain in CHAINS:
            engine._plan(tuple(f"v{i}" for i in chain))
        reference._plans.clear()
        got, got_err = _outcome(lambda: _apply(engine, op, fresh))
        want, want_err = _outcome(lambda: _apply(reference, op, fresh))
        assert got_err == want_err
        if isinstance(got, list):
            assert [r.request_id for r in got] == [
                r.request_id for r in want
            ]
            evicted.extend(got)
        else:
            assert got == want
        assert_same_engine(engine, reference)
        _probe(engine, reference)

    batch = _batch(spec, engine, evicted)
    caps = spec["budget"]
    budget = MigrationBudget(*caps) if caps is not None else None
    ref_budget = MigrationBudget(*caps) if caps is not None else None
    got, got_err = _outcome(lambda: engine.admit_many(batch, budget=budget))
    ref_reports = []
    want_err = None
    try:
        ref_reports.extend(_one_by_one(reference, batch, ref_budget))
    except SchedulingError as exc:
        want_err = str(exc)
    assert got_err == want_err
    if got_err is None:
        assert got == ref_reports
    assert_same_engine(engine, reference)
    if budget is not None:
        assert budget.spent_migrations == ref_budget.spent_migrations
        assert budget.spent_load == ref_budget.spent_load
    return got, got_err


@settings(max_examples=150, deadline=None)
@given(spec=_SPEC)
def test_admit_many_equals_single_admits(spec):
    assume(check_batch_rule(spec) is not None)


def _spec(**overrides):
    spec = {
        "instances": [2, 2, 1, 3],
        "mu": [20.0, 20.0, 20.0, 20.0],
        "fabric": False,
        "bandwidth": 40.0,
        "target": 0.9,
        "admission": "least-loaded",
        "rng": 7,
        "initial": [([0, 1], 2.0, 1.0), ([2], 3.0, 1.0), ([3, 0], 1.0, 1.0)],
        "ops": [],
        "batch": [("new", [0, 1, 2], 1.0, 1.0)],
        "active": None,
        "budget": None,
    }
    spec.update(overrides)
    return spec


def _reasons(spec):
    reports, err = check_batch_rule(spec)
    assert err is None
    return [report.reason for report in reports]


class TestEveryOutcome:
    """Hand-made specs that each force one outcome through the
    lockstep check, so every branch of the batch rule is exercised
    whatever the random draws above happen to cover."""

    def test_capacity(self):
        batch = [("new", [0], 10.0, 1.0)] * 1 + [
            ("new", [0, 1], 10.0, 1.0) for _ in range(4)
        ]
        assert "capacity" in _reasons(_spec(batch=batch))

    def test_bandwidth(self):
        batch = [("new", [0, 1, 2, 3], 4.0, 1.0) for _ in range(8)]
        spec = _spec(
            fabric=True, bandwidth=10.0, target=None, batch=batch,
            ops=[("move_vnf", 0, 0), ("move_vnf", 1, 3),
                 ("move_vnf", 2, 0), ("move_vnf", 3, 3)],
        )
        assert "bandwidth" in _reasons(spec)

    def test_unavailable_failed_node(self):
        spec = _spec(
            ops=[("node", 0)],
            batch=[("evicted", 0), ("evicted", 1), ("new", [0], 1.0, 1.0)],
        )
        assert set(_reasons(spec)) == {"unavailable"}

    def test_unavailable_all_instances_down(self):
        # v2 has one instance: downing it makes every chain through v2
        # unavailable, after the hops before it were tried.
        spec = _spec(
            admission="power-of-two",
            ops=[("instance", 2, 0)],
            batch=[("new", [0, 2], 1.0, 1.0), ("new", [2], 1.0, 1.0),
                   ("new", [0, 1], 1.0, 1.0)],
        )
        assert _reasons(spec) == ["unavailable", "unavailable", None]

    def test_budget(self):
        spec = _spec(
            budget=(2, None),
            batch=[("new", [0], 1.0, 1.0) for _ in range(4)],
        )
        assert _reasons(spec) == [None, None, "budget", "budget"]

    def test_duplicate_id_mid_batch_keeps_earlier_admits(self):
        spec = _spec(
            batch=[("new", [0], 1.0, 1.0), ("new", [1], 1.0, 1.0)],
            active=1,
        )
        reports, err = check_batch_rule(spec)
        assert reports is None and "already active" in err

    def test_recovered_chains_are_tried_again(self):
        spec = _spec(
            fabric=True,
            ops=[("node", 0), ("node", 1), ("node", 0), ("node", 1),
                 ("instance", 3, 1), ("instance", 3, 1), ("rebalance",)],
            batch=[("evicted", i) for i in range(4)],
        )
        _reasons(spec)


class TestMovePlans:
    """Moves the random draws seldom reach: off a crashed node without
    a fabric, and a move the fabric refuses (reverted)."""

    def test_move_off_a_failed_node_unblocks_its_chains(self):
        spec = _spec()
        host = _engine(spec).placement["v0"]
        target = next(i for i, node in enumerate(NODES) if node != host)
        spec = _spec(
            ops=[("node", 0), ("move_vnf", 0, target)],
            batch=[("new", [0], 1.0, 1.0)],
        )
        assert _reasons(spec) == [None]

    def test_reverted_move_keeps_the_routes_in_force(self):
        spec = _spec(
            fabric=True,
            bandwidth=6.0,
            target=None,
            initial=[([0, 1], 2.5, 1.0), ([1, 2, 3], 2.5, 1.0),
                     ([3, 0], 2.5, 1.0), ([2, 1], 2.5, 1.0)],
        )
        engine = _engine(spec)
        reverted = [
            (f, n)
            for f in range(4)
            for n in range(NUM_NODES)
            if not copy.deepcopy(engine).move_vnf(f"v{f}", NODES[n])
            and engine.placement[f"v{f}"] != NODES[n]
        ]
        assert reverted
        spec["ops"] = [("move_vnf", f, n) for f, n in reverted]
        spec["batch"] = [("new", list(chain), 0.5, 1.0) for chain in CHAINS]
        _reasons(spec)


def test_admit_is_the_one_request_batch():
    spec = _spec()
    engine = _engine(spec)
    request = _request("solo", [0, 1], 1.0, 1.0)
    twin = _engine(spec)
    assert engine.admit(request) == twin.admit_many([request])[0]
    assert_same_engine(engine, twin)


def test_admit_many_of_nothing_changes_nothing():
    spec = _spec()
    engine, twin = _engine(spec), _engine(spec)
    assert engine.admit_many([], budget=MigrationBudget(0, 0.0)) == []
    assert_same_engine(engine, twin)


@pytest.mark.parametrize("admission", ["least-loaded", "power-of-two"])
def test_batch_admits_see_their_predecessors(admission):
    """Within one batch each request is placed against the loads the
    earlier ones left, so equal requests spread over the instances."""
    spec = _spec(initial=[], admission=admission, target=None)
    engine = _engine(spec)
    batch = [_request(f"b{i}", [3], 1.0, 1.0) for i in range(6)]
    reports = engine.admit_many(batch)
    assert all(report.admitted for report in reports)
    if admission == "least-loaded":
        assert [r.assignment["v3"] for r in reports] == [0, 1, 2, 0, 1, 2]
    loads = engine.instance_loads()
    offset = int(engine.arrays.instance_offset[3])
    assert np.sum(loads[offset : offset + 3]) == 6.0
