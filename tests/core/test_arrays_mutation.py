"""Mutation parity for ``ScenarioArrays.append_requests`` /
``remove_requests``, one row at a time and in batches.

The contract (docs/ARRAYS_CORE.md + docs/SERVING.md): after any
sequence of appends and removes, every request-derived column, both
cached CSR views and the ``request_index`` mapping match a from-scratch
``ScenarioArrays.build`` over the surviving request sequence.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.arrays import ScenarioArrays
from repro.core.dtypes import LEAN_POLICY
from repro.exceptions import ValidationError
from repro.nfv.chain import ServiceChain
from repro.nfv.request import Request
from repro.nfv.vnf import VNF


@pytest.fixture
def vnfs():
    return [
        VNF("fw", demand_per_instance=10.0, num_instances=2,
            service_rate=100.0),
        VNF("nat", demand_per_instance=5.0, num_instances=3,
            service_rate=200.0),
        VNF("lb", demand_per_instance=8.0, num_instances=1,
            service_rate=150.0),
    ]


@pytest.fixture
def capacities():
    return {"n0": 50.0, "n1": 40.0, "n2": 30.0}


def _request(i: int, names, rate: float, p: float = 1.0) -> Request:
    return Request(f"r{i}", ServiceChain(list(names)), rate,
                   delivery_probability=p)


#: Chains over the fixture VNFs; "ghost" is unknown to the scenario.
_CHAINS = st.lists(
    st.sampled_from(["fw", "nat", "lb", "ghost"]),
    min_size=1,
    max_size=3,
    unique=True,
)
_RATES = st.floats(0.5, 100.0)
_PROBS = st.floats(0.5, 1.0)


def assert_matches_rebuild(arrays, vnfs, requests, capacities):
    """Every request-derived view == a fresh build over ``requests``."""
    fresh = ScenarioArrays.build(vnfs, requests, capacities)
    assert list(arrays.request_ids) == list(fresh.request_ids)
    assert dict(arrays.request_index) == dict(fresh.request_index)
    assert list(arrays.chain_names) == list(fresh.chain_names)
    assert arrays.chain_has_unknown == fresh.chain_has_unknown
    for column in ("lambda_r", "P_r", "eff_rate"):
        np.testing.assert_allclose(
            getattr(arrays, column), getattr(fresh, column),
            rtol=0, atol=1e-12, err_msg=column,
        )
    for column in ("chain_ptr", "chain_req", "chain_vnf"):
        np.testing.assert_array_equal(
            getattr(arrays, column), getattr(fresh, column), err_msg=column
        )
    # Cached CSR views must be rebuilt for the mutated request set.
    for csr in ("vnf_requests", "vnf_chain_neighbors"):
        got_ptr, got_idx = getattr(arrays, csr)()
        want_ptr, want_idx = getattr(fresh, csr)()
        np.testing.assert_array_equal(got_ptr, want_ptr, err_msg=csr)
        np.testing.assert_array_equal(got_idx, want_idx, err_msg=csr)


class TestAppend:
    def test_append_matches_rebuild_each_step(self, vnfs, capacities):
        pool = [
            _request(0, ["fw", "nat"], 10.0, 0.5),
            _request(1, ["nat", "lb"], 20.0),
            _request(2, ["fw", "nat", "lb"], 30.0, 0.8),
            _request(3, ["lb"], 5.0),
        ]
        arrays = ScenarioArrays.build(vnfs, [], capacities)
        live = []
        for request in pool:
            # Warm both caches so staleness would be visible.
            arrays.vnf_requests()
            arrays.vnf_chain_neighbors()
            idx = arrays.append_requests([request])
            assert idx == len(live)
            live.append(request)
            assert_matches_rebuild(arrays, vnfs, live, capacities)

    def test_effective_rate_division_is_exact(self, vnfs, capacities):
        arrays = ScenarioArrays.build(vnfs, [], capacities)
        request = _request(0, ["fw"], 37.0, 0.7)
        arrays.append_requests([request])
        # Same IEEE division as build — bit-equal, not just close.
        assert arrays.eff_rate[0] == np.float64(37.0) / np.float64(0.7)

    def test_duplicate_id_rejected(self, vnfs, capacities):
        arrays = ScenarioArrays.build(
            vnfs, [_request(0, ["fw"], 1.0)], capacities
        )
        with pytest.raises(ValidationError):
            arrays.append_requests([_request(0, ["nat"], 2.0)])

    def test_unknown_vnf_sets_flag(self, vnfs, capacities):
        arrays = ScenarioArrays.build(
            vnfs, [_request(0, ["fw"], 1.0)], capacities
        )
        assert not arrays.chain_has_unknown
        arrays.append_requests([_request(1, ["ghost"], 1.0)])
        assert arrays.chain_has_unknown
        assert arrays.chain_vnf[-1] == -1


class TestRemove:
    def test_remove_matches_rebuild_each_step(self, vnfs, capacities):
        pool = [
            _request(0, ["fw", "nat"], 10.0, 0.5),
            _request(1, ["nat", "lb"], 20.0),
            _request(2, ["fw", "nat", "lb"], 30.0, 0.8),
            _request(3, ["lb"], 5.0),
            _request(4, ["fw"], 7.0),
        ]
        arrays = ScenarioArrays.build(vnfs, pool, capacities)
        live = list(pool)
        for rid in ("r2", "r0", "r4", "r3", "r1"):  # middle/first/last
            arrays.vnf_requests()
            arrays.vnf_chain_neighbors()
            (idx,) = arrays.remove_requests([rid])
            assert idx == [r.request_id for r in live].index(rid)
            live = [r for r in live if r.request_id != rid]
            assert_matches_rebuild(arrays, vnfs, live, capacities)
        assert len(arrays.request_ids) == 0
        assert len(arrays.chain_req) == 0

    def test_unknown_id_rejected(self, vnfs, capacities):
        live = [_request(0, ["fw"], 1.0), _request(1, ["fw"], 2.0)]
        arrays = ScenarioArrays.build(vnfs, live, capacities)
        # One id, and an unknown id among several: nothing is removed.
        for ids in (["ghost"], ["r1", "ghost", "r0"]):
            with pytest.raises(ValidationError, match="'ghost'"):
                arrays.remove_requests(ids)
            assert_matches_rebuild(arrays, vnfs, live, capacities)

    def test_unknown_flag_clears_when_last_unknown_leaves(
        self, vnfs, capacities
    ):
        arrays = ScenarioArrays.build(
            vnfs,
            [_request(0, ["fw"], 1.0), _request(1, ["ghost"], 1.0)],
            capacities,
        )
        assert arrays.chain_has_unknown
        arrays.remove_requests(["r1"])
        assert not arrays.chain_has_unknown


class TestChurnSequence:
    def test_randomized_interleaving_matches_rebuild(self, vnfs, capacities):
        """Long random admit/depart interleaving, checked per step."""
        rng = np.random.default_rng(20170605)
        names = ["fw", "nat", "lb"]
        arrays = ScenarioArrays.build(vnfs, [], capacities)
        live = []
        next_id = 0
        for step in range(60):
            if live and rng.random() < 0.4:
                victim = live[int(rng.integers(len(live)))]
                arrays.remove_requests([victim.request_id])
                live.remove(victim)
            else:
                size = int(rng.integers(1, 4))
                chain = [
                    str(n)
                    for n in rng.choice(names, size=size, replace=False)
                ]
                request = _request(
                    next_id, chain, float(rng.uniform(1.0, 100.0)),
                    float(rng.uniform(0.5, 1.0)),
                )
                next_id += 1
                arrays.append_requests([request])
                live.append(request)
            if step % 5 == 0:
                assert_matches_rebuild(arrays, vnfs, live, capacities)
        assert_matches_rebuild(arrays, vnfs, live, capacities)

    def test_growth_does_not_alias_public_columns(self, vnfs, capacities):
        """A held reference to a column stays valid after regrowth."""
        arrays = ScenarioArrays.build(
            vnfs, [_request(0, ["fw"], 1.0)], capacities
        )
        before = arrays.lambda_r.copy()
        for i in range(1, 40):  # force several buffer doublings
            arrays.append_requests([_request(i, ["nat"], float(i))])
        np.testing.assert_array_equal(arrays.lambda_r[:1], before)
        assert arrays.lambda_r[39] == 39.0


class RowMutationMachine(RuleBasedStateMachine):
    """Random append / remove / batch-remove sequences, checked per step.

    After every step the request columns, the chain CSR and the
    ``request_index`` mapping (lookups, membership, length, iteration,
    ``dict(...)`` and a pickle round trip) equal a fresh
    :meth:`ScenarioArrays.build` over the live requests, exactly.
    Removed ids may come back, so an id can hold several rows over its
    life.
    """

    VNFS = [
        VNF("fw", demand_per_instance=10.0, num_instances=2,
            service_rate=100.0),
        VNF("nat", demand_per_instance=5.0, num_instances=3,
            service_rate=200.0),
        VNF("lb", demand_per_instance=8.0, num_instances=1,
            service_rate=150.0),
    ]
    CAPACITIES = {"n0": 50.0, "n1": 40.0}

    def __init__(self):
        super().__init__()
        self.live = []
        self.gone = []
        self.next_id = 0

    def _new(self, chain, rate, p):
        request = _request(self.next_id, chain, rate, p)
        self.next_id += 1
        return request

    @initialize(
        specs=st.lists(
            st.tuples(_CHAINS, _RATES, _PROBS), max_size=6
        ),
        lean=st.booleans(),
    )
    def start(self, specs, lean):
        self.policy = LEAN_POLICY if lean else None
        self.live = [self._new(*spec) for spec in specs]
        self.arrays = ScenarioArrays.build(
            self.VNFS, self.live, self.CAPACITIES, dtypes=self.policy
        )

    @rule(chain=_CHAINS, rate=_RATES, p=_PROBS)
    def append(self, chain, rate, p):
        request = self._new(chain, rate, p)
        assert self.arrays.append_requests([request]) == len(self.live)
        self.live.append(request)

    @precondition(lambda self: self.gone)
    @rule(data=st.data())
    def readmit(self, data):
        request = data.draw(st.sampled_from(self.gone))
        self.gone.remove(request)
        assert self.arrays.append_requests([request]) == len(self.live)
        self.live.append(request)

    @rule(
        specs=st.lists(st.tuples(_CHAINS, _RATES, _PROBS), max_size=4),
        data=st.data(),
    )
    def append_many(self, specs, data):
        returning = (
            data.draw(st.lists(st.sampled_from(self.gone), unique=True))
            if self.gone
            else []
        )
        batch = data.draw(
            st.permutations([self._new(*spec) for spec in specs] + returning)
        )
        assert self.arrays.append_requests(batch) == len(self.live)
        self.live.extend(batch)
        for request in returning:
            self.gone.remove(request)

    @precondition(lambda self: self.live)
    @rule(
        specs=st.lists(st.tuples(_CHAINS, _RATES, _PROBS), max_size=3),
        data=st.data(),
    )
    def append_many_rejects_a_duplicate(self, specs, data):
        """A batch repeating a live id, or one of its own, changes
        nothing (the invariant checks the columns after)."""
        batch = [self._new(*spec) for spec in specs]
        twin = data.draw(st.sampled_from(self.live + batch))
        batch.insert(data.draw(st.integers(0, len(batch))), twin)
        with pytest.raises(ValidationError):
            self.arrays.append_requests(batch)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def remove_one(self, data):
        request = data.draw(st.sampled_from(self.live))
        row = self.live.index(request)
        assert self.arrays.remove_requests([request.request_id]).tolist() == [row]
        self.live.remove(request)
        self.gone.append(request)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def remove_many(self, data):
        victims = data.draw(
            st.lists(st.sampled_from(self.live), unique=True, min_size=1)
        )
        rows = sorted(self.live.index(r) for r in victims)
        got = self.arrays.remove_requests(r.request_id for r in victims)
        assert got.tolist() == rows
        self.live = [r for r in self.live if r not in victims]
        self.gone.extend(victims)

    @invariant()
    def matches_build(self):
        arrays = self.arrays
        fresh = ScenarioArrays.build(
            self.VNFS, self.live, self.CAPACITIES, dtypes=self.policy
        )
        for column in (
            "lambda_r", "P_r", "eff_rate", "chain_ptr", "chain_req",
            "chain_vnf",
        ):
            got, want = getattr(arrays, column), getattr(fresh, column)
            assert got.dtype == want.dtype, column
            np.testing.assert_array_equal(got, want, err_msg=column)
        assert list(arrays.request_ids) == list(fresh.request_ids)
        assert list(arrays.chain_names) == list(fresh.chain_names)
        assert arrays.chain_has_unknown == fresh.chain_has_unknown
        index, want = arrays.request_index, fresh.request_index
        assert len(index) == len(want)
        assert list(index) == list(want)
        assert dict(index) == want
        assert index == want
        for rid, row in want.items():
            assert rid in index
            assert index[rid] == row
            assert index.get(rid) == row
        for request in self.gone:
            if request.request_id not in want:
                assert request.request_id not in index
                assert index.get(request.request_id) is None
                with pytest.raises(KeyError):
                    index[request.request_id]
        assert dict(pickle.loads(pickle.dumps(index))) == want


RowMutationMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
TestRowMutationMachine = RowMutationMachine.TestCase
