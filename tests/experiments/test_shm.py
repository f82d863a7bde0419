"""Shared-memory scenario passing: byte-identity and graceful fallback.

Workers receive only the small handle inside their task payload and
attach to the published columns themselves, as the sharded simulator's
shard workers do.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.arrays import ScenarioArrays
from repro.core.dtypes import LEAN_POLICY
from repro.exceptions import ConfigurationError
from repro.experiments import shm as shm_mod
from repro.experiments.montecarlo import run_trials
from repro.experiments.shm import (
    attach_arrays,
    publish_arrays,
    unpublish_arrays,
)
from repro.workload.generator import WorkloadGenerator
from repro.workload.stream import stream_scenario


@pytest.fixture
def arrays():
    gen = WorkloadGenerator(rng=np.random.default_rng(21))
    w = gen.workload(num_vnfs=6, num_nodes=10, num_requests=25)
    return ScenarioArrays.build(w.vnfs, w.requests, w.capacities)


COLUMNS = shm_mod._COLUMNS


def _trial(task, arrays):
    """A deterministic scenario digest of one task."""
    seed, _rep = task
    rng = np.random.default_rng(seed)
    pick = rng.integers(0, len(arrays.request_ids))
    return (
        float(arrays.eff_rate[pick]),
        float(arrays.lambda_r.sum()),
        int(arrays.chain_ptr[-1]),
        arrays.request_ids[int(pick)],
    )


def _attached_trial(task):
    """Module-level worker trial: attach through the handle, then digest."""
    handle, seed, rep = task
    return _trial((seed, rep), attach_arrays(handle))


def _run_attached(handle, tasks, jobs):
    payload = [(handle, seed, rep) for seed, rep in tasks]
    return run_trials(_attached_trial, payload, jobs=jobs)


class TestPublishAttach:
    @pytest.mark.parametrize("backend", ["shm", "mmap", "inline"])
    def test_roundtrip_each_backend(self, arrays, backend):
        try:
            handle = publish_arrays(arrays, backend=backend)
        except Exception:
            if backend == "shm":
                pytest.skip("POSIX shared memory unavailable")
            raise
        try:
            assert handle.backend == backend
            # Same-process attach returns the published original.
            assert attach_arrays(handle) is arrays
            # Simulate a worker: drop the publisher registry entry so
            # attach takes the real backend path.
            entry = shm_mod._published.pop(handle.token)
            try:
                remote = attach_arrays(handle)
                assert remote is not arrays
                for name in COLUMNS:
                    np.testing.assert_array_equal(
                        np.asarray(getattr(remote, name)),
                        getattr(arrays, name),
                        err_msg=name,
                    )
                    assert (
                        getattr(remote, name).dtype
                        == getattr(arrays, name).dtype
                    )
                assert tuple(remote.request_ids) == tuple(arrays.request_ids)
                assert remote.vnf_index == arrays.vnf_index
            finally:
                shm_mod._published[handle.token] = entry
                shm_mod._attached.pop(handle.token, None)
                block = shm_mod._attached_blocks.pop(handle.token, None)
                if block is not None:
                    block.close()
        finally:
            unpublish_arrays(handle)

    def test_lean_streamed_scenario_roundtrip(self):
        scn = stream_scenario(
            num_vnfs=6, num_nodes=8, num_requests=40,
            rng=np.random.default_rng(3), dtypes=LEAN_POLICY,
        )
        handle = publish_arrays(scn.arrays, backend="mmap")
        try:
            entry = shm_mod._published.pop(handle.token)
            try:
                remote = attach_arrays(handle)
                assert remote.index_dtype == np.int32
                assert remote.float_dtype == np.float32
                np.testing.assert_array_equal(
                    np.asarray(remote.chain_vnf), scn.arrays.chain_vnf
                )
                # Lazy views survive the trip.
                assert remote.request_ids[5] == "r5"
                assert remote.request_index["r7"] == 7
                assert remote.chain_names[0] == scn.arrays.chain_names[0]
            finally:
                shm_mod._published[handle.token] = entry
                shm_mod._attached.pop(handle.token, None)
        finally:
            unpublish_arrays(handle)

    def test_bad_backend_rejected(self, arrays):
        with pytest.raises(ConfigurationError):
            publish_arrays(arrays, backend="tape")

    def test_unpublish_idempotent(self, arrays):
        handle = publish_arrays(arrays, backend="inline")
        unpublish_arrays(handle)
        unpublish_arrays(handle)

    def test_unpublish_releases_auto_backend(self, arrays):
        handle = publish_arrays(arrays)
        assert attach_arrays(handle) is arrays
        unpublish_arrays(handle)
        assert handle.token not in shm_mod._published
        if handle.backend == "shm":
            from multiprocessing import shared_memory

            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=handle.location)

    def test_unpublish_removes_mmap_directory(self, arrays):
        import os

        handle = publish_arrays(arrays, backend="mmap")
        assert os.path.isdir(handle.location)
        unpublish_arrays(handle)
        assert handle.token not in shm_mod._published
        assert not os.path.exists(handle.location)


class TestSharedTrials:
    def test_serial_vs_parallel_byte_identical(self, arrays):
        tasks = [(seed, rep) for seed in range(4) for rep in range(3)]
        handle = publish_arrays(arrays)
        try:
            serial = _run_attached(handle, tasks, jobs=1)
            parallel = _run_attached(handle, tasks, jobs=2)
        finally:
            unpublish_arrays(handle)
        assert serial == parallel

    def test_matches_unshared_reference(self, arrays):
        tasks = [(seed, 0) for seed in range(5)]
        handle = publish_arrays(arrays)
        try:
            got = _run_attached(handle, tasks, jobs=1)
        finally:
            unpublish_arrays(handle)
        assert got == [_trial(task, arrays) for task in tasks]

    def test_fallback_when_shm_unavailable(self, arrays, monkeypatch):
        # Both fast backends blow up -> inline handle, identical result.
        monkeypatch.setattr(
            shm_mod, "_publish_shm",
            lambda *a, **k: (_ for _ in ()).throw(OSError("no /dev/shm")),
        )
        monkeypatch.setattr(
            shm_mod, "_publish_mmap",
            lambda *a, **k: (_ for _ in ()).throw(OSError("no tmpdir")),
        )
        handle = publish_arrays(arrays)
        try:
            assert handle.backend == "inline"
            tasks = [(seed, 0) for seed in range(4)]
            got = _run_attached(handle, tasks, jobs=2)
            assert got == [_trial(task, arrays) for task in tasks]
        finally:
            unpublish_arrays(handle)

    def test_handle_is_small_to_pickle(self, arrays):
        import pickle

        handle = publish_arrays(arrays, backend="mmap")
        try:
            blob = pickle.dumps(handle)
            # The whole point: the handle must be orders of magnitude
            # smaller than the pickled scenario.
            assert len(blob) < len(pickle.dumps(arrays)) / 2
        finally:
            unpublish_arrays(handle)
