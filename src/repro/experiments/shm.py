"""Shared-memory scenario passing for worker processes.

Pickling a million-request :class:`~repro.core.arrays.ScenarioArrays`
into every worker costs gigabytes.  This module publishes a scenario's
numpy columns ONCE and hands workers a tiny picklable
:class:`SharedScenarioHandle`; each worker process attaches to the
columns zero-copy and caches the attachment.  The sharded simulator
(:mod:`repro.sim.shard`) publishes its scenario this way for its shard
workers and unpublishes it when its pool closes.

Backend chain (first available wins; ``publish_arrays(backend=...)``
pins one explicitly):

1. ``shm`` — one ``multiprocessing.shared_memory`` block holding every
   column at recorded offsets.  Zero-copy attach; the publisher unlinks
   the block in :func:`unpublish_arrays`.  Workers unregister their
   attachment from the Python 3.11 ``resource_tracker`` (which would
   otherwise unlink the block when the *first* worker exits).
2. ``mmap`` — one ``.npy`` file per column in a temp directory, opened
   with ``mmap_mode="r"`` by workers (page-cache shared, works where
   POSIX shared memory is unavailable).
3. ``inline`` — the handle carries the arrays themselves; pickling
   falls back to exactly the old behaviour (correct everywhere,
   shared nowhere).

Results are byte-identical across backends: workers read the same
column bytes either way.  Attached columns are read-only; a worker
that needs to mutate must copy (a write surfaces immediately as a
``WRITEBACKIFCOPY`` error rather than silent divergence).

The non-array scenario fields travel inside the handle: entity tables
(names/index dicts) are small, and the lazy id views of streamed
scenarios (:class:`~repro.workload.stream.SequentialIds` /
``SequentialIndex``) pickle as a prefix and a count.
``ChainNamesView`` is rebuilt on attach from the shared ``chain_vnf``
column instead of being pickled (it holds an array reference).
"""

from __future__ import annotations

import os
import tempfile
import uuid
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.arrays import ScenarioArrays
from repro.exceptions import ConfigurationError

__all__ = [
    "SharedScenarioHandle",
    "attach_arrays",
    "publish_arrays",
    "unpublish_arrays",
]

#: The numpy columns shipped through the shared backend, in layout order.
_COLUMNS = (
    "M_f", "D_f", "mu_f", "total_demand_f", "instance_offset",
    "inst_vnf", "mu_inst", "A_v", "lambda_r", "P_r", "eff_rate",
    "chain_req", "chain_vnf", "chain_ptr",
)


@dataclass(frozen=True)
class SharedScenarioHandle:
    """Picklable pointer to a published scenario.

    ``backend`` is ``"shm"``, ``"mmap"`` or ``"inline"``; ``location``
    is the shared-memory block name, the temp directory, or ``None``;
    ``columns`` maps column name to ``(offset, dtype-str, shape)`` (or
    to the array itself for the inline backend).  ``meta`` carries the
    small non-array fields; ``token`` identifies the publishing
    process so a same-process attach returns the original object.
    """

    backend: str
    location: Optional[str]
    columns: Dict[str, Tuple]
    meta: Dict[str, object]
    token: str


#: Publisher-side originals: same-process attach (the serial path)
#: short-circuits to the exact object that was published.
_published: Dict[str, Tuple[ScenarioArrays, object]] = {}

#: Worker-side attachments, one per (process, token).
_attached: Dict[str, ScenarioArrays] = {}
#: Keep attached SharedMemory blocks alive for the process lifetime.
_attached_blocks: Dict[str, object] = {}


def _chain_names_meta(arrays: ScenarioArrays):
    from repro.workload.stream import ChainNamesView

    if isinstance(arrays.chain_names, ChainNamesView):
        return ("view",)
    return ("eager", tuple(arrays.chain_names))


def _meta_of(arrays: ScenarioArrays) -> Dict[str, object]:
    return {
        "vnf_names": tuple(arrays.vnf_names),
        "vnf_index": dict(arrays.vnf_index),
        "num_instances": int(arrays.num_instances),
        "node_keys": tuple(arrays.node_keys),
        "node_index": dict(arrays.node_index),
        # Lazy sequence/mapping views pickle small; eager tuples/dicts
        # pickle eagerly (fine at the scales that still use them).
        "request_ids": arrays.request_ids,
        "request_index": arrays.request_index,
        "chain_names": _chain_names_meta(arrays),
        "chain_has_unknown": bool(arrays.chain_has_unknown),
    }


def _assemble(
    meta: Dict[str, object], columns: Dict[str, np.ndarray]
) -> ScenarioArrays:
    chain_names_meta = meta["chain_names"]
    if chain_names_meta[0] == "view":
        from repro.workload.stream import ChainNamesView

        chain_names = ChainNamesView(
            meta["vnf_names"], columns["chain_vnf"]
        )
    else:
        chain_names = chain_names_meta[1]
    return ScenarioArrays(
        vnf_names=meta["vnf_names"],
        vnf_index=meta["vnf_index"],
        M_f=columns["M_f"],
        D_f=columns["D_f"],
        mu_f=columns["mu_f"],
        total_demand_f=columns["total_demand_f"],
        instance_offset=columns["instance_offset"],
        num_instances=meta["num_instances"],
        inst_vnf=columns["inst_vnf"],
        mu_inst=columns["mu_inst"],
        node_keys=meta["node_keys"],
        node_index=meta["node_index"],
        A_v=columns["A_v"],
        request_ids=meta["request_ids"],
        request_index=meta["request_index"],
        lambda_r=columns["lambda_r"],
        P_r=columns["P_r"],
        eff_rate=columns["eff_rate"],
        chain_req=columns["chain_req"],
        chain_vnf=columns["chain_vnf"],
        chain_ptr=columns["chain_ptr"],
        chain_names=chain_names,
        chain_has_unknown=meta["chain_has_unknown"],
    )


def _publish_shm(arrays: ScenarioArrays, token: str):
    from multiprocessing import shared_memory

    specs: Dict[str, Tuple] = {}
    total = 0
    for name in _COLUMNS:
        col = np.ascontiguousarray(getattr(arrays, name))
        # 64-byte alignment keeps every column SIMD-friendly in workers.
        offset = -(-total // 64) * 64
        specs[name] = (offset, col.dtype.str, col.shape)
        total = offset + col.nbytes
    block = shared_memory.SharedMemory(
        create=True, size=max(total, 1), name=f"repro_{token}"
    )
    for name in _COLUMNS:
        col = np.ascontiguousarray(getattr(arrays, name))
        offset, dtype, shape = specs[name]
        view = np.ndarray(shape, dtype=dtype, buffer=block.buf, offset=offset)
        view[...] = col
    return block.name, specs, block


def _publish_mmap(arrays: ScenarioArrays, token: str):
    tmpdir = tempfile.mkdtemp(prefix=f"repro_shm_{token}_")
    specs: Dict[str, Tuple] = {}
    for name in _COLUMNS:
        path = os.path.join(tmpdir, f"{name}.npy")
        np.save(path, np.ascontiguousarray(getattr(arrays, name)))
        specs[name] = (f"{name}.npy",)
    return tmpdir, specs


def publish_arrays(
    arrays: ScenarioArrays, backend: str = "auto"
) -> SharedScenarioHandle:
    """Publish a scenario's columns for zero-copy worker attachment.

    ``backend`` is ``"auto"`` (shm, then mmap, then inline),
    ``"shm"``, ``"mmap"`` or ``"inline"``.  Pair every publish with
    :func:`unpublish_arrays` (the shm block / temp files outlive the
    process otherwise).
    """
    if backend not in ("auto", "shm", "mmap", "inline"):
        raise ConfigurationError(
            f"unknown shared backend {backend!r}; expected auto, shm, "
            "mmap or inline"
        )
    token = uuid.uuid4().hex[:16]
    meta = _meta_of(arrays)
    handle: Optional[SharedScenarioHandle] = None
    resource: object = None
    if backend in ("auto", "shm"):
        try:
            location, specs, block = _publish_shm(arrays, token)
            handle = SharedScenarioHandle(
                "shm", location, specs, meta, token
            )
            resource = block
        except Exception:
            if backend == "shm":
                raise
    if handle is None and backend in ("auto", "mmap"):
        try:
            location, specs = _publish_mmap(arrays, token)
            handle = SharedScenarioHandle(
                "mmap", location, specs, meta, token
            )
        except Exception:
            if backend == "mmap":
                raise
    if handle is None:
        inline = {
            name: np.ascontiguousarray(getattr(arrays, name))
            for name in _COLUMNS
        }
        handle = SharedScenarioHandle("inline", None, inline, meta, token)
    _published[token] = (arrays, resource)
    return handle


def attach_arrays(handle: SharedScenarioHandle) -> ScenarioArrays:
    """Materialize the published scenario in this process (cached).

    In the publishing process this returns the exact original object
    (the serial path costs nothing); in a worker it maps the shared
    columns read-only and assembles a :class:`ScenarioArrays` around
    them, once per process.
    """
    original = _published.get(handle.token)
    if original is not None:
        return original[0]
    cached = _attached.get(handle.token)
    if cached is not None:
        return cached
    if handle.backend == "shm":
        from multiprocessing import shared_memory

        block = shared_memory.SharedMemory(name=handle.location)
        try:
            # Python 3.11 registers every attach with the resource
            # tracker, which unlinks the block when ANY process exits;
            # only the publisher may unlink.
            from multiprocessing import resource_tracker

            resource_tracker.unregister(block._name, "shared_memory")
        except Exception:
            pass
        columns = {}
        for name, (offset, dtype, shape) in handle.columns.items():
            view = np.ndarray(
                shape, dtype=dtype, buffer=block.buf, offset=offset
            )
            view.flags.writeable = False
            columns[name] = view
        _attached_blocks[handle.token] = block
    elif handle.backend == "mmap":
        columns = {}
        for name, (filename,) in handle.columns.items():
            columns[name] = np.load(
                os.path.join(handle.location, filename), mmap_mode="r"
            )
    elif handle.backend == "inline":
        columns = dict(handle.columns)
    else:
        raise ConfigurationError(
            f"unknown shared backend {handle.backend!r}"
        )
    arrays = _assemble(handle.meta, columns)
    _attached[handle.token] = arrays
    return arrays


def unpublish_arrays(handle: SharedScenarioHandle) -> None:
    """Release the published resources (publisher side; idempotent)."""
    entry = _published.pop(handle.token, None)
    if handle.backend == "shm":
        block = entry[1] if entry is not None else None
        if block is None:
            try:
                from multiprocessing import shared_memory

                block = shared_memory.SharedMemory(name=handle.location)
            except Exception:
                block = None
        if block is not None:
            try:
                block.close()
                block.unlink()
            except Exception:
                pass
    elif handle.backend == "mmap" and handle.location:
        import shutil

        shutil.rmtree(handle.location, ignore_errors=True)
