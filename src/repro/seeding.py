"""Central seeding policy — one documented seed path for everything.

Every stochastic component in :mod:`repro` (placement algorithms,
schedulers, workload generators, trace samplers, topology builders)
routes its randomness through :func:`resolve_rng`.  The contract:

* Pass an explicit ``numpy.random.Generator`` and it is used as-is
  (callers own the stream — the experiment engine spawns per-trial
  children so parallel trials never share state).
* Pass an ``int`` / ``SeedSequence`` / entropy list and a fresh
  generator is derived from it.
* Pass ``None`` and you get a generator seeded with the **documented
  default** :data:`DEFAULT_SEED` — *never* OS entropy.  Two
  default-constructed algorithms therefore produce identical output;
  nondeterminism must always be requested explicitly (e.g. with
  ``numpy.random.default_rng()``), it is never the accidental default.

:func:`derive_seed` maps a master seed plus a textual label (an
experiment name) to a stable 32-bit child seed — the scheme behind
``runall --seed``; see docs/EXPERIMENTS_ENGINE.md.
"""

from __future__ import annotations

import zlib
from typing import Sequence, Union

import numpy as np

#: The library-wide default seed (the paper's publication date,
#: 2017-06-05).  Used whenever a component is constructed without an
#: explicit ``rng`` so that out-of-the-box runs are reproducible.
DEFAULT_SEED = 20170605

#: Anything :func:`resolve_rng` accepts.
RngLike = Union[
    None, int, Sequence[int], np.random.SeedSequence, np.random.Generator
]


def resolve_rng(
    rng: RngLike = None, default_seed: int = DEFAULT_SEED
) -> np.random.Generator:
    """Turn any seed-like value into a ``numpy.random.Generator``.

    Parameters
    ----------
    rng:
        ``Generator`` (returned unchanged), ``int`` / ``SeedSequence`` /
        entropy sequence (seeds a fresh generator), or ``None``.
    default_seed:
        The seed used when ``rng`` is ``None`` — :data:`DEFAULT_SEED`
        unless the caller documents a different one.
    """
    if rng is None:
        return np.random.default_rng(default_seed)
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def derive_seed(master: int, label: str) -> int:
    """A stable per-component child seed from ``(master, label)``.

    The label is hashed with CRC-32 (stable across processes and
    ``PYTHONHASHSEED``, unlike ``hash()``) and mixed with the master
    seed through ``numpy.random.SeedSequence``.  Used by the experiment
    runner to give every experiment its own stream under one
    ``--seed``.
    """
    entropy = [int(master), zlib.crc32(str(label).encode("utf-8"))]
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint32)[0])


def trial_rng(seed: int, *indices: int) -> np.random.Generator:
    """A generator deterministic in ``(seed, *indices)``.

    The per-trial seed path of the Monte-Carlo engine: sweep-point and
    repetition indices extend the entropy so every trial draws from its
    own independent stream regardless of execution order.
    """
    entropy = [int(seed)] + [int(i) for i in indices]
    return np.random.default_rng(np.random.SeedSequence(entropy))
