"""RCKK — Reverse Complete Karmarkar-Karp (Algorithm 2 of the paper).

RCKK partitions the arrival rates of the ``n`` requests requiring a VNF
into ``m = M_f`` ways (service instances):

1. Initialize one partition ``(lambda_r, 0, .., 0)`` per request, each
   position carrying its provenance request set ``s_i``.
2. Sort partitions in descending order of their leading value.
3. Repeatedly combine the two partitions with the largest leading values
   by adding position values *in reverse order* (largest way of one onto
   the smallest way of the other), merging the request sets accordingly;
   re-sort the combined tuple descending and normalize by subtracting the
   smallest position value; reinsert.
4. When a single partition remains, its position sets are the instance
   assignments: ``z_{r,i}^f = 1`` for every request ``r`` in ``s_i``.

The "reverse" combine is what makes a single pass effective: out of the
``m!`` ways to align two partitions, pairing sorted-descending with
sorted-ascending greedily minimizes the combined spread, so RCKK reaches
near-balanced partitions in ``O(n m log m)`` — the complexity the paper
derives in Section IV-D.

Both entry points run on the list-row kernel
(:func:`repro.partition.kernels.kk_multiway_kernel`), which produces the
identical partition to the tuple-based
:func:`~repro.partition.karmarkar_karp.karmarkar_karp_multiway`; the
latter stays as the legacy reference pinned by the kernel-parity tests.
Each partition is a list of ``m`` values plus ``m`` index lists, and
singletons stay implicit until combined: they wait in one sorted queue
beside a heap of the combined partitions.  A reverse combine of a
partition with a singleton -- nearly every combine when ``n`` is many
times ``m``, as at a serving-engine rebalance -- is a ``bisect`` and a
list insert, ``O(m)`` with no sort, and its floor is usually ``0.0``;
such combines run in batches without a heap round trip.  Other combines
(and every forward-ablation combine) sum, sort and subtract the floor in
``O(m log m)``, as the legacy rule does.
"""

from __future__ import annotations

from typing import Sequence

from repro.partition.base import PartitionResult
from repro.partition.kernels import kk_multiway_kernel


def rckk_partition(values: Sequence[float], num_ways: int) -> PartitionResult:
    """Partition ``values`` into ``num_ways`` subsets with RCKK.

    Parameters
    ----------
    values:
        Non-negative request arrival rates ``lambda_r``.
    num_ways:
        Number of service instances ``m = M_f``.

    Returns
    -------
    PartitionResult
        Index subsets per instance; ``iterations`` counts combine steps.
    """
    return kk_multiway_kernel(values, num_ways, reverse_combine=True)


def forward_ckk_partition(values: Sequence[float], num_ways: int) -> PartitionResult:
    """Ablation variant: combine in *forward* order (largest with largest).

    Used by the ablation benchmarks to quantify how much of RCKK's
    advantage comes specifically from the reverse alignment.
    """
    return kk_multiway_kernel(values, num_ways, reverse_combine=False)
