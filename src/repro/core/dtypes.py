"""Dtype policy for the columnar scenario tables (memory-lean mode).

The array substrate defaults to ``int64`` index columns and ``float64``
value columns — the dtypes the 1e-12 parity suites pin against the
legacy object paths.  At the million-request scale those widths double
the working set for no benefit: chain CSR indices never exceed a few
million and rate/demand values carry ~7 significant digits of
generator entropy.  :class:`DtypePolicy` makes the widths explicit:

* :data:`DEFAULT_POLICY` — ``int64`` / ``float64``; byte-identical to
  the historical columns.  Every owner that does not opt in gets this.
* :data:`LEAN_POLICY` — ``int32`` / ``float32``; halves the request and
  chain column footprint.  Index columns stay **exact** (guarded by
  :func:`ensure_index_capacity` at construction); float columns carry
  single-precision rounding, pinned by the tolerance suites in
  ``tests/core/test_dtypes.py``.

The policy travels with the columns themselves: consumers derive the
active dtypes from ``ScenarioArrays.index_dtype`` / ``float_dtype``
rather than threading a config object through every call.  Mixed-policy
code keeps working because numpy promotes ``int32`` indices and
``float32`` values safely in every kernel (code arithmetic is forced to
``int64`` via scalar operands at the few sites that build packed keys).

See ``docs/SCALE.md`` for the full dtype-mode contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.exceptions import ValidationError

__all__ = [
    "DEFAULT_POLICY",
    "LEAN_POLICY",
    "DtypePolicy",
    "ensure_index_capacity",
    "resolve_policy",
]


@dataclass(frozen=True)
class DtypePolicy:
    """Column widths for one scenario: index and float dtypes.

    ``index_dtype`` applies to every entity-index column (chain CSR
    entries and pointers, instance offsets, schedule index vectors);
    ``float_dtype`` to every rate/demand/capacity column.
    """

    index_dtype: np.dtype
    float_dtype: np.dtype

    def __post_init__(self) -> None:
        idt = np.dtype(self.index_dtype)
        fdt = np.dtype(self.float_dtype)
        if idt.kind != "i":
            raise ValidationError(
                f"index dtype must be a signed integer, got {idt!r}"
            )
        if fdt.kind != "f":
            raise ValidationError(
                f"float dtype must be floating point, got {fdt!r}"
            )
        object.__setattr__(self, "index_dtype", idt)
        object.__setattr__(self, "float_dtype", fdt)


#: The historical widths — what every parity suite pins.
DEFAULT_POLICY = DtypePolicy(np.dtype(np.int64), np.dtype(np.float64))

#: Opt-in memory-lean widths for million-request scenarios.
LEAN_POLICY = DtypePolicy(np.dtype(np.int32), np.dtype(np.float32))


def resolve_policy(dtypes) -> DtypePolicy:
    """Normalize a ``dtypes`` argument: ``None`` means the default."""
    if dtypes is None:
        return DEFAULT_POLICY
    if not isinstance(dtypes, DtypePolicy):
        raise ValidationError(
            f"dtypes must be a DtypePolicy or None, got {dtypes!r}"
        )
    return dtypes


@lru_cache(maxsize=None)
def _index_max(dtype) -> int:
    """Largest value of an integer dtype, looked up once per dtype (the
    guard runs on every appended request row)."""
    return int(np.iinfo(np.dtype(dtype)).max)


def ensure_index_capacity(count: int, dtype, what: str) -> None:
    """Guard: ``count`` values must be indexable by ``dtype``.

    Raises
    ------
    ValidationError
        When ``count`` exceeds the dtype's maximum — the overflow that
        would otherwise silently wrap CSR pointers.  The message names
        ``what`` so a 3-billion-entry chain table fails loudly at
        construction, not subtly at evaluation.
    """
    limit = _index_max(dtype)
    if count > limit:
        raise ValidationError(
            f"{what} needs {count} indexable entries but dtype "
            f"{np.dtype(dtype).name} holds at most {limit}; use the "
            f"default int64 policy for scenarios this large"
        )
