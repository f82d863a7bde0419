"""Fig. 7's table shape: one row per (pool size, contender)."""

from __future__ import annotations

from repro.experiments import fig07


def test_shape():
    rows = fig07.run(repetitions=2).rows
    assert len(rows) == len(fig07.NODE_COUNTS) * 3
    assert {row["algorithm"] for row in rows} == {"BFDSU", "FFD", "NAH"}
