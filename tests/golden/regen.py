"""Regenerate ``tests/golden/quick.json``.

The golden holds the ``columns``, ``rows`` and ``notes`` (not ``meta``)
of every experiment that ``run_all(**QUICK)`` runs — the same reduced
repetition profile as the module fixture of
``tests/experiments/test_runall.py``, which compares its run with this
file. Regenerate only when a change is meant to move a paper number, and
say in CHANGES.md which experiment changed and why.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regen.py   # or: make golden
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, Iterable

from repro.experiments import runall
from repro.experiments.harness import ExperimentResult

#: Where the fixture-reps golden lives.
GOLDEN_PATH = pathlib.Path(__file__).with_name("quick.json")

#: The tiny repetition profile of the test fixture and of the golden.
QUICK = dict(
    placement_repetitions=2,
    scheduling_repetitions=5,
    tail_repetitions=5,
    include_headline=False,
)


def snapshot(results: Iterable[ExperimentResult]) -> Dict[str, dict]:
    """The pinned part of each result, keyed by experiment id, in run order."""
    return {
        r.experiment_id: {
            "columns": list(r.columns),
            "rows": [dict(row) for row in r.rows],
            "notes": list(r.notes),
        }
        for r in results
    }


def main() -> int:
    document = snapshot(runall.run_all(**QUICK))
    GOLDEN_PATH.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {len(document)} experiments to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
