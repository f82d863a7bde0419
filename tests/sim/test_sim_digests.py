"""Byte-level pins of ``simulate_columns`` on small seeded scenarios.

``tests/golden/sim_digests.json`` holds the sha256 of every metric
column for the scenarios of ``tests/golden/regen.py``. A simulator
change that is meant to keep its output byte for byte (a faster kernel,
a different sort) must leave every digest as it is, at any ``jobs``.
"""

from __future__ import annotations

import json

import pytest

from tests.golden.regen import SIM_DIGESTS_PATH, SIM_SCENARIOS, sim_digests

PINNED = json.loads(SIM_DIGESTS_PATH.read_text())


def test_every_scenario_is_pinned():
    assert sorted(PINNED) == sorted(SIM_SCENARIOS)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(SIM_SCENARIOS))
def test_simulator_digests(name, jobs):
    assert sim_digests(name, jobs=jobs) == PINNED[name]
