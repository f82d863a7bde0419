"""Fixtures shared by the experiment tests."""

import pytest

from repro.experiments import runall
from tests.golden.regen import QUICK


@pytest.fixture(scope="session")
def quick_results():
    """One tiny full sweep, ``run_all(**QUICK)`` (the profile of
    ``tests/golden/quick.json``), shared by every module that reads it."""
    return runall.run_all(**QUICK)
