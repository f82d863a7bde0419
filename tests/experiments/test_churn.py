"""Smoke + acceptance tests for the churn serving experiment."""

from __future__ import annotations

import pytest

from repro.experiments import churn
from repro.experiments.registry import get


@pytest.fixture(scope="module")
def churn_result(monkeypatch_module):
    """One repetition over a shortened trace (minutes, not hours)."""
    monkeypatch_module.setattr(churn, "DURATION", 600.0)
    monkeypatch_module.setattr(churn, "MEAN_HOLDING", 120.0)
    monkeypatch_module.setattr(churn, "REBALANCE_EVERY", 5)
    return churn.run(repetitions=1)


@pytest.fixture(scope="module")
def monkeypatch_module():
    from _pytest.monkeypatch import MonkeyPatch

    mp = MonkeyPatch()
    yield mp
    mp.undo()


class TestRegistration:
    def test_registered_under_its_module_name(self):
        spec = get("churn")
        assert spec.runner is churn.run
        assert "serving" in spec.tags


class TestShape:
    def test_rows_and_columns(self, churn_result):
        variants = [row["variant"] for row in churn_result.rows]
        assert variants == ["incremental", "full-resolve"]
        assert churn_result.columns == [
            "variant", "migrations", "rejection_rate"
        ]
        assert churn_result.notes  # methodology is documented

    def test_rates_and_migrations_in_range(self, churn_result):
        for row in churn_result.rows:
            assert 0.0 <= row["rejection_rate"] <= 1.0
            assert row["migrations"] >= 0.0


class TestAdmissionPolicySelection:
    def test_unknown_policy_rejected(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="admission"):
            churn.run(repetitions=1, admission="random")

    def test_power_of_two_runs_and_notes(self, monkeypatch):
        monkeypatch.setattr(churn, "DURATION", 600.0)
        monkeypatch.setattr(churn, "MEAN_HOLDING", 120.0)
        monkeypatch.setattr(churn, "REBALANCE_EVERY", 5)
        result = churn.run(repetitions=1, admission="power-of-two")
        variants = [row["variant"] for row in result.rows]
        assert variants == ["incremental", "full-resolve"]
        assert any("power-of-two" in note for note in result.notes)

    def test_default_run_carries_no_policy_note(self, churn_result):
        assert not any(
            "power-of-two" in note for note in churn_result.notes
        )

    def test_power_of_two_deterministic_across_jobs(self, monkeypatch):
        monkeypatch.setattr(churn, "DURATION", 600.0)
        monkeypatch.setattr(churn, "MEAN_HOLDING", 120.0)
        monkeypatch.setattr(churn, "REBALANCE_EVERY", 5)
        serial = churn.run(
            repetitions=2, admission="power-of-two", jobs=1
        )
        parallel = churn.run(
            repetitions=2, admission="power-of-two", jobs=2
        )
        assert serial.rows == parallel.rows
