"""Tests for the extensions-comparison experiment."""

import pytest

from repro.experiments import extensions_compare


class TestExtensionsCompare:
    @pytest.fixture(scope="class")
    def result(self):
        return extensions_compare.run(repetitions=3)

    def test_all_variants_reported(self, result):
        variants = {row["variant"] for row in result.rows}
        assert variants == {
            "BFDSU",
            "ChainAffinity",
            "BestOf5",
            "BFDSU+LocalSearch",
        }

    def test_local_search_cuts_cross_hops(self, result):
        by_variant = {row["variant"]: row for row in result.rows}
        assert (
            by_variant["BFDSU+LocalSearch"]["cross_hop_fraction"]
            <= by_variant["BFDSU"]["cross_hop_fraction"] + 1e-9
        )

    def test_local_search_keeps_consolidation(self, result):
        by_variant = {row["variant"]: row for row in result.rows}
        # Relocates never change which nodes are available; nodes in
        # service may shrink but never grow.
        assert (
            by_variant["BFDSU+LocalSearch"]["nodes"]
            <= by_variant["BFDSU"]["nodes"] + 1e-9
        )

    def test_metrics_in_range(self, result):
        for row in result.rows:
            assert 0.0 < row["utilization"] <= 1.0
            assert 0.0 <= row["cross_hop_fraction"] <= 1.0
