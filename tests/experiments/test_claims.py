"""The claims behind the experiment tables, checked on the fixture run.

``quick_results`` is ``run_all(**QUICK)``, the run that
``tests/golden/quick.json`` pins number for number.  These tests pin
which way each claim points, so a regenerated golden cannot flip one
unnoticed.
"""

import pytest

from repro.experiments import headline
from tests.golden.regen import QUICK


@pytest.fixture(scope="module")
def results(quick_results):
    return {r.experiment_id: r for r in quick_results}


def _rows(result, key):
    """``{row[key]: row}`` over every row."""
    return {row[key]: row for row in result.rows}


class TestAblations:
    @pytest.fixture(scope="class")
    def abl(self, results):
        def value(ablation, variant, metric):
            (row,) = results["ablations"].filtered(
                ablation=ablation, variant=variant, metric=metric
            )
            return row["value"]

        return value

    def test_weighted_draw_costs_little_consolidation(self, abl):
        # BFDSU's randomization gives up at most a few points of
        # utilization against strict best fit, and at most one node.
        assert abl("abl-weighted", "BFDSU", "utilization") > (
            abl("abl-weighted", "BFD", "utilization") - 0.1
        )
        assert abl("abl-weighted", "BFDSU", "nodes") <= (
            abl("abl-weighted", "BFD", "nodes") + 1.0
        )

    def test_used_list_consolidates(self, abl):
        # Best fit over all nodes may match, never meaningfully beat,
        # the Used-before-Spare priority.
        assert abl("abl-usedlist", "BFD", "nodes") <= (
            abl("abl-usedlist", "BFD-all-nodes", "nodes") + 0.5
        )

    def test_reverse_combine_is_load_bearing(self, abl):
        rckk = abl("abl-reverse", "RCKK", "spread")
        assert rckk < abl("abl-reverse", "forward-CKK", "spread") / 2.0
        assert rckk <= abl("abl-reverse", "greedy", "spread")

    def test_pooling(self, abl):
        split = abl("abl-pooling", "M/M/1 split", "mean_w")
        rckk = abl("abl-pooling", "RCKK", "mean_w")
        # Pooling beats even a perfectly balanced split; RCKK sits
        # within 20% of that split; round-robin pays a premium, and on
        # top of it sheds requests that RCKK keeps.
        assert abl("abl-pooling", "M/M/c pooled", "mean_w") < split
        assert rckk < split * 1.2
        assert abl("abl-pooling", "RoundRobin", "mean_w") > rckk
        assert abl("abl-pooling", "RCKK", "rejection_rate") <= abl(
            "abl-pooling", "RoundRobin", "rejection_rate"
        )

    def test_swap_refinement(self, abl):
        assert abl("abl-swap", "SwapRefined m=5", "makespan") <= (
            abl("abl-swap", "RCKK m=5", "makespan") + 1e-9
        )
        # Within half a percent of the two-way CKK search.
        assert abl("abl-swap", "SwapRefined m=2", "makespan") <= (
            abl("abl-swap", "CKK m=2", "makespan") * 1.005
        )

    def test_local_search(self, results):
        rows = results["ablations"].filtered(ablation="abl-localsearch")
        # Totals over the instances, as the hop counts are integers.
        hops = {
            (row["variant"], row["metric"]): row["value"] * row["reps"]
            for row in rows
        }
        ffd_gain = hops["FFD", "hops_before"] - hops["FFD", "hops_after"]
        bfdsu_gain = hops["BFDSU", "hops_before"] - hops["BFDSU", "hops_after"]
        assert ffd_gain > 0
        assert bfdsu_gain >= 0
        # The spread-out baseline has (weakly) more to recover.
        assert ffd_gain >= bfdsu_gain - 2


class TestJointE2E:
    def test_joint_system_wins_every_coordinated_metric(self, results):
        rows = _rows(results["joint_e2e"], "pipeline")
        ours, ffd, nah = rows["BFDSU+RCKK"], rows["FFD+CGA"], rows["NAH+CGA"]
        assert ours["utilization"] > ffd["utilization"]
        assert ours["utilization"] > nah["utilization"]
        assert ours["nodes"] < ffd["nodes"]
        assert ours["avg_total_latency"] < ffd["avg_total_latency"]
        assert ours["avg_total_latency"] < nah["avg_total_latency"]


class TestSensitivity:
    def test_error_signs(self, results):
        result = results["sensitivity"]
        service = {
            row["value"]: row["model_error"]
            for row in result.filtered(dimension="service_cv2")
        }
        burst = {
            row["value"]: row["model_error"]
            for row in result.filtered(dimension="burst_ratio")
        }
        # Exponential service: no error by construction.
        assert abs(service[1.0]) < 1e-9
        # Deterministic service: M/M/1 over-estimates; heavy-tailed: under.
        assert service[0.0] > 0.3
        assert service[4.0] < -0.3
        # Poisson arrivals: simulation noise only.
        assert abs(burst[1.0]) < 0.2
        # Burstiness makes the model increasingly optimistic.
        assert burst[8.0] < burst[2.0] < 0.0


class TestExtensions:
    def test_chain_affinity(self, results):
        """abl-affinity: the affinity boost never adds cross-node hops
        and costs at most one node of consolidation."""
        rows = _rows(results["extensions"], "variant")
        affinity, plain = rows["ChainAffinity"], rows["BFDSU"]
        assert affinity["cross_hop_fraction"] <= (
            plain["cross_hop_fraction"] + 0.02
        )
        assert affinity["nodes"] <= plain["nodes"] + 1.0


class TestTail:
    def test_first_point_enhancement(self, results):
        first = results["tail"].filtered(algorithm="RCKK")[0]
        assert first["enhancement"] > 0.1


class TestHeadline:
    def test_abstract_claims_at_fixture_reps(self):
        # Paper: +31.61% / +33.41% utilization, -19.9% latency; the
        # reproduction must match the direction at half the magnitude.
        result = headline.run(
            placement_repetitions=QUICK["placement_repetitions"],
            scheduling_repetitions=QUICK["scheduling_repetitions"],
        )
        value = {row["metric"]: row["value"] for row in result.rows}
        assert value["utilization gain vs FFD"] > 0.15
        assert value["utilization gain vs NAH"] > 0.15
        assert value["avg latency reduction (RCKK vs CGA)"] > 0.05
