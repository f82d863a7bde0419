"""Smoke + shape tests for every figure experiment (tiny repetitions).

Each test runs the real experiment pipeline with a handful of
Monte-Carlo repetitions and asserts the *paper's qualitative shape*:
who wins, and in which direction the trend runs.
"""

import numpy as np
import pytest

from repro.experiments import (
    fig05,
    fig06,
    fig07,
    fig08,
    fig09,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    tail,
)

PLACEMENT_REPS = 5
SCHED_REPS = 40


def _series(result, algorithm, column):
    return [
        float(row[column])
        for row in result.rows
        if row["algorithm"] == algorithm
    ]


@pytest.fixture(scope="module")
def fig05_result():
    return fig05.run(repetitions=PLACEMENT_REPS)


@pytest.fixture(scope="module")
def fig07_result():
    return fig07.run(repetitions=PLACEMENT_REPS)


@pytest.fixture(scope="module")
def fig11_result():
    return fig11.run(repetitions=SCHED_REPS)


class TestFig05:
    def test_bfdsu_wins(self, fig05_result):
        bfdsu = np.mean(_series(fig05_result, "BFDSU", "utilization"))
        ffd = np.mean(_series(fig05_result, "FFD", "utilization"))
        nah = np.mean(_series(fig05_result, "NAH", "utilization"))
        # Paper: BFDSU ~0.92 far above FFD ~0.69 and NAH ~0.67.
        assert bfdsu > ffd + 0.15
        assert bfdsu > nah + 0.15
        assert bfdsu > 0.8

    def test_flat_in_requests(self, fig05_result):
        series = _series(fig05_result, "BFDSU", "utilization")
        assert max(series) - min(series) < 0.1


class TestFig06:
    def test_ordering_holds_across_vnf_scale(self):
        result = fig06.run(repetitions=PLACEMENT_REPS)
        for vnfs in {row["vnfs"] for row in result.rows}:
            by_algo = {
                row["algorithm"]: row["utilization"]
                for row in result.filtered(vnfs=vnfs)
            }
            assert by_algo["BFDSU"] > by_algo["FFD"]
            assert by_algo["BFDSU"] > by_algo["NAH"]
        # Paper: +31.61% vs FFD and +33.41% vs NAH on the sweep average.
        bfdsu = np.mean(_series(result, "BFDSU", "utilization"))
        for baseline in ("FFD", "NAH"):
            mean = np.mean(_series(result, baseline, "utilization"))
            assert (bfdsu - mean) / mean > 0.2


class TestFig07:
    def test_bfdsu_stable_baselines_decay(self, fig07_result):
        bfdsu = _series(fig07_result, "BFDSU", "utilization")
        ffd = _series(fig07_result, "FFD", "utilization")
        nah = _series(fig07_result, "NAH", "utilization")
        # BFDSU stays roughly flat; baselines lose > 15 points.
        assert max(bfdsu) - min(bfdsu) < 0.1
        assert ffd[0] - ffd[-1] > 0.15
        assert nah[0] - nah[-1] > 0.15


class TestFig08:
    def test_bfdsu_uses_fewest_nodes(self):
        result = fig08.run(repetitions=PLACEMENT_REPS)
        bfdsu = np.mean(_series(result, "BFDSU", "nodes_in_service"))
        ffd = np.mean(_series(result, "FFD", "nodes_in_service"))
        nah = np.mean(_series(result, "NAH", "nodes_in_service"))
        assert bfdsu < nah < ffd


class TestFig09:
    def test_occupation_trends(self):
        result = fig09.run(repetitions=PLACEMENT_REPS)
        bfdsu = _series(result, "BFDSU", "occupation")
        ffd = _series(result, "FFD", "occupation")
        nah = _series(result, "NAH", "occupation")
        # BFDSU stays flat-ish (Monte-Carlo jitter allowed); FFD and NAH
        # grow with the pool and FFD ends far above BFDSU.
        assert max(bfdsu) < 1.6 * min(bfdsu) + 1e-9
        assert ffd[-1] > ffd[0]
        assert nah[-1] > nah[0]
        assert ffd[-1] > 1.5 * bfdsu[-1]


class TestFig10:
    def test_iteration_ordering(self):
        result = fig10.run(repetitions=PLACEMENT_REPS)
        ffd = np.mean(_series(result, "FFD", "iterations"))
        bfdsu = np.mean(_series(result, "BFDSU", "iterations"))
        nah = np.mean(_series(result, "NAH", "iterations"))
        assert ffd == 1.0
        assert ffd < bfdsu < nah


class TestFig11:
    def test_rckk_beats_cga_everywhere(self, fig11_result):
        for n in {row["requests"] for row in fig11_result.rows}:
            by_algo = {
                row["algorithm"]: row["mean_w"]
                for row in fig11_result.filtered(requests=n)
            }
            assert by_algo["RCKK"] <= by_algo["CGA"] + 1e-12

    def test_enhancement_declines(self, fig11_result):
        enh = [
            float(row["enhancement"])
            for row in fig11_result.rows
            if row["algorithm"] == "RCKK"
        ]
        assert enh[0] > 0.15  # strong gap at few requests
        assert enh[-1] < 0.05  # nearly gone at many requests


class TestFig12:
    def test_lossless_enhancement_below_lossy(self, fig11_result):
        result12 = fig12.run(repetitions=SCHED_REPS)
        enh11 = [
            float(r["enhancement"])
            for r in fig11_result.rows
            if r["algorithm"] == "RCKK"
        ]
        enh12 = [
            float(r["enhancement"])
            for r in result12.rows
            if r["algorithm"] == "RCKK"
        ]
        # Averaged over the sweep, loss increases RCKK's advantage.
        assert np.mean(enh12) <= np.mean(enh11) + 0.02
        # Paper: the lossless enhancement declines 33.49% -> 1.17%.
        assert enh12[0] > 0.15
        assert enh12[-1] < 0.05


class TestFig13Fig14:
    def test_enhancement_grows_with_instances(self):
        result = fig13.run(repetitions=SCHED_REPS)
        enh = [
            float(r["enhancement"])
            for r in result.rows
            if r["algorithm"] == "RCKK"
        ]
        assert enh[-1] > enh[0]
        assert enh[-1] > 0.1  # paper: 5.24% -> 25.05%

    def test_fig14_same_shape(self):
        result = fig14.run(repetitions=SCHED_REPS)
        enh = [
            float(r["enhancement"])
            for r in result.rows
            if r["algorithm"] == "RCKK"
        ]
        assert enh[-1] > enh[0]
        assert enh[-1] > 0.08  # paper: 3.16% -> 18.53%


class TestFig15Fig16:
    def test_rckk_near_zero_low_loss(self):
        result = fig15.run(repetitions=SCHED_REPS)
        rckk = _series(result, "RCKK", "rejection_rate")
        cga = _series(result, "CGA", "rejection_rate")
        assert max(rckk) < 0.01
        assert np.mean(cga) > np.mean(rckk)
        assert np.mean(cga) > 0.005

    def test_higher_loss_higher_rejection(self):
        low = fig15.run(repetitions=SCHED_REPS)
        high = fig16.run(repetitions=SCHED_REPS)
        cga_high = np.mean(_series(high, "CGA", "rejection_rate"))
        assert cga_high > np.mean(_series(low, "CGA", "rejection_rate"))
        # Paper: CGA 28.28% vs RCKK 4.87% at P=0.984.
        assert cga_high > np.mean(_series(high, "RCKK", "rejection_rate"))


class TestTail:
    def test_rckk_tail_no_worse(self):
        result = tail.run(repetitions=SCHED_REPS)
        for n in {row["requests"] for row in result.rows}:
            by_algo = {
                row["algorithm"]: row["p99_w"]
                for row in result.filtered(requests=n)
            }
            assert by_algo["RCKK"] <= by_algo["CGA"] * 1.05
