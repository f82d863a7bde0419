"""Integration tests for the run-everything harness."""

import json

import pytest

from repro.experiments import runall
from repro.experiments.harness import ExperimentResult


#: The tiny repetition profile shared by the tests below.
QUICK = dict(
    placement_repetitions=2,
    scheduling_repetitions=5,
    tail_repetitions=5,
    include_headline=False,
)


@pytest.fixture(scope="module")
def quick_results():
    """One tiny full sweep shared by the tests below (seconds, not minutes)."""
    return runall.run_all(**QUICK)


class TestRunAll:
    def test_every_module_produces_a_result(self, quick_results):
        ids = [r.experiment_id for r in quick_results]
        for fig in range(5, 17):
            assert f"fig{fig:02d}" in ids
        assert "tail" in ids
        assert "joint_e2e" in ids
        assert "sensitivity" in ids

    def test_all_results_have_rows(self, quick_results):
        for result in quick_results:
            assert result.rows, f"{result.experiment_id} produced no rows"

    def test_render_everywhere(self, quick_results):
        for result in quick_results:
            rendered = result.render()
            assert result.experiment_id in rendered

    def test_roundtrip_through_dict(self, quick_results):
        for result in quick_results:
            back = ExperimentResult.from_dict(result.to_dict())
            assert back.rows == result.rows
            assert back.columns == result.columns
            assert back.notes == result.notes

    def test_second_run_is_identical(self, quick_results):
        """Rows and notes carry no wall-clock time: a rerun reproduces
        every table exactly (only ``meta`` may differ)."""
        again = runall.run_all(**QUICK)
        assert [r.experiment_id for r in again] == [
            r.experiment_id for r in quick_results
        ]
        for first, second in zip(quick_results, again):
            assert second.rows == first.rows, first.experiment_id
            assert second.notes == first.notes, first.experiment_id


class TestCli:
    def test_json_export(self, tmp_path, capsys, monkeypatch):
        # Patch run_all so the CLI test stays fast.
        def tiny(**_kwargs):
            r = ExperimentResult("figX", "t", ["a"])
            r.add_row(a=1)
            return [r]

        monkeypatch.setattr(runall, "run_all", tiny)
        out_path = tmp_path / "results.json"
        assert runall.main(["--json", str(out_path)]) == 0
        document = json.loads(out_path.read_text())
        assert document["kind"] == "experiment_results"
        assert document["results"][0]["experiment_id"] == "figX"
