"""Integration tests for the run-everything harness."""

import json
import math

from repro.experiments import runall
from repro.experiments.harness import ExperimentResult
from tests.golden.regen import GOLDEN_PATH, snapshot


class TestRunAll:
    def test_every_module_produces_a_result(self, quick_results):
        ids = [r.experiment_id for r in quick_results]
        for fig in range(5, 17):
            assert f"fig{fig:02d}" in ids
        assert "tail" in ids
        assert "joint_e2e" in ids
        assert "sensitivity" in ids
        assert "ablations" in ids

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


def _assert_matches(got, want, where):
    """Every value exactly: ``json.dumps`` writes floats with ``repr``,
    which round-trips, so the golden holds the very floats a run makes;
    ``inf`` compares equal to itself and ``nan`` is matched by
    ``isnan``."""
    if isinstance(want, float) or isinstance(got, float):
        assert isinstance(got, float) and isinstance(want, float), where
        if math.isnan(want):
            assert math.isnan(got), where
        else:
            assert got == want, f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            _assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        got = list(got) if isinstance(got, tuple) else got
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (
            f"{where}: {got!r} != {want!r}"
        )


class TestGolden:
    def test_quick_run_matches_golden(self, quick_results):
        """The fixture's reduced-reps run reproduces ``tests/golden/quick.json``
        exactly (``make golden`` rewrites it; a change to it is named in
        CHANGES.md).  The golden was written by another process, so the
        match also pins that rows and notes carry no wall-clock time."""
        golden = json.loads(GOLDEN_PATH.read_text())
        got = snapshot(quick_results)
        assert list(got) == list(golden)
        for experiment_id, want in golden.items():
            _assert_matches(got[experiment_id], want, experiment_id)


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
