"""Unit tests for the experiment harness."""

import pytest

from repro.experiments.harness import ExperimentResult


@pytest.fixture
def result():
    r = ExperimentResult(
        experiment_id="figX",
        title="Test experiment",
        columns=["x", "algorithm", "metric"],
    )
    r.add_row(x=1, algorithm="A", metric=0.5)
    r.add_row(x=1, algorithm="B", metric=0.7)
    r.add_row(x=2, algorithm="A", metric=0.6)
    return r


class TestRows:
    def test_add_row_validates_columns(self, result):
        with pytest.raises(ValueError):
            result.add_row(x=3, algorithm="A")  # missing 'metric'

    def test_filtered(self, result):
        rows = result.filtered(algorithm="A")
        assert len(rows) == 2
        assert all(r["algorithm"] == "A" for r in rows)

    def test_filtered_multi_criteria(self, result):
        rows = result.filtered(algorithm="A", x=2)
        assert len(rows) == 1


class TestRendering:
    def test_table_contains_header_and_rows(self, result):
        table = result.to_table()
        assert "algorithm" in table
        assert "0.5000" in table

    def test_render_contains_title_and_notes(self, result):
        result.notes.append("a note")
        rendered = result.render()
        assert "figX" in rendered
        assert "Test experiment" in rendered
        assert "note: a note" in rendered

    def test_cell_formats(self):
        r = ExperimentResult("e", "t", ["v"])
        r.add_row(v=0.0)
        r.add_row(v=1234.5)
        r.add_row(v=3.14159)
        r.add_row(v=0.001234)
        r.add_row(v="text")
        table = r.to_table()
        assert "1235" in table or "1234" in table
        assert "3.14" in table
        assert "0.0012" in table
        assert "text" in table

    def test_empty_table(self):
        r = ExperimentResult("e", "t", ["a", "b"])
        assert "a" in r.to_table()
