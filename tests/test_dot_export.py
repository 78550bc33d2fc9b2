"""Tests for the CSV experiment export."""

from repro.harness.experiments import ExperimentResult


class TestCsvExport:
    def test_tables_round_trip(self):
        result = ExperimentResult("demo")
        result.add_table(("a", "b"), [[1, 2.5], ["x", "y"]], title="t")
        csv_text = result.to_csv()
        lines = [line for line in csv_text.splitlines() if line.strip()]
        assert lines[0] == "a,b"
        assert lines[1] == "1,2.5"
        assert lines[2] == "x,y"

    def test_sections_still_render(self):
        result = ExperimentResult("demo")
        result.add_table(("h",), [["v"]], title="title")
        assert "title" in result.text()
        assert "h" in result.text()

    def test_no_tables_empty_csv(self):
        result = ExperimentResult("demo")
        assert result.to_csv() == ""
