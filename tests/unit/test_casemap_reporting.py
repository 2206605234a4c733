"""Unit tests for the case map and report generation."""

import numpy as np
import pytest

from repro.analysis.reporting import run_reproduction_report
from repro.core.case_map import case_boundaries, case_map
from repro.core.phase_plane import PaperCase


class TestCaseBoundaries:
    def test_thresholds(self):
        b = case_boundaries(1.0, 100.0)
        assert b["a_star"] == pytest.approx(4.0)
        assert b["b_star"] == pytest.approx(0.04)

    def test_scaling_with_k(self):
        assert case_boundaries(0.5, 100.0)["a_star"] == pytest.approx(16.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            case_boundaries(0.0, 100.0)


class TestCaseMap:
    @pytest.fixture(scope="class")
    def grid(self):
        return case_map(np.geomspace(0.5, 32.0, 10),
                        np.geomspace(0.005, 0.32, 8))

    def test_quadrant_structure(self, grid):
        """Below both thresholds: Case 1; above both: Case 4; etc."""
        b = case_boundaries(grid.k, grid.capacity)
        for i, bv in enumerate(grid.b_values):
            for j, av in enumerate(grid.a_values):
                code = grid.case_codes[i, j]
                if av < b["a_star"] and bv < b["b_star"]:
                    assert code == 1
                elif av > b["a_star"] and bv < b["b_star"]:
                    assert code == 2
                elif av < b["a_star"] and bv > b["b_star"]:
                    assert code == 3
                elif av > b["a_star"] and bv > b["b_star"]:
                    assert code == 4

    def test_contraction_defined_exactly_in_case1(self, grid):
        case1 = grid.case_codes == 1
        assert np.all(np.isfinite(grid.contraction[case1]))
        assert np.all(np.isnan(grid.contraction[~case1]))
        assert np.all(grid.contraction[case1] < 1.0)

    def test_overshoot_zero_in_node_cases(self, grid):
        node = (grid.case_codes == 3) | (grid.case_codes == 4)
        assert np.all(grid.overshoot[node] == 0.0)
        spiral_d = (grid.case_codes == 1) | (grid.case_codes == 2)
        assert np.all(grid.overshoot[spiral_d] > 0.0)

    def test_buffer_ratio_formula(self, grid):
        import math

        i, j = 0, 0
        expected = 1.0 + math.sqrt(
            grid.a_values[j] / (grid.b_values[i] * grid.capacity))
        assert grid.buffer_ratio[i, j] == pytest.approx(expected)

    def test_fraction_and_ascii(self, grid):
        total = sum(
            grid.fraction_in_case(c)
            for c in (PaperCase.CASE1, PaperCase.CASE2, PaperCase.CASE3,
                      PaperCase.CASE4, PaperCase.CASE5)
        )
        assert total == pytest.approx(1.0)
        art = grid.to_ascii(title="map")
        assert art.startswith("map")
        assert "1" in art and "4" in art


class TestReporting:
    def test_report_runs_selected_experiments(self, tmp_path):
        report = run_reproduction_report(["fig4", "fig5"],
                                         csv_dir=tmp_path / "csv")
        assert report.all_passed
        assert [e.experiment_id for e in report.entries] == ["fig4", "fig5"]
        assert (tmp_path / "csv" / "fig4.csv").exists()

    def test_markdown_and_write(self, tmp_path):
        report = run_reproduction_report(["fig4"])
        text = report.to_markdown()
        assert "# Reproduction report" in text
        assert "| fig4 | PASS" in text
        path = report.write(tmp_path / "REPORT.md")
        assert path.read_text() == text
