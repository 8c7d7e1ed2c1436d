"""tools/bench_pairs.py's summary of paired runs, on hand-made runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _runs(name, values):
    return [{"metrics": {name: {"value": v}}} for v in values]


def _summary(better, parent, change, bound=0.1):
    spec = {"name": "m", "unit": "u", "better": better, "bound": bound}
    return bench_pairs.summarise(spec, _runs("m", parent), _runs("m", change))


class TestSummarise:
    def test_a_lower_is_better_metric_that_falls_improves(self):
        out = _summary("lower", [10.0, 10.0, 10.0], [8.0, 9.0, 11.0])
        assert out["relative_worsening"] == pytest.approx(-0.1)
        assert out["pairs_change_better"] == 2
        assert out["within_bound"]

    def test_a_higher_is_better_metric_that_falls_worsens(self):
        out = _summary("higher", [10.0, 10.0, 10.0], [8.0, 9.0, 11.0])
        assert out["relative_worsening"] == pytest.approx(0.1)
        assert out["pairs_change_better"] == 1
        assert out["within_bound"]  # exactly at the bound

    def test_a_higher_is_better_metric_that_rises_improves(self):
        out = _summary("higher", [100.0, 100.0], [111.0, 112.0])
        assert out["relative_worsening"] == pytest.approx(-0.115)
        assert out["pairs_change_better"] == 2

    @pytest.mark.parametrize("better, change", [("lower", 12.0), ("higher", 8.0)])
    def test_a_worsening_beyond_the_bound_is_reported(self, better, change):
        out = _summary(better, [10.0, 10.0], [change, change])
        assert out["relative_worsening"] == pytest.approx(0.2)
        assert out["pairs_change_better"] == 0
        assert not out["within_bound"]

    def test_ties_count_for_neither_side(self):
        out = _summary("lower", [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert out["relative_worsening"] == 0
        assert out["pairs_change_better"] == 0

    def test_quartiles_and_runs_are_reported(self):
        out = _summary("lower", [1.0, 2.0, 3.0, 4.0, 5.0], [5.0, 4.0, 3.0, 2.0, 1.0])
        assert out["parent"] == {"q1": 2.0, "median": 3.0, "q3": 4.0}
        assert out["parent_iqr"] == 2.0
        assert out["parent_runs"] == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert out["change_runs"] == [5.0, 4.0, 3.0, 2.0, 1.0]
        assert out["pairs_change_better"] == 2
