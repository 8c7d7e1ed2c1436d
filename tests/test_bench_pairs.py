"""tools/bench_pairs.py's summary of paired runs, on hand-made runs."""

import importlib.util
import json
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


class TestGainShown:
    PARENT = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9]  # IQR 0.45

    @pytest.mark.parametrize("better, sign", [("lower", -1.0), ("higher", 1.0)])
    def test_nine_of_ten_pairs_better_by_more_than_the_iqr_is_a_gain(self, better, sign):
        change = [v + sign * 1.0 for v in self.PARENT[:9]] + [self.PARENT[9] - sign * 1.0]
        out = _summary(better, self.PARENT, change)
        assert out["pairs_change_better"] == 9
        assert out["gain_shown"]

    def test_a_tie_counts_for_neither_side(self):
        # eight better, one tie, one worse: 8 of 10 falls short of nine tenths
        change = [v - 1.0 for v in self.PARENT[:8]] + [self.PARENT[8], self.PARENT[9] + 1.0]
        out = _summary("lower", self.PARENT, change)
        assert out["pairs_change_better"] == 8
        assert not out["gain_shown"]

    def test_a_median_gap_within_the_parent_iqr_is_no_gain(self):
        change = [v - 0.2 for v in self.PARENT]  # better in every pair, by less than 0.45
        out = _summary("lower", self.PARENT, change)
        assert out["pairs_change_better"] == 10
        assert out["parent_iqr"] == pytest.approx(0.45)
        assert not out["gain_shown"]

    def test_a_gap_in_the_worse_direction_is_no_gain(self):
        out = _summary("higher", self.PARENT, [v - 1.0 for v in self.PARENT])
        assert not out["gain_shown"]


class TestMain:
    @pytest.mark.parametrize("pairs", ["1", "0", "-3"])
    def test_fewer_than_two_pairs_exit_2_before_any_run(self, pairs, tmp_path, monkeypatch, capsys):
        # --pairs 1 ran every workload on both trees, then quartiles raised
        # StatisticsError and no output was written
        def refuse(*args):
            raise AssertionError("a benchmark ran")

        monkeypatch.setattr(bench_pairs, "run", refuse)
        out = tmp_path / "out.json"
        argv = [f"--tree=parent={tmp_path}", f"--tree=change={tmp_path}", "--out", str(out)]
        with pytest.raises(SystemExit) as stopped:
            bench_pairs.main(argv + ["--pairs", pairs])
        assert stopped.value.code == 2
        assert "--pairs must be at least 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("trees, pairs", [(3, 4), (3, 5), (2, 3)])
    def test_pairs_not_a_multiple_of_the_trees_exit_2_before_any_run(
        self, trees, pairs, tmp_path, monkeypatch, capsys
    ):
        # each tree must run first equally often
        def refuse(*args):
            raise AssertionError("a benchmark ran")

        monkeypatch.setattr(bench_pairs, "run", refuse)
        out = tmp_path / "out.json"
        argv = [f"--tree=t{i}={tmp_path}" for i in range(trees)] + ["--out", str(out)]
        with pytest.raises(SystemExit) as stopped:
            bench_pairs.main(argv + ["--pairs", str(pairs)])
        assert stopped.value.code == 2
        assert f"--pairs must be a multiple of the {trees} trees" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def _main(tmp_path, monkeypatch, trees):
        """main over fake runs, one seed per tree: the (tree, seed) of each run, and the output."""
        bench = (
            '{"workloads": [{"name": "w"}], "run_seconds": 1, "end_to_end": '
            '[{"name": "m", "unit": "u", "better": "lower", "bound": 0.1}]}'
        )
        value = {"old": 3.0, "mid": 2.0, "new": 1.0, "parent": 2.0, "change": 1.0}
        for name in value:
            (tmp_path / name).mkdir()
            (tmp_path / name / "BENCHMARK.json").write_text(bench)
        runs = []

        def fake(tree, workload, seed, seconds):
            runs.append((tree.name, seed))
            metrics = {"m": {"value": value[tree.name] + seed / 100}}
            return {"metrics": metrics, "failed": 0, "attempted": 10, "correct": True}

        monkeypatch.setattr(bench_pairs, "run", fake)
        out = tmp_path / "out.json"
        assert bench_pairs.main([*trees, "--out", str(out), "--pairs", str(len(trees))]) == 0
        return runs, json.loads(out.read_text())

    def test_two_trees_run_alternately_and_summarise_the_change(self, tmp_path, monkeypatch):
        trees = [f"--tree={name}={tmp_path / name}" for name in ("parent", "change")]
        runs, out = self._main(tmp_path, monkeypatch, trees)
        assert runs == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2)]
        entry = out["end_to_end"]["w"]
        assert entry["first_side"] == {"1": "parent", "2": "change"}
        # the change's summary, by its name, as with any number of trees
        assert list(entry["metrics"]) == ["change"]
        assert list(entry["metrics"]["change"]) == ["m"]
        assert entry["metrics"]["change"]["m"]["pairs_change_better"] == 2
        assert out["method"] == (
            "python3 perfbench/run.py --workload W --seed S --seconds 1 --trace 0 on 2 "
            "copies of the source (parent, change, oldest first), one run after the "
            "other, seed S starting with copy (S + 1) mod 2, counting from 0; see "
            "tools/bench_pairs.py"
        )

    def test_three_trees_run_in_rotation_on_the_same_seeds(self, tmp_path, monkeypatch):
        trees = [f"--tree={name}={tmp_path / name}" for name in ("old", "mid", "new")]
        runs, out = self._main(tmp_path, monkeypatch, trees)
        # each seed runs every tree once, and each tree starts one seed in three
        assert runs == [
            ("new", 1), ("old", 1), ("mid", 1),
            ("old", 2), ("mid", 2), ("new", 2),
            ("mid", 3), ("new", 3), ("old", 3),
        ]  # fmt: skip
        entry = out["end_to_end"]["w"]
        assert entry["first_side"] == {"1": "new", "2": "old", "3": "mid"}
        assert entry["failed_ops"] == {"old": 0, "mid": 0, "new": 0}
        # each later tree against the first, by its name
        assert list(entry["metrics"]) == ["mid", "new"]
        for name, gain in (("mid", 1.0), ("new", 2.0)):
            summary = entry["metrics"][name]["m"]
            assert summary["parent_runs"] == [3.01, 3.02, 3.03]
            assert summary["pairs_change_better"] == 3
            assert summary["relative_worsening"] == pytest.approx(-gain / 3.02, abs=1e-4)
        assert "3 copies of the source (old, mid, new, oldest first)" in out["method"]

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["--parent", "p"],
            ["--parent", "p", "--change", "c"],
            ["--tree", "a=x"],
            ["--tree", "a=x", "--tree", "a=y"],
            ["--tree", "a=x", "--tree", "b=y", "--change", "c"],
            ["--tree", "a", "--tree", "b=y"],
            ["--tree", "=x", "--tree", "b=y"],
        ],
        ids=[
            "none",
            "parent_only",
            "parent_and_change",
            "one_tree",
            "same_name",
            "mixed",
            "no_path",
            "no_name",
        ],
    )
    def test_trees_given_otherwise_exit_2_before_any_run(self, argv, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("a benchmark ran")

        monkeypatch.setattr(bench_pairs, "run", refuse)
        with pytest.raises(SystemExit) as stopped:
            bench_pairs.main(argv + ["--out", str(tmp_path / "out.json")])
        assert stopped.value.code == 2
        assert not (tmp_path / "out.json").exists()
