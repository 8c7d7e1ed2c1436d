"""Tests of the benchmark itself: seeded inputs, output checks, metric names.

Run from the root of the repository: python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import re
from dataclasses import replace

import pytest

import gen
import run
import workloads as w

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = list(itertools.islice(gen.blocks(workload, 7), 3))
    assert first == list(itertools.islice(gen.blocks(workload, 7), 3))
    assert first != list(itertools.islice(gen.blocks(workload, 8), 3))


def _first(workload, kind=None):
    ops = next(gen.blocks(workload, 5))
    return next(op for op in ops if kind is None or type(op).__name__ == kind or getattr(op, "command", None) == kind)


def _run(wl, op):
    x = wl.prepare(op)
    return x, wl.call(op, x)


def test_corrupted_scalar_outputs_are_failures():
    wl = w.WORKLOADS["library_scalar"]
    op = _first("library_scalar")
    x, (bias_set, bound, ev, shifted) = _run(wl, op)
    assert wl.check(op, x, (bias_set, bound, ev, shifted)) == []
    assert wl.check(op, x, (bias_set, bound * (1 + 1e-9), ev, shifted))
    assert wl.check(op, x, (bias_set, bound, replace(ev, evalue_point=ev.evalue_point * 1.001), shifted))


def test_corrupted_sweep_outputs_are_failures():
    wl = w.WORKLOADS["sweep"]
    op = _first("sweep", "CurveOp")
    x, points = _run(wl, op)
    assert wl.check(op, x, points) == []
    bad = list(points)
    bad[-1] = replace(bad[-1], evalue=bad[-1].evalue * 1.0001 + 1e-6)
    assert wl.check(op, x, bad)
    grid = _first("sweep", "GridOp")
    x, table = _run(wl, grid)
    assert wl.check(grid, x, table) == []
    values = table.values.copy()
    values[0, 0] *= 1.01
    assert wl.check(grid, x, replace(table, values=values))


def test_violated_bound_is_a_failure():
    wl = w.WORKLOADS["oracle_verify"]
    op = gen.OracleOp("result1", 3)
    x, report = _run(wl, op)
    assert wl.check(op, x, report) == []
    ratio = report.bound * (1 + 1e-9)
    bad = replace(report, ratio=ratio, holds=False, slack=report.bound - ratio)
    assert wl.check(op, x, bad)


@pytest.mark.parametrize("command", ["bound", "evalue", "grid", "curve", "verify"])
def test_corrupted_cli_outputs_are_failures(command):
    wl = w.WORKLOADS["cli_oneshot"]
    op = _first("cli_oneshot", command)
    argv = wl.prepare(op)
    good = wl.inproc(op, argv)
    assert good[0] == 0
    assert wl.check(op, argv, good, good) == []
    # one printed number is 1% off, in the child and in-process alike
    numbers = list(re.finditer(r"\d+\.\d+", good[1]))
    m = numbers[0] if command == "verify" else numbers[-1]
    bad = (0, good[1][: m.start()] + repr(float(m.group()) * 1.01) + good[1][m.end():], "")
    assert wl.check(op, argv, bad, good)
    assert wl.check(op, argv, bad, bad)


def test_wrong_library_results_are_counted(monkeypatch):
    real = w.mb.multi_bound
    monkeypatch.setattr(w.mb, "multi_bound", lambda bias_set, values: real(bias_set, values) * 1.5)
    rec = w.measure(w.WORKLOADS["library_scalar"], gen.blocks("library_scalar", 1), 0.0)
    assert rec.attempted == 50 and rec.failed == 50 and rec.failures


def _metric_names(section):
    return [m["name"] for m in BENCHMARK[section]]


def test_benchmark_json_matches_the_runner():
    assert _metric_names("end_to_end") == [m[0] for m in run.END_TO_END]
    assert _metric_names("per_layer") == [m[0] for m in run.PER_LAYER]
    assert [wl["name"] for wl in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    report = run.run(workload, seed=11, seconds=0.0, trace=trace)
    result = report["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == _metric_names("per_layer" if trace else "end_to_end")
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
