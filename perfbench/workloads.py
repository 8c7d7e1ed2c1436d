"""The four workloads: how each op is prepared, run, timed and checked.

Every workload is a closed loop with one client: the next op starts when the
previous one has finished. An op's time covers only the library or CLI call;
preparing its inputs and checking its output happen outside the timed region.
Ops run in whole blocks (see ``gen``), so every run has the generator's mix.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import numpy as np

import multibias as mb
import multibias.cli as mbcli

import gen
import reference as ref
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SCALES = {"RR": mb.Scale.RISK_RATIO, "OR": mb.Scale.ODDS_RATIO}
EXACT_SLACK = 1e-12  # absolute slack the library allows an exact structure
RARE_ALLOWANCE = 1.02  # result2 is approximate; tests/test_acceptance.py allows 2%
MAX_REPORTED_FAILURES = 20
SETUP_PROBES = 9

# Startup-relevant environment of every child process, the same for any
# commit: bytecode is never cached (each CLI call compiles the package from
# source), and BLAS/OpenMP pools have one thread.
CHILD_ENV = {
    "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
    "PYTHONPATH": str(ROOT / "src"),
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "LC_ALL": "C.UTF-8",
}


def specs(decl: tuple) -> tuple:
    out = []
    for clause in decl:
        if clause[0] == "confounding":
            out.append(mb.confounding())
        elif clause[0] == "selection":
            out.append(mb.selection(clause[1], risk_direction=clause[2], s_equals_u=clause[3]))
        else:
            out.append(mb.misclassification(clause[1], rare_outcome=clause[2], rare_exposure=clause[3]))
    return tuple(out)


def spawn(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run a child Python to completion; seconds from spawn to exit."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], env=CHILD_ENV, cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    return time.perf_counter() - t0, proc


_REF_RNG = np.random.default_rng(0)
_REF_TABLE = np.linspace(0.1, 0.9, 8).reshape(2, 2, 2)


def reference_kernel() -> float:
    """Seconds for a fixed task that uses no library code.

    It mixes the two kinds of work the in-process workloads do, interpreter
    work on dicts and floats and small-array numpy calls, whose speeds drift
    differently on a shared machine.
    """
    t0 = time.perf_counter()
    acc: dict[int, float] = {}
    for i in range(1500):
        acc[i % 7] = acc.get(i % 7, 0.0) + i * 0.5
    for _ in range(40):
        draw = _REF_RNG.uniform(0.1, 0.9, (2, 2, 2))
        joint = np.einsum("abc,abc,cb->abc", draw, _REF_TABLE, draw[0])
        float(joint.sum(axis=(0, 1)).max() / joint.min())
    return time.perf_counter() - t0


def reference_spawn() -> float:
    """Seconds from spawn to exit of a bare interpreter."""
    return spawn(["-c", "pass"])[0]


class Workload:
    spawns = False  # ops are child processes rather than in-process calls
    setup_module = "multibias"  # what a fresh process imports before its first op
    reference = staticmethod(reference_kernel)
    reference_nominal = 0.9e-3  # typical reference_kernel() on the 2-vCPU x86 machine the bounds were set on
    calibration_interval = 0.25  # seconds between two reference measurements

    def units(self, op) -> int:
        return 1

    def inproc(self, op, x):
        """The op run in this process; a CLI call runs ``main`` instead of a child."""
        return self.call(op, x)


class Scalar(Workload):
    """One op is one study: build the set, bound it, E-values with a CI, shift the estimate."""

    name = "library_scalar"

    def prepare(self, op: gen.ScalarOp):
        rr = ref.risk_ratio_scale(op.scale, op.rare, op.point, op.lo, op.hi)
        return specs(op.decl), dict(op.values), rr

    def label(self, op) -> str:
        return "scalar"

    def call(self, op: gen.ScalarOp, x):
        declared, values, (point, lo, hi) = x
        bias_set = mb.build_bias_set(declared)
        bound = mb.multi_bound(bias_set, values)
        estimate = mb.EffectEstimate(op.point, op.lo, op.hi, SCALES[op.scale], op.rare)
        evalues = mb.multi_evalue(bias_set, estimate, op.true_value)
        shifted = mb.adjust_estimate(bias_set, values, point, lo, hi)
        return bias_set, bound, evalues, shifted

    def check(self, op: gen.ScalarOp, x, result, expected=None) -> list[str]:
        _, values, (point, lo, hi) = x
        bias_set, bound, ev, shifted = result
        errors = []
        names = ref.names(op.decl)
        if list(bias_set.parameter_names()) != names:
            errors.append(f"parameters {bias_set.parameter_names()} != {names}")
            return errors
        want = ref.bound(op.decl, values)
        if not ref.close(bound, want, 1e-12):
            errors.append(f"bound {bound!r} != {want!r}")
        nk = ref.polynomial(op.decl)
        target, near, inverted = ref.evalue_targets(point, lo, hi, op.true_value)
        near_value, far_value = (ev.evalue_hi, ev.evalue_lo) if inverted else (ev.evalue_lo, ev.evalue_hi)
        for ratio, value in ((target, ev.evalue_point), (near, near_value)):
            error = ref.evalue_error(nk, ratio, value)
            if error:
                errors.append(error)
        if far_value is not None:
            errors.append(f"far-side E-value {far_value!r} reported")
        scale = (1.0 / want) if point >= 1.0 else want
        for got, raw in ((shifted.point, point), (shifted.lo, lo), (shifted.hi, hi)):
            if not ref.close(got, raw * scale, 1e-12):
                errors.append(f"shifted {got!r} != {raw * scale!r}")
        return errors


class Sweep(Workload):
    """One op is one ``grid_table`` or ``evalue_curve`` call."""

    name = "sweep"

    def prepare(self, op):
        if isinstance(op, gen.GridOp):
            vary = [(name, np.linspace(1.0, stop, count)) for name, stop, count in (op.row, op.col)]
            return mb.build_bias_set(specs(op.decl)), vary, dict(op.fixed)
        return [mb.build_bias_set(specs(d)) for d in op.decls], np.linspace(*op.rr)

    def label(self, op) -> str:
        return "grid" if isinstance(op, gen.GridOp) else "curve"

    def units(self, op) -> int:
        if isinstance(op, gen.GridOp):
            return op.row[2] * op.col[2]
        return len(op.decls) * op.rr[2]

    def call(self, op, x):
        if isinstance(op, gen.GridOp):
            return mb.grid_table(*x)
        return mb.evalue_curve(*x)

    def check(self, op, x, result, expected=None) -> list[str]:
        if isinstance(op, gen.GridOp):
            bias_set, vary, fixed = x
            (row, rows), (col, cols) = vary
            table = np.asarray(result.values)
            if table.shape != (len(rows), len(cols)):
                return [f"grid shape {table.shape} != {(len(rows), len(cols))}"]
            errors = []
            # corners and two inner cells, against the scalar bound and the reference
            for i, j in {(0, 0), (len(rows) - 1, len(cols) - 1), (len(rows) // 2, len(cols) // 3),
                         (len(rows) // 3, len(cols) - 1)}:
                cell = {**fixed, row: float(rows[i]), col: float(cols[j])}
                scalar = mb.multi_bound(bias_set, cell)
                want = ref.bound(op.decl, cell)
                if not (ref.close(table[i, j], scalar, 1e-12) and ref.close(table[i, j], want, 1e-12)):
                    errors.append(f"cell ({i}, {j}) {table[i, j]!r} != multi_bound {scalar!r} / {want!r}")
            return errors
        bias_sets, rr_values = x
        if len(result) != len(bias_sets) * len(rr_values):
            return [f"{len(result)} curve points for {len(bias_sets)} x {len(rr_values)}"]
        errors = []
        points = iter(result)
        for decl, bias_set in zip(op.decls, bias_sets):
            nk = ref.polynomial(decl)
            for rr in rr_values:
                p = next(points)
                ratio = rr if rr >= 1.0 else 1.0 / rr
                if p.rr != rr or p.biases != bias_set.label:
                    errors.append(f"curve point ({p.rr!r}, {p.biases!r}) out of order")
                error = ref.evalue_error(nk, float(ratio), p.evalue)
                if error:
                    errors.append(error)
        return errors[:3]


class Oracle(Workload):
    """One op is one world: ``verify_bound(generate_world(config, seed), bias_set)``."""

    name = "oracle_verify"

    def prepare(self, op: gen.OracleOp):
        return mb.STRUCTURES[op.structure]

    def label(self, op) -> str:
        return op.structure

    def call(self, op: gen.OracleOp, x):
        config, bias_set = x
        return mb.verify_bound(mb.generate_world(config, op.seed), bias_set)

    def check(self, op: gen.OracleOp, x, result, expected=None) -> list[str]:
        return report_errors(op.structure, result)


def report_errors(structure: str, r) -> list[str]:
    """Why a verify report breaks the bound's promise, if it does."""
    if not all(math.isfinite(v) for v in (r.ratio, r.bound, r.slack)):
        return [f"non-finite report {r}"]
    if structure == "result2":
        if r.prevalence > 0.01 or r.ratio > RARE_ALLOWANCE * r.bound:
            return [f"rare-outcome bound exceeded beyond 2%: {r}"]
    elif r.ratio > r.bound + EXACT_SLACK:
        return [f"exact bound violated: {r}"]
    if r.slack != r.bound - r.ratio:
        return [f"slack {r.slack!r} != bound - ratio"]
    return []


def _option(argv: tuple, flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def _options(argv: tuple, flag: str) -> list[str]:
    return [argv[i + 1] for i, a in enumerate(argv) if a == flag]


def _pairs(argv: tuple, flag: str) -> dict[str, str]:
    return dict(p.split("=", 1) for p in _options(argv, flag))


def _grid_axis(spec: str) -> list[float]:
    """Values of a ``--vary`` spec, read as the CLI documents them."""
    if ":" in spec:
        start, stop, step = (float(v) for v in spec.split(":"))
        return list(start + step * np.arange(int((stop - start) / step + 1e-9) + 1))
    return [float(v) for v in spec.split(",")]


def _split_row(line: str) -> list[str]:
    return re.split(r"\s{2,}", line.strip())


class Cli(Workload):
    """One op is one ``python -m multibias.cli`` child, spawned and waited for."""

    name = "cli_oneshot"
    spawns = True
    setup_module = "multibias.cli"
    reference = staticmethod(reference_spawn)
    reference_nominal = 40e-3  # typical bare interpreter start on the same machine
    calibration_interval = 2.0

    def prepare(self, op: gen.CliOp):
        return list(op.argv)

    def label(self, op) -> str:
        return op.command

    def call(self, op: gen.CliOp, argv):
        _, proc = spawn(["-m", "multibias.cli", *argv])
        return proc.returncode, proc.stdout, proc.stderr

    def inproc(self, op: gen.CliOp, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mbcli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, op: gen.CliOp, x, result, expected=None) -> list[str]:
        code, out, err = result
        if code != 0:
            return [f"exit code {code}: {err.strip()[-300:]}"]
        if isinstance(expected, Exception):
            return [f"in-process call raised {type(expected).__name__}: {expected}"]
        if expected is not None and (code, out) != expected[:2]:
            return ["stdout differs from the in-process call"]
        try:
            return getattr(self, "_check_" + op.command)(op, out)
        except (ValueError, KeyError, IndexError, StopIteration) as exc:
            return [f"unreadable {op.command} output: {type(exc).__name__}: {exc}"]

    def _check_bound(self, op, out: str) -> list[str]:
        (decl,) = op.decls
        values = {k: float(v) for k, v in _pairs(op.argv, "--param").items()}
        want = ref.bound(decl, values)
        if _option(op.argv, "--format") == "json":
            got, rel = json.loads(out)["bound"], 1e-12
        else:
            got, rel = float(out), 1e-6
        return [] if ref.close(got, want, rel) else [f"bound {got!r} != {want!r}"]

    def _check_evalue(self, op, out: str) -> list[str]:
        (decl,) = op.decls
        a = op.argv
        point, lo, hi = ref.risk_ratio_scale(
            _option(a, "--measure"), "--rare" in a,
            float(_option(a, "--est")), float(_option(a, "--lo")), float(_option(a, "--hi")),
        )
        target, near, inverted = ref.evalue_targets(point, lo, hi, float(_option(a, "--true") or 1.0))
        nk = ref.polynomial(decl)
        if _option(a, "--format") == "json":
            payload = json.loads(out)
            got = [payload["evalue_point"], payload["evalue_lo"], payload["evalue_hi"]]
            rel = 1e-9
        else:
            cells = out.strip().splitlines()[-1].split()[-3:]
            got = [None if c == "NA" else float(c) for c in cells]
            rel = 2e-6 * nk[0]  # seven significant digits
        near_value, far_value = (got[2], got[1]) if inverted else (got[1], got[2])
        errors = [e for e in (ref.evalue_error(nk, target, got[0], rel),
                              ref.evalue_error(nk, near, near_value, rel)) if e]
        if far_value is not None:
            errors.append(f"far-side E-value {far_value!r} reported")
        return errors

    def _check_summary(self, op, out: str) -> list[str]:
        (decl,) = op.decls
        rows = [_split_row(line) for line in out.strip().splitlines()[1:]]
        got = [row[3] for row in rows]
        return [] if got == ref.names(decl) else [f"summary arguments {got} != {ref.names(decl)}"]

    def _check_grid(self, op, out: str) -> list[str]:
        (decl,) = op.decls
        fixed = {k: float(v) for k, v in _pairs(op.argv, "--param").items()}
        (row, row_spec), (col, col_spec) = (v.split("=", 1) for v in _options(op.argv, "--vary"))
        rows, cols = _grid_axis(row_spec), _grid_axis(col_spec)
        fmt = _option(op.argv, "--format")
        rel = 1e-12
        if fmt == "json":
            table = json.loads(out)["values"]
        elif fmt == "csv":
            table = [[float(v) for v in line.split(",")[1:]] for line in out.strip().splitlines()[1:]]
        else:
            table = [[float(v) for v in _split_row(line)[1:]] for line in out.strip().splitlines()[2:]]
            rel = 1e-6  # six decimals
        if len(table) != len(rows) or any(len(r) != len(cols) for r in table):
            return [f"grid of {len(table)} rows for {len(rows)} x {len(cols)}"]
        for i, rv in enumerate(rows):
            for j, cv in enumerate(cols):
                want = ref.bound(decl, {**fixed, row: rv, col: cv})
                if abs(table[i][j] - want) > rel * want + (5e-7 if fmt == "text" else 0.0):
                    return [f"grid cell ({i}, {j}) {table[i][j]!r} != {want!r}"]
        return []

    def _check_curve(self, op, out: str) -> list[str]:
        a = op.argv
        rr_values = np.linspace(float(_option(a, "--rr-min")), float(_option(a, "--rr-max")),
                                int(_option(a, "--points")))
        fmt = _option(a, "--format")
        if fmt == "json":
            evalues = [p["evalue"] for p in json.loads(out)["points"]]
            digits = 1e-9
        else:
            lines = out.strip().splitlines()[1:]
            evalues = [float(line.rsplit("," if fmt == "csv" else None, 1)[-1]) for line in lines]
            digits = 1e-5 if fmt == "csv" else 1e-6  # %g keeps six digits, the table seven
        if len(evalues) != len(op.decls) * len(rr_values):
            return [f"{len(evalues)} curve points for {len(op.decls)} x {len(rr_values)}"]
        points = iter(evalues)
        for decl in op.decls:
            nk = ref.polynomial(decl)
            for rr in rr_values:
                ratio = float(rr if rr >= 1.0 else 1.0 / rr)
                error = ref.evalue_error(nk, ratio, next(points), 2 * digits * nk[0] if fmt != "json" else digits)
                if error:
                    return [error]
        return []

    def _check_verify(self, op, out: str) -> list[str]:
        a = op.argv
        structure, seed, worlds = _option(a, "--structure"), int(_option(a, "--seed")), int(_option(a, "--worlds"))
        records = [json.loads(line) for line in out.strip().splitlines()]
        if [r["seed"] for r in records] != list(range(seed, seed + worlds)):
            return [f"verify seeds {[r['seed'] for r in records]}"]
        for r in records:
            report = mb.BoundReport(r["ratio"], r["bound"], True, r["slack"], r["prevalence"])
            errors = report_errors(structure, report)
            if errors:
                return errors
        return []


WORKLOADS = {w.name: w for w in (Cli(), Scalar(), Sweep(), Oracle())}


class Recorder:
    """Timings, failures and mix of the ops of one phase of a run."""

    def __init__(self) -> None:
        self.seconds = array("d")  # untraced time of every op, in order
        self.by_label: dict[str, list[float]] = {}  # the same by op label, for CLI calls only
        self.units: dict[str, list[float]] = {}  # label -> [ops, work units, seconds]
        self.block_ends = array("q")  # ops run by the end of each block
        self.setup = array("d")  # seconds from spawn until the library is imported
        self.traced = array("d")  # in-process time of each op with tracing on
        self.untraced = array("d")  # ... and off, run back to back
        self.attempted = 0
        self.failed = 0
        self.degenerate = 0
        self.failures: list[str] = []
        self.mix = gen.Mix()
        self.marks: list[tuple[int, float]] = []  # (ops so far, reference seconds)

    def calibrate(self, reference) -> None:
        self.marks.append((self.attempted, statistics.median(reference() for _ in range(3))))

    def normalised(self, nominal: float) -> np.ndarray:
        """Op seconds at the reference speed.

        The ops between two reference measurements are scaled by the
        nominal reference time over the mean of the two measurements, which
        takes out the machine's drift in speed during and between runs.
        """
        ops, values = (np.array(v) for v in zip(*self.marks))
        factor = nominal / ((values[:-1] + values[1:]) / 2)
        return np.asarray(self.seconds) * np.repeat(factor, np.diff(ops))

    def block_rates(self, seconds) -> np.ndarray:
        """Ops per second of op time, block by block."""
        ends = np.asarray(self.block_ends)
        starts = np.concatenate([[0], ends[:-1]])
        elapsed = np.concatenate([[0.0], np.cumsum(seconds)])
        return (ends - starts) / (elapsed[ends] - elapsed[starts])

    def add(self, op, label: str, units: int, seconds: float, errors: list[str]) -> None:
        self.attempted += 1
        self.seconds.append(seconds)
        if isinstance(op, gen.CliOp):
            self.by_label.setdefault(label, []).append(seconds)
        tally = self.units.setdefault(label, [0, 0, 0.0])
        tally[0] += 1
        tally[1] += units
        tally[2] += seconds
        if errors:
            self.failed += 1
            if len(self.failures) < MAX_REPORTED_FAILURES:
                self.failures.append(f"{op!r}: {'; '.join(errors)}")


def _timed(fn, op, x):
    t0 = time.perf_counter()
    try:
        result = fn(op, x)
    except Exception as exc:  # an op that raises is a failure to report, not a crash
        result = exc
    return time.perf_counter() - t0, result


def setup_seconds(module: str) -> float:
    """Seconds from spawning a fresh interpreter until ``import module`` is done."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    _, proc = spawn(["-c", f"import {module}, time; print(time.clock_gettime(time.CLOCK_MONOTONIC))"])
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import {module}: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - t0


def measure(wl, blocks, seconds: float, min_ops: int = 0, tracer: Tracer | None = None,
            phase: str = "main") -> Recorder:
    """Run whole blocks of ops until ``seconds`` have passed and ``min_ops`` ran.

    With a tracer, each op also runs in-process twice, traced and untraced,
    in alternating order, which gives the spans and the tracing overhead.
    Without one, a fresh interpreter importing ``wl.setup_module`` is timed
    before the first block and then between blocks, SETUP_PROBES times spread
    over the run, so the set-up median sees the same machine as the ops; and
    the workload's reference task is timed between ops every
    ``wl.calibration_interval`` seconds and after the last op.
    """
    rec = Recorder()
    end_to_end = tracer is None
    start = time.perf_counter()
    deadline = start + seconds
    next_probe = next_calibration = start
    for block in blocks:
        if end_to_end and time.perf_counter() >= next_probe:
            rec.setup.append(setup_seconds(wl.setup_module))
            next_probe += seconds / (SETUP_PROBES - 1)
        for op in block:
            if end_to_end and time.perf_counter() >= next_calibration:
                rec.calibrate(wl.reference)
                next_calibration = time.perf_counter() + wl.calibration_interval
            x = wl.prepare(op)
            label = wl.label(op)
            plain = None
            if tracer is not None:
                for traced in ((True, False) if rec.attempted % 2 == 0 else (False, True)):
                    if traced:
                        tracer.install(f"{phase}/{label}")
                    dt, result = _timed(wl.inproc, op, x)
                    if traced:
                        tracer.uninstall()
                        rec.traced.append(dt)
                    else:
                        rec.untraced.append(dt)
                        plain = (dt, result)
            if wl.spawns:
                dt, result = _timed(wl.call, op, x)
                expected = plain[1] if plain else _timed(wl.inproc, op, x)[1]
            else:
                dt, result = plain if plain else _timed(wl.call, op, x)
                expected = None
            if isinstance(result, Exception):
                if isinstance(result, mb.DegenerateStratum):
                    rec.degenerate += 1
                errors = [f"raised {type(result).__name__}: {result}"]
            else:
                errors = wl.check(op, x, result, expected)
            rec.add(op, label, wl.units(op), dt, errors)
        rec.block_ends.append(rec.attempted)
        rec.mix.add(block)
        if time.perf_counter() >= deadline and rec.attempted >= min_ops:
            break
    if end_to_end:
        rec.calibrate(wl.reference)
    return rec


def coverage_blocks(name: str, seed: int) -> list[list]:
    """A short slice of a workload, run traced so that every layer gets spans."""
    first = next(gen.blocks(name, seed))
    if name == "cli_oneshot":
        return [[next(op for op in first if op.command == c) for c in dict.fromkeys(gen.CLI_BLOCK)]]
    if name == "sweep":
        return [first]
    stream = gen.blocks(name, seed)
    return [next(stream) for _ in range(3)]
