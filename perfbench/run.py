"""Benchmark of the multibias library and CLI, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (all closed loops with one client, on one thread):

  cli_oneshot     sequential ``python -m multibias.cli`` children: 70% bound,
                  evalue and summary calls, 30% small grid, curve and verify
                  calls, over the whole bias grammar and every --format.
                  Interpreter start and imports dominate.
  library_scalar  in-process studies: build_bias_set, multi_bound,
                  multi_evalue with a CI, adjust_estimate. Per-call overhead
                  dominates; the scalar path would otherwise go unmeasured,
                  being under 0.1% of a CLI call.
  sweep           in-process grid_table (axes of 5 to 300 values) and
                  evalue_curve (1 to 4 bias sets, 15 to 2000 points) calls.
                  Array work in bounds and evalues dominates.
  oracle_verify   in-process verify_bound(generate_world(...)) round-robin
                  over the seven STRUCTURES, world seeds consecutive from
                  --seed. The oracle dominates.

Every op's output is checked (see ``reference``); a wrong output or an
exception counts as a failed op and is printed with its inputs.

With --trace 0 the last line holds the end-to-end metrics, whose meaning
per workload is:

  setup_s         median over 9 fresh children, spread over the run, of the
                  time from spawn until ``import multibias.cli``
                  (cli_oneshot) or ``import multibias`` (the others) is done
  peak_rss_mb     largest resident set of a CLI child (cli_oneshot) or of the
                  benchmark process, which runs the in-process workloads
  latency_p50     median and 90th percentile time of one op: a CLI call from
  latency_p90     spawn to exit, a scalar study, a sweep call, one world
  throughput      median over the run's blocks of ops per second of op time

On the shared 2-vCPU machine the bounds were set on, speed drifts by 20% and
more over tens of seconds, in ways no run length averages out. The
latency and throughput figures are therefore given at a reference speed
(units ref_ms and ops/ref_s): a reference task that uses no library code is
timed between ops (every quarter second: a fixed mix of interpreter and
small-array work, for the in-process workloads; every two seconds: a bare
interpreter start, for cli_oneshot), and each op's time is scaled by the
task's nominal time over its time measured around that op. A change to the
library moves these figures; a change in the machine's speed largely does
not. The lines above the last one give the raw figures under their
user-facing names (cli_latency_ms_p50, scalar_ops_per_s, grid_cells_per_s,
worlds_per_s, ...), the reference time itself, and ops_failed_frac.

With --trace 1 a second kind of run wraps the library's public functions
(see ``spans``) and the last line holds the per-layer metrics: mean self
time per call of each layer, calls per op, and per-structure oracle figures.
Each op then runs in-process once traced and once untraced, back to back, and
``trace.overhead_frac`` compares the two medians. Layers the workload does
not reach are measured on a short fixed slice of the workload that does
(the coverage pass), so every run reports every layer. Spans are written to
``perfbench/out/spans_<workload>.npz``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

# pinned before numpy is first imported, and the same for every commit
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import gen  # noqa: E402  (imports no library code)

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli_oneshot", "library_scalar", "sweep", "oracle_verify")
PROBE_REPEATS = 5
MIN_CLI_CALLS = 100  # a p90 needs ten calls beyond it
CLI_COMMANDS = tuple(dict.fromkeys(gen.CLI_BLOCK))
STRUCTURES = gen.STRUCTURE_NAMES
NUMPY_PROBE_ARGV = ["bound", "--biases", "confounding", "--param", "RRAUc=2", "--param", "RRUcY=3"]

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("latency_p50", "ref_ms", "lower"),
    ("latency_p90", "ref_ms", "lower"),
    ("throughput", "ops/ref_s", "higher"),
)
ORACLE_LAYERS = ("generate_world", "joint", "extract_parameters", "observed_and_true_rr", "verify_bound")
PER_LAYER = (
    [("cli.interp_start_ms", "ms", "lower"), ("cli.import_ms", "ms", "lower"),
     ("cli.numpy_imported", "count", "lower")]
    + [(f"cli.main_us.{c}", "us", "lower") for c in CLI_COMMANDS]
    + [(f"cli.latency_ms_p50.{c}", "ms", "lower") for c in CLI_COMMANDS]
    + [("biases.build_bias_set_us", "us", "lower"), ("biases.build_bias_set_calls_per_op", "count", "lower"),
       ("bounds.bound_expression_us", "us", "lower"), ("bounds.bound_expression_calls_per_op", "count", "lower"),
       ("bounds.multi_bound_us", "us", "lower"), ("bounds.adjust_estimate_us", "us", "lower"),
       ("bounds.grid_table_ns_per_cell", "ns", "lower"),
       ("evalues.evalue_polynomial_us", "us", "lower"), ("evalues.multi_evalue_us", "us", "lower"),
       ("evalues.solve_closed_us", "us", "lower"), ("evalues.solve_bisect_us", "us", "lower"),
       ("evalues.bisect_share", "frac", "lower"), ("evalues.evalue_curve_us_per_point", "us", "lower")]
    + [(f"oracle.{layer}_us.{s}", "us", "lower") for layer in ORACLE_LAYERS for s in STRUCTURES]
    + [(f"oracle.worlds_per_s.{s}", "1/s", "higher") for s in STRUCTURES]
    + [("oracle.degenerate_frac", "frac", "lower"), ("trace.overhead_frac", "frac", "lower")]
)


def _median(values) -> float:
    return statistics.median(values) if len(values) else 0.0


def _quantile(values, q: float) -> float:
    """The q-quantile by linear interpolation between order statistics."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def _git_commit() -> str:
    """The checkout's commit, read from .git without running git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(workload: str, seed: int) -> dict:
    import numpy as np

    from workloads import CHILD_ENV

    return {
        "workload": workload,
        "seed": seed,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "child_env": {k: v for k, v in CHILD_ENV.items() if k not in ("PATH", "PYTHONPATH")},
        "bench_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "PYTHONDONTWRITEBYTECODE",
            "PYTHONHASHSEED")},
    }


def cli_probes() -> dict[str, float]:
    from workloads import spawn

    bare = [spawn(["-c", "pass"])[0] for _ in range(PROBE_REPEATS)]
    imported = [spawn(["-c", "import multibias.cli"])[0] for _ in range(PROBE_REPEATS)]
    code = (
        "import sys; from multibias.cli import main; "
        f"main({NUMPY_PROBE_ARGV!r}); print('numpy' in sys.modules)"
    )
    _, proc = spawn(["-c", code])
    return {
        "cli.interp_start_ms": _median(bare) * 1e3,
        "cli.import_ms": (_median(imported) - _median(bare)) * 1e3,
        "cli.numpy_imported": float(proc.stdout.split()[-1] == "True"),
    }


def end_to_end(wl, rec) -> dict[str, float]:
    usage = resource.RUSAGE_CHILDREN if wl.spawns else resource.RUSAGE_SELF
    seconds = rec.normalised(wl.reference_nominal)
    return {
        "setup_s": _median(rec.setup),
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        "latency_p50": _quantile(seconds, 0.5) * 1e3,
        "latency_p90": _quantile(seconds, 0.9) * 1e3,
        "throughput": _median(rec.block_rates(seconds)),
    }


def headline(workload: str, rec) -> dict[str, tuple[float, str]]:
    """The workload's own figures as measured, not normalised, under their user-facing names."""
    lat = rec.seconds
    out = {}
    if workload == "cli_oneshot":
        out["cli_latency_ms_p50"] = (_quantile(lat, 0.5) * 1e3, "ms")
        out["cli_latency_ms_p90"] = (_quantile(lat, 0.9) * 1e3, "ms")
    elif workload == "library_scalar":
        out["scalar_ops_per_s"] = (_median(rec.block_rates(lat)), "ops/s")
        out["scalar_op_us_p90"] = (_quantile(lat, 0.9) * 1e6, "us")
    elif workload == "sweep":
        for label, unit in (("grid", "cells"), ("curve", "points")):
            _, work, seconds = rec.units.get(label, (0, 0, 0.0))
            out[f"{label}_{unit}_per_s"] = (work / seconds if seconds else 0.0, f"{unit}/s")
    else:
        out["worlds_per_s"] = (_median(rec.block_rates(lat)), "worlds/s")
    out["reference_ms"] = (_median([m[1] for m in rec.marks]) * 1e3, "ms")
    out["ops_failed_frac"] = (rec.failed / rec.attempted, "frac")
    return out


def per_layer(workload: str, tracer, rec, covers: dict, probes: dict) -> dict[str, float]:
    """Per-layer figures; a layer the workload never reached is taken from the coverage pass."""
    table = tracer.table()

    def totals(span: str, phase: str, label: str | None = None) -> list:
        """[calls, self ns, inclusive ns, work] of a span in one phase of the run."""
        rows = [
            v for (name, lab), v in table.items()
            if name == span and lab.startswith(phase + "/") and (label is None or lab == f"{phase}/{label}")
        ]
        return [sum(col) for col in zip(*rows)] if rows else [0, 0.0, 0.0, 0]

    def reached(span: str, label: str | None = None) -> list:
        main = totals(span, "main", label)
        return main if main[0] else totals(span, "cover", label)

    def self_us(span: str, label: str | None = None) -> float:
        calls, own, _, _ = reached(span, label)
        return own / calls / 1e3 if calls else 0.0

    def per_op(span: str) -> float:
        return totals(span, "main")[0] / rec.attempted

    def owner(name: str):
        return rec if workload == name else covers[name]

    out = dict(probes)
    cli = owner("cli_oneshot")
    for c in CLI_COMMANDS:
        out[f"cli.main_us.{c}"] = self_us("cli.main", c)
        out[f"cli.latency_ms_p50.{c}"] = _median(cli.by_label.get(c, [])) * 1e3
    out["biases.build_bias_set_us"] = self_us("biases.build_bias_set")
    out["biases.build_bias_set_calls_per_op"] = per_op("biases.build_bias_set")
    out["bounds.bound_expression_us"] = self_us("bounds.bound_expression")
    out["bounds.bound_expression_calls_per_op"] = per_op("bounds.bound_expression")
    out["bounds.multi_bound_us"] = self_us("bounds.multi_bound")
    out["bounds.adjust_estimate_us"] = self_us("bounds.adjust_estimate")
    _, _, inclusive, cells = reached("bounds.grid_table")
    out["bounds.grid_table_ns_per_cell"] = inclusive / cells if cells else 0.0
    out["evalues.evalue_polynomial_us"] = self_us("evalues.evalue_polynomial")
    out["evalues.multi_evalue_us"] = self_us("evalues.multi_evalue")
    out["evalues.solve_closed_us"] = self_us("evalues.solve_polynomial.closed")
    out["evalues.solve_bisect_us"] = self_us("evalues.solve_polynomial.bisect")
    solves = {k: totals(f"evalues.solve_polynomial.{k}", "main")[0] for k in ("closed", "bisect")}
    if not sum(solves.values()):
        solves = {k: totals(f"evalues.solve_polynomial.{k}", "cover")[0] for k in solves}
    out["evalues.bisect_share"] = solves["bisect"] / sum(solves.values()) if sum(solves.values()) else 0.0
    _, _, inclusive, points = reached("evalues.evalue_curve")
    out["evalues.evalue_curve_us_per_point"] = inclusive / points / 1e3 if points else 0.0
    for layer in ORACLE_LAYERS:
        for s in STRUCTURES:
            out[f"oracle.{layer}_us.{s}"] = self_us(f"oracle.{layer}", s)
    oracle = owner("oracle_verify")
    for s in STRUCTURES:
        worlds, _, seconds = oracle.units.get(s, (0, 0, 0.0))
        out[f"oracle.worlds_per_s.{s}"] = worlds / seconds if seconds else 0.0
    out["oracle.degenerate_frac"] = oracle.degenerate / oracle.attempted
    out["trace.overhead_frac"] = _median(rec.traced) / _median(rec.untraced) - 1.0
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, min_ops: int = 0) -> dict:
    """One benchmark run; returns the report printed by ``main``."""
    import workloads as w
    from spans import Tracer

    wl = w.WORKLOADS[workload]
    if trace:
        probes = cli_probes()
        tracer = Tracer()
        rec = w.measure(wl, gen.blocks(workload, seed), seconds, min_ops, tracer)
        covers = {
            name: w.measure(w.WORKLOADS[name], w.coverage_blocks(name, seed), 0.0, 0, tracer, "cover")
            for name in WORKLOADS if name != workload
        }
        tracer.write(ROOT / "perfbench" / "out" / f"spans_{workload}.npz")
        metrics = per_layer(workload, tracer, rec, covers, probes)
        units = {name: unit for name, unit, _ in PER_LAYER}
        recs = [rec, *covers.values()]
    else:
        rec = w.measure(wl, gen.blocks(workload, seed), seconds, min_ops)
        metrics = end_to_end(wl, rec)
        units = {name: unit for name, unit, _ in END_TO_END}
        recs = [rec]
    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    return {
        "meta": metadata(workload, seed),
        "mix": rec.mix.summary(),
        "headline": {} if trace else headline(workload, rec),
        "failures": [f for r in recs for f in r.failures],
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "multibias" / "__init__.py").is_file():
        print(f"error: no multibias sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    min_ops = MIN_CLI_CALLS if args.workload == "cli_oneshot" else 0
    report = run(args.workload, args.seed, args.seconds, bool(args.trace), min_ops)
    print("meta " + json.dumps(report["meta"], sort_keys=True))
    print("mix " + json.dumps(report["mix"], sort_keys=True))
    for failure in report["failures"]:
        print("FAILED " + failure)
    for name, (value, unit) in report["headline"].items():
        print(f"{name:>24} {value:14.6g} {unit}")
    for name, m in report["result"]["metrics"].items():
        print(f"{name:>40} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
