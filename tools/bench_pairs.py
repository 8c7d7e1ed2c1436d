"""Paired benchmark runs of two or more source trees, summarised per end-to-end metric.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --tree NAME=DIR --tree NAME=DIR [--tree NAME=DIR ...] \
        --out BENCH_x.json [--workload W ...] [--pairs N] [--first-seed S] [--seconds T]

Each DIR holds a copy of one commit's files (``git archive REV | tar -x -C
DIR``), named oldest first: the first tree is the parent, each later one a
change, and BENCHMARK.json (the metric names, their direction and bounds,
and the default run length) is read from the last. For each seed S, every
workload runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each tree, one run after the other, starting with tree
number (S + 1) mod N, counting from 0, and wrapping round, so each tree
starts one seed in N (with two trees, odd seeds run the parent first).
--pairs must be a multiple of N, so that each tree runs first equally often.
Every workload of a seed runs before the next seed starts, so slow drift of
the machine's speed falls on all workloads alike.

Before the first run, the output records for each tree whether
``src/multibias/__pycache__`` exists, and a warning is printed when the trees
differ: the ``cli_oneshot`` children run with ``PYTHONDONTWRITEBYTECODE=1``,
so a tree without it compiles the package from source in every call.

For each workload, "metrics" holds each later tree's summary against the
parent, keyed by the later tree's name. Each metric lists every run, the
quartiles of each side (linear interpolation, as numpy's default
percentile), relative_worsening, which is (change - parent) / parent for
lower-is-better metrics and (parent - change) / parent for higher-is-better
ones (so a negative value is an improvement), and the number of pairs in
which the change read better. gain_shown holds when the change read better
in at least nine tenths of the pairs, ties counting for neither side, and
its median is better than the parent's by more than the parent's
interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end record a benchmark run prints on its last line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(runs: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarise(spec: dict, parent: list[dict], change: list[dict]) -> dict:
    name, higher = spec["name"], spec["better"] == "higher"
    p_runs = [r["metrics"][name]["value"] for r in parent]
    c_runs = [r["metrics"][name]["value"] for r in change]
    p, c = quartiles(p_runs), quartiles(c_runs)
    worse = (p["median"] - c["median"]) if higher else (c["median"] - p["median"])
    better = sum((cv > pv) if higher else (cv < pv) for pv, cv in zip(p_runs, c_runs))
    relative = worse / p["median"]
    parent_iqr = p["q3"] - p["q1"]
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": p,
        "change": c,
        "relative_worsening": round(relative, 4),
        "parent_iqr": parent_iqr,
        "pairs_change_better": better,
        "within_bound": relative <= spec["bound"],
        "gain_shown": 10 * better >= 9 * len(p_runs) and -worse > parent_iqr,
        "parent_runs": p_runs,
        "change_runs": c_runs,
    }


def _tree(text: str) -> tuple[str, Path]:
    name, sep, path = text.partition("=")
    if not (name and sep and path):
        raise argparse.ArgumentTypeError(f"expected NAME=DIR, got {text!r}")
    return name, Path(path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tree", type=_tree, action="append", required=True, help="NAME=DIR, oldest first"
    )
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json's")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: quartiles need two runs a side")
    trees = dict(args.tree)
    if not 2 <= len(trees) == len(args.tree):
        parser.error("--tree needs two or more distinct names")
    names = list(trees)
    if args.pairs % len(names):
        parser.error(f"--pairs must be a multiple of the {len(names)} trees")

    bench = json.loads((trees[names[-1]] / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    seeds = range(args.first_seed, args.first_seed + args.pairs)
    bytecode_cached = {
        side: (tree / "src" / "multibias" / "__pycache__").is_dir()
        for side, tree in trees.items()
    }
    if len(set(bytecode_cached.values())) > 1:
        print(
            f"warning: src/multibias/__pycache__ exists in some trees only {bytecode_cached}; "
            "cli_oneshot compiles the package from source in the others",
            file=sys.stderr,
        )
    records: dict[str, dict[str, list[dict]]] = {w: {n: [] for n in names} for w in workloads}

    def order(seed: int) -> list[str]:
        first = (seed + 1) % len(names)
        return names[first:] + names[:first]

    for seed in seeds:
        for workload in workloads:
            for side in order(seed):
                record = run(trees[side], workload, seed, seconds)
                records[workload][side].append(record)
                print(seed, workload, side, json.dumps(record["metrics"]), flush=True)

    end_to_end = {}
    for workload, sides in records.items():
        end_to_end[workload] = {
            "pairs": len(seeds),
            "seeds": list(seeds),
            "first_side": {str(s): order(s)[0] for s in seeds},
            "failed_ops": {side: sum(r["failed"] for r in rs) for side, rs in sides.items()},
            "attempted_ops": {
                side: sum(r["attempted"] for r in rs) for side, rs in sides.items()
            },
            "all_correct": all(r["correct"] for rs in sides.values() for r in rs),
            "metrics": {
                name: {
                    spec["name"]: summarise(spec, sides[names[0]], sides[name])
                    for spec in bench["end_to_end"]
                }
                for name in names[1:]
            },
        }
    out = {
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": version("numpy"),
            "platform": platform.platform(),
        },
        "method": (
            f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
            f"--trace 0 on {len(names)} copies of the source ({', '.join(names)}, oldest "
            "first), one run after the other, seed S starting with copy (S + 1) mod "
            f"{len(names)}, counting from 0; see tools/bench_pairs.py"
        ),
        "bytecode_cached_before_first_run": bytecode_cached,
        "end_to_end": end_to_end,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
