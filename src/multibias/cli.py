"""Command line interface for multi-bias bounds and E-values.

Subcommands:
  bound    evaluate the bias bound at given parameter values
  evalue   multi-bias E-values for an estimate and confidence interval
  summary  list the parameters a bias combination requires
  grid     tabulate the bound over a grid of two parameters
  curve    E-values for a range of risk ratios under one or more bias sets
  verify   stress-test the bound against randomly generated worlds

Bias combinations are written as '+'-joined clauses (see
:func:`multibias.biases.parse_bias_string`), e.g.
"confounding + selection(increased_risk) + misclassification(outcome)".
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from typing import TYPE_CHECKING

from .biases import NAMED_BIAS_SETS, Scale, parameter_summary, parse_bias_string
from .errors import BiasAnalysisError, ParseError, SizeLimitExceeded

if TYPE_CHECKING:
    import numpy as np


def _fmt(x: float) -> str:
    return f"{x:.7g}"


def _na(x: float | None) -> str:
    return "NA" if x is None else _fmt(x)


def _format_table(rows: list[list[str]], right_from: int = 1) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [
            cell.rjust(widths[i]) if i >= right_from else cell.ljust(widths[i])
            for i, cell in enumerate(row)
        ]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


def _split_name(pair: str, form: str) -> tuple[str, str]:
    """NAME and the rest of a NAME=... argument; form names the expected shape."""
    name, eq, raw = pair.partition("=")
    name = name.strip()
    if not eq or not name:
        raise ParseError(f"expected {form}, got {pair!r}")
    return name, raw


def _parse_assignments(pairs: list[str]) -> dict[str, float]:
    values: dict[str, float] = {}
    for pair in pairs:
        name, raw = _split_name(pair, "NAME=VALUE")
        if name in values:
            raise ParseError(f"{name} is given more than once")
        values[name] = _parse_float(raw, name)
    return values


def _print_json(payload: dict) -> None:
    """Print one JSON record; a non-finite number is an error, never NaN or Infinity."""
    import json

    print(json.dumps(payload, allow_nan=False))


def _print_csv(rows: list[list]) -> None:
    """Print CSV rows: numbers as str(float), a label quoted where it holds a comma."""
    import csv

    csv.writer(sys.stdout, lineterminator="\n").writerows(rows)


def _parse_float(raw: str, label: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ParseError(f"{label}: {raw!r} is not a number") from None


def _cmd_bound(args: argparse.Namespace) -> int:
    from .bounds import multi_bound

    bias_set = parse_bias_string(args.biases)
    values = _parse_assignments(args.param)
    bound = multi_bound(bias_set, values)
    if args.format == "json":
        payload = {
            "schema_version": 1,
            "biases": bias_set.label,
            "parameters": values,
            "bound": bound,
        }
        _print_json(payload)
    else:
        print(_fmt(bound))
    return 0


def _cmd_evalue(args: argparse.Namespace) -> int:
    from .evalues import EffectEstimate, multi_evalue

    bias_set = parse_bias_string(args.biases)
    try:
        scale = Scale(args.measure)
    except ValueError:
        raise ParseError(
            f"unknown measure {args.measure!r}: use RR or OR (hazard ratios "
            "and other measures are not supported)"
        ) from None
    estimate = EffectEstimate(
        point=args.est, lo=args.lo, hi=args.hi, scale=scale, rare_outcome=args.rare
    )
    result = multi_evalue(bias_set, estimate, true_value=args.true)

    shown = result.estimate  # already on the risk ratio scale
    if args.format == "json":
        _print_json(
            {
                "schema_version": 1,
                "biases": bias_set.label,
                "true_value": result.true_value,
                "point": shown.point,
                "lo": shown.lo,
                "hi": shown.hi,
                "evalue_point": result.evalue_point,
                "evalue_lo": result.evalue_lo,
                "evalue_hi": result.evalue_hi,
                "parameters": list(result.parameters),
            }
        )
        return 0

    if args.true != 1.0:
        print(
            'You are calculating a "non-null" multi-bias E-value, i.e., a '
            "multi-bias E-value for the minimum amount of bias needed to "
            "move the estimate and confidence interval to your specified "
            f"true value of {args.true:g} rather than to the null value."
        )
        print()
    print(
        "This multi-bias e-value refers simultaneously to parameters "
        f"{', '.join(result.parameters)}. (See documentation for details.)"
    )
    print()
    rows = [
        ["", "point", "lower", "upper"],
        ["RR", _fmt(shown.point), _na(shown.lo), _na(shown.hi)],
        [
            "Multi-bias e-values",
            _fmt(result.evalue_point),
            _na(result.evalue_lo),
            _na(result.evalue_hi),
        ],
    ]
    print(_format_table(rows))
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    bias_set = parse_bias_string(args.biases)
    entries = parameter_summary(bias_set, include_latex=args.latex)
    header = ["", "bias", "output", "argument"]
    if args.latex:
        header.append("latex")
    rows = [header]
    for i, entry in enumerate(entries, start=1):
        rows.append([str(i)] + list(entry))
    print(_format_table(rows, right_from=0))
    return 0


def _parse_vary(pairs: list[str]) -> list[tuple[str, np.ndarray]]:
    import numpy as np

    from .bounds import MAX_GRID_CELLS

    vary: list[tuple[str, np.ndarray]] = []
    for pair in pairs:
        name, raw = _split_name(pair, "NAME=START:STOP:STEP or NAME=v1,v2,...")
        if ":" in raw:
            pieces = raw.split(":")
            if len(pieces) != 3:
                raise ParseError(f"{name}: expected START:STOP:STEP, got {raw!r}")
            start, stop, step = (_parse_float(p, name) for p in pieces)
            if not all(map(math.isfinite, (start, stop, step))):
                raise ParseError(f"{name}: START, STOP and STEP must be finite")
            if step <= 0:
                raise ParseError(f"{name}: step must be positive")
            if stop < start:
                raise ParseError(f"{name}: stop must not be below start")
            # checked as a float: a tiny enough step makes it inf, which int() rejects
            steps = (stop - start) / step + 1e-9
            if steps >= MAX_GRID_CELLS:
                count = int(steps) + 1 if steps < math.inf else steps
                raise SizeLimitExceeded(
                    f"{name}: {count} grid values exceed {MAX_GRID_CELLS}"
                )
            values = start + step * np.arange(int(steps) + 1)
        else:
            values = np.array(
                [_parse_float(p, name) for p in raw.split(",") if p.strip()]
            )
        if values.size == 0:
            raise ParseError(f"{name}: no grid values")
        vary.append((name, values))
    return vary


def _cmd_grid(args: argparse.Namespace) -> int:
    from .bounds import grid_table

    bias_set = parse_bias_string(args.biases)
    vary = _parse_vary(args.vary)
    fixed = _parse_assignments(args.param)
    table = grid_table(bias_set, vary, fixed=fixed or None)
    if args.format == "csv":
        _print_csv(
            [["", *table.col_values]]
            + [[value, *row] for value, row in zip(table.row_values, table.values.tolist())]
        )
    elif args.format == "json":
        _print_json(
            {
                "schema_version": 1,
                "biases": bias_set.label,
                "row_parameter": table.row_name,
                "col_parameter": table.col_name,
                "row_values": table.row_values,
                "col_values": table.col_values,
                "fixed": dict(table.fixed),
                "values": table.values.tolist(),
            }
        )
    else:
        rows = [[""] + [f"{v:g}" for v in table.col_values]]
        for value, row in zip(table.row_values, table.values):
            rows.append([f"{value:g}"] + [f"{cell:.6f}" for cell in row])
        print(f"rows: {table.row_name}, columns: {table.col_name}")
        print(_format_table(rows))
    return 0


def _cmd_curve(args: argparse.Namespace) -> int:
    import numpy as np

    from .evalues import MAX_CURVE_POINTS, evalue_curve

    # a comma followed by ")" before any "(" separates options, any other bias sets
    try:
        bias_sets = [parse_bias_string(s) for s in re.split(r",(?![^()]*\))", args.bias_sets)]
    except ParseError as exc:
        raise ParseError(f"--bias-sets {args.bias_sets!r}: {exc}") from None
    if not (args.points >= 2 and 0 < args.rr_min < args.rr_max < math.inf):
        raise ParseError("need finite 0 < rr-min < rr-max and at least 2 points")
    if args.points > MAX_CURVE_POINTS:
        raise SizeLimitExceeded(f"{args.points} points exceed {MAX_CURVE_POINTS}")
    # linspace pins the last point to rr-max, but may first overflow computing
    # it; an inf among the rest fails evalue_curve's finiteness check
    with np.errstate(over="ignore"):
        rr_values = np.linspace(args.rr_min, args.rr_max, args.points)
    points = evalue_curve(bias_sets, rr_values)
    if args.format == "json":
        payload = {
            "schema_version": 1,
            "points": [
                {"rr": p.rr, "biases": p.biases, "evalue": p.evalue} for p in points
            ],
        }
        _print_json(payload)
    elif args.format == "csv":
        _print_csv([["rr", "biases", "evalue"]] + [[p.rr, p.biases, p.evalue] for p in points])
    else:
        rows = [["rr", "biases", "evalue"]]
        for p in points:
            rows.append([_fmt(p.rr), p.biases, _fmt(p.evalue)])
        print(_format_table(rows, right_from=2))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .oracle import STRUCTURES, generate_world, verify_bound

    config, bias_set = STRUCTURES[args.structure]
    if args.rare_ceiling is not None:
        import dataclasses

        config = dataclasses.replace(config, rare_outcome_ceiling=args.rare_ceiling)
    if args.worlds < 0:
        raise ParseError("--worlds must be nonnegative")
    if args.seed < 0:
        raise ParseError("--seed must be nonnegative")
    for i in range(args.worlds):
        seed = args.seed + i
        report = verify_bound(generate_world(config, seed), bias_set)
        _print_json(
            {
                "seed": seed,
                "structure": args.structure,
                "ratio": report.ratio,
                "bound": report.bound,
                "slack": report.slack,
                "prevalence": report.prevalence,
            }
        )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multibias",
        description="Bounds and E-values for risk ratios under multiple biases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="evaluate the bias bound")
    p_bound.add_argument("--biases", required=True, help="'+'-joined bias clauses")
    p_bound.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="sensitivity parameter value (repeatable)",
    )
    p_bound.add_argument("--format", choices=["text", "json"], default="text")
    p_bound.set_defaults(func=_cmd_bound)

    p_ev = sub.add_parser("evalue", help="multi-bias E-values for an estimate")
    p_ev.add_argument("--biases", required=True)
    p_ev.add_argument("--est", type=float, required=True, help="point estimate")
    p_ev.add_argument("--measure", default="RR", help="RR or OR")
    p_ev.add_argument(
        "--rare", action="store_true", help="treat an OR as an RR (rare outcome)"
    )
    p_ev.add_argument("--lo", type=float, default=None, help="lower confidence limit")
    p_ev.add_argument("--hi", type=float, default=None, help="upper confidence limit")
    p_ev.add_argument(
        "--true", type=float, default=1.0, help="true value to move the estimate to"
    )
    p_ev.add_argument("--format", choices=["text", "json"], default="text")
    p_ev.set_defaults(func=_cmd_evalue)

    p_sum = sub.add_parser("summary", help="list required sensitivity parameters")
    p_sum.add_argument("--biases", required=True)
    p_sum.add_argument("--latex", action="store_true", help="include latex forms")
    p_sum.set_defaults(func=_cmd_summary)

    p_grid = sub.add_parser("grid", help="tabulate the bound over two parameters")
    p_grid.add_argument("--biases", required=True)
    p_grid.add_argument(
        "--vary",
        action="append",
        default=[],
        metavar="NAME=START:STOP:STEP",
        help="varying parameter (give exactly twice); NAME=v1,v2,... also works",
    )
    p_grid.add_argument(
        "--param", action="append", default=[], metavar="NAME=VALUE", help="fixed value"
    )
    p_grid.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p_grid.set_defaults(func=_cmd_grid)

    p_curve = sub.add_parser("curve", help="E-values along a range of risk ratios")
    p_curve.add_argument(
        "--bias-sets", required=True, help="comma-separated bias strings"
    )
    p_curve.add_argument("--rr-min", type=float, default=1.0)
    p_curve.add_argument("--rr-max", type=float, default=8.0)
    p_curve.add_argument("--points", type=int, default=15)
    p_curve.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p_curve.set_defaults(func=_cmd_curve)

    p_verify = sub.add_parser("verify", help="stress-test the bound on random worlds")
    p_verify.add_argument("--structure", choices=sorted(NAMED_BIAS_SETS), required=True)
    p_verify.add_argument("--worlds", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument(
        "--rare-ceiling",
        type=float,
        default=None,
        help="override the world's maximum stratum outcome risk",
    )
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help and usage errors
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader gone by now raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader stopped early, as `| head` does: end quietly with the status
        # of a process killed by SIGPIPE (128 + 13), and point stdout at devnull
        # so that the flush at interpreter exit does not raise again
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except BiasAnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a program fault, never the user's input
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
