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
import json
import math
import sys
from typing import TYPE_CHECKING

from .biases import Scale, _split_outside_parens, parameter_summary, parse_bias_string
from .bounds import MAX_GRID_CELLS, adjust_estimate, grid_table, multi_bound
from .errors import BiasAnalysisError, ParseError, SizeLimitExceeded
from .evalues import MAX_CURVE_POINTS, EffectEstimate, evalue_curve, multi_evalue

if TYPE_CHECKING:
    import numpy as np

# sorted(oracle.STRUCTURES), written out so that parsing arguments does not
# load the oracle and numpy; a test keeps the two equal
_STRUCTURE_NAMES = (
    "confounding",
    "outcome_misclassification",
    "result1",
    "result2",
    "result3",
    "selection",
    "selection_selected",
)


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


def _parse_assignments(pairs: list[str]) -> dict[str, float]:
    values: dict[str, float] = {}
    for pair in pairs:
        name, eq, raw = pair.partition("=")
        if not eq or not name:
            raise ParseError(f"expected NAME=VALUE, got {pair!r}")
        values[name.strip()] = _parse_float(raw, name.strip())
    return values


def _print_json(payload: dict) -> None:
    """Print one JSON record; a non-finite number is an error, never NaN or Infinity."""
    print(json.dumps(payload, allow_nan=False))


def _parse_float(raw: str, label: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ParseError(f"{label}: {raw!r} is not a number") from None


def _cmd_bound(args: argparse.Namespace) -> int:
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

    if args.format == "json":
        _print_json(result.to_json())
        return 0

    if args.true != 1.0:
        print(
            'You are calculating a "non-null" multi-bias E-value, i.e., a '
            "multi-bias E-value for the minimum amount of bias needed to "
            "move the estimate and confidence interval to your specified "
            f"true value of {args.true:g} rather than to the null value."
        )
        print()
    names = [p.evalue_name for p in bias_set.parameters]
    print(
        "This multi-bias e-value refers simultaneously to parameters "
        f"{', '.join(names)}. (See documentation for details.)"
    )
    print()
    shown = result.estimate  # already on the risk ratio scale
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

    vary: list[tuple[str, np.ndarray]] = []
    for pair in pairs:
        name, eq, raw = pair.partition("=")
        if not eq or not name:
            raise ParseError(f"expected NAME=START:STOP:STEP or NAME=v1,v2,..., got {pair!r}")
        name = name.strip()
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
    bias_set = parse_bias_string(args.biases)
    vary = _parse_vary(args.vary)
    fixed = _parse_assignments(args.param)
    table = grid_table(bias_set, vary, fixed=fixed or None)
    if args.format == "csv":
        sys.stdout.write(table.to_csv())
    elif args.format == "json":
        _print_json(table.to_json())
    else:
        rows = [[""] + [f"{v:g}" for v in table.col_values]]
        for value, row in zip(table.row_values, table.values):
            rows.append([f"{value:g}"] + [f"{cell:.6f}" for cell in row])
        print(f"rows: {table.row_name}, columns: {table.col_name}")
        print(_format_table(rows))
    return 0


def _cmd_curve(args: argparse.Namespace) -> int:
    import numpy as np

    clauses = _split_outside_parens(args.bias_sets, ",")
    bias_sets = [parse_bias_string(c) for c in clauses]
    if not (args.points >= 2 and 0 < args.rr_min < args.rr_max < math.inf):
        raise ParseError("need finite 0 < rr-min < rr-max and at least 2 points")
    if args.points > MAX_CURVE_POINTS:
        raise SizeLimitExceeded(f"{args.points} points exceed {MAX_CURVE_POINTS}")
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
        print("rr,biases,evalue")
        for p in points:
            print(f"{p.rr:g},{p.biases},{p.evalue:g}")
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
    p_verify.add_argument("--structure", choices=_STRUCTURE_NAMES, required=True)
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
        return args.func(args)
    except (BiasAnalysisError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
