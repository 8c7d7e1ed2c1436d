"""Seeded inputs for the four workloads.

Each workload draws from a ``random.Random`` seeded with the workload name and
``--seed`` (the oracle takes world seeds counting up from ``--seed``), so a
seed always gives the same op stream, and no draw depends on the library
under test. Ops come in blocks of fixed composition: 20 CLI calls in fixed
proportions, 50 scalar studies, 70 worlds round-robin over the structures,
and 32 sweep calls of fixed sizes. A run stops at a block boundary, so it has
the same mix whatever the seed and the speed of the machine.

Values are drawn from ranges an analyst would use: sensitivity parameters
log-uniform in [1, 20], estimates between 0.1 and 10 with realistic interval
widths. Nothing is added or left out to steer around known defects.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import Iterator, NamedTuple

import reference as ref

STRUCTURE_NAMES = (
    "confounding",
    "selection",
    "selection_selected",
    "outcome_misclassification",
    "result1",
    "result2",
    "result3",
)


class ScalarOp(NamedTuple):
    decl: tuple
    values: tuple[tuple[str, float], ...]
    scale: str  # "RR" or "OR"
    rare: bool  # an odds ratio of a rare outcome, read as a risk ratio
    point: float
    lo: float
    hi: float
    true_value: float


class GridOp(NamedTuple):
    decl: tuple
    row: tuple[str, float, int]  # name, stop, count: values linspace(1, stop, count)
    col: tuple[str, float, int]
    fixed: tuple[tuple[str, float], ...]


class CurveOp(NamedTuple):
    decls: tuple[tuple, ...]
    rr: tuple[float, float, int]  # linspace(start, stop, count)


class OracleOp(NamedTuple):
    structure: str
    seed: int


class CliOp(NamedTuple):
    command: str
    argv: tuple[str, ...]
    decls: tuple[tuple, ...]  # declarations behind --biases / --bias-sets


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _ladder(count: int, lo: float, hi: float) -> list[int]:
    """The midpoints of ``count`` equal strata of the log-uniform law on [lo, hi]."""
    span = math.log(hi) - math.log(lo)
    return [round(math.exp(math.log(lo) + (i + 0.5) / count * span)) for i in range(count)]


# The sizes of one sweep block: a fixed stratified design over the
# log-uniform ranges, with fixed pairings, so every block carries the same
# work and the seed changes only the declarations, values and order.
_AXES = _ladder(16, 5, 300)
GRID_SHAPES = [(_AXES[i], _AXES[(7 * i + 3) % 16]) for i in range(16)]
CURVE_SHAPES = list(zip([1, 3, 2, 4, 4, 2, 3, 1, 2, 4, 1, 3, 3, 1, 4, 2], _ladder(16, 15, 2000)))


def _declaration(rng: random.Random, pool: list[tuple] | None = None) -> tuple:
    """A declaration from ``pool``, with confounding (if any) at a random position."""
    decl = list(rng.choice(pool or ref.DECLARATIONS))
    if ref.CONFOUNDING in decl and len(decl) > 1:
        decl.remove(ref.CONFOUNDING)
        decl.insert(rng.randrange(len(decl) + 1), ref.CONFOUNDING)
    return tuple(decl)


_GRIDDABLE = [d for d in ref.DECLARATIONS if len(ref.names(d)) >= 2]
_CLOSED = [d for d in ref.DECLARATIONS if ref.is_closed_form(ref.polynomial(d))]
_BISECT = [d for d in ref.DECLARATIONS if not ref.is_closed_form(ref.polynomial(d))]


def _values(rng: random.Random, names: list[str]) -> tuple[tuple[str, float], ...]:
    return tuple((n, round(_loguniform(rng, 1.0, 20.0), 4)) for n in names)


def _estimate(rng: random.Random) -> tuple[float, float, float]:
    """Point and 95% limits: causative in [1.1, 10] or protective in [0.1, 0.9]."""
    if rng.random() < 0.3:
        point = _loguniform(rng, 0.1, 0.9)
    else:
        point = _loguniform(rng, 1.1, 10.0)
    half = 1.96 * rng.uniform(0.05, 0.5)
    return round(point, 4), round(point * math.exp(-half), 4), round(point * math.exp(half), 4)


def _true_value(rng: random.Random) -> float:
    return 1.0 if rng.random() < 0.6 else round(_loguniform(rng, 0.5, 2.0), 3)


def _scalar_op(rng: random.Random) -> ScalarOp:
    decl = _declaration(rng)
    scale, rare = rng.choice((("RR", False), ("RR", False), ("OR", True), ("OR", False)))
    point, lo, hi = _estimate(rng)
    return ScalarOp(decl, _values(rng, ref.names(decl)), scale, rare, point, lo, hi, _true_value(rng))


def _grid_op(rng: random.Random, rows: int, cols: int) -> GridOp:
    decl = _declaration(rng, _GRIDDABLE)
    names = ref.names(decl)
    row, col = rng.sample(names, 2)
    fixed = _values(rng, [n for n in names if n not in (row, col)])
    row_stop, col_stop = (round(_loguniform(rng, 2.0, 20.0), 3) for _ in range(2))
    return GridOp(decl, (row, row_stop, rows), (col, col_stop, cols), fixed)


def _curve_rr(rng: random.Random, points: int) -> tuple[float, float, int]:
    if rng.random() < 0.2:
        return round(rng.uniform(0.05, 0.3), 3), round(rng.uniform(0.5, 0.95), 3), points
    return round(rng.uniform(1.0, 1.5), 3), round(rng.uniform(3.0, 20.0), 3), points


def _curve_decls(rng: random.Random, count: int, first_closed: bool) -> tuple[tuple, ...]:
    """``count`` declarations alternating closed-form and bisection polynomials."""
    return tuple(
        _declaration(rng, _CLOSED if (i % 2 == 0) == first_closed else _BISECT) for i in range(count)
    )


def scalar_blocks(rng: random.Random) -> Iterator[list]:
    while True:
        yield [_scalar_op(rng) for _ in range(50)]


def sweep_blocks(rng: random.Random) -> Iterator[list]:
    """The 16 grids of GRID_SHAPES and the 16 curves of CURVE_SHAPES, shuffled."""
    while True:
        block = [_grid_op(rng, r, c) for r, c in GRID_SHAPES]
        block += [
            CurveOp(_curve_decls(rng, sets, j % 2 == 0), _curve_rr(rng, points))
            for j, (sets, points) in enumerate(CURVE_SHAPES)
        ]
        rng.shuffle(block)
        yield block


def oracle_blocks(seed: int) -> Iterator[list]:
    """Round-robin over the structures, world seeds consecutive from ``seed``."""
    i = seed
    while True:
        block = []
        for _ in range(10):
            for name in STRUCTURE_NAMES:
                block.append(OracleOp(name, i))
                i += 1
        yield block


def _clause_text(clause: tuple, rng: random.Random) -> str:
    """One clause of the CLI's bias grammar, options in random order."""
    if clause[0] == "confounding":
        return "confounding"
    if clause[0] == "selection":
        _, population, direction, s_equals_u = clause
        opts = [population] if population == "selected" or rng.random() < 0.5 else []
        opts += [f"{direction}_risk"] * (direction is not None) + ["s_equals_u"] * s_equals_u
    else:
        _, variable, rare_outcome, rare_exposure = clause
        opts = [variable] + ["rare_outcome"] * rare_outcome + ["rare_exposure"] * rare_exposure
    rng.shuffle(opts)
    sep = rng.choice((", ", ","))
    return f"{clause[0]}({sep.join(opts)})" if opts else clause[0]


def _bias_text(decl: tuple, rng: random.Random) -> str:
    return rng.choice((" + ", "+")).join(_clause_text(c, rng) for c in decl)


def _cli_op(rng: random.Random, command: str) -> CliOp:
    if command == "verify":
        argv = ("verify", "--structure", rng.choice(STRUCTURE_NAMES),
                "--worlds", str(rng.randint(1, 20)), "--seed", str(rng.randrange(10**6)))
        return CliOp(command, argv, ())
    if command == "curve":
        decls = tuple(_declaration(rng) for _ in range(rng.randint(1, 2)))
        lo, hi, points = _curve_rr(rng, rng.randint(5, 30))
        argv = ("curve", "--bias-sets", ",".join(_bias_text(d, rng) for d in decls),
                "--rr-min", repr(lo), "--rr-max", repr(hi), "--points", str(points),
                "--format", rng.choice(("text", "csv", "json")))
        return CliOp(command, argv, decls)
    grid = _grid_op(rng, rng.randint(3, 10), rng.randint(3, 10)) if command == "grid" else None
    decl = grid.decl if grid else _declaration(rng)
    argv = (command, "--biases", _bias_text(decl, rng))
    if command == "bound":
        argv += tuple(a for n, v in _values(rng, ref.names(decl)) for a in ("--param", f"{n}={v!r}"))
        argv += ("--format", rng.choice(("text", "json")))
    elif command == "evalue":
        point, lo, hi = _estimate(rng)
        argv += ("--est", repr(point), "--lo", repr(lo), "--hi", repr(hi))
        scale, rare = rng.choice((("RR", False), ("OR", True), ("OR", False)))
        argv += ("--measure", scale) + ("--rare",) * rare
        true_value = _true_value(rng)
        argv += ("--true", repr(true_value)) * (true_value != 1.0)
        argv += ("--format", rng.choice(("text", "json")))
    elif command == "summary":
        argv += ("--latex",) * (rng.random() < 0.5)
    else:
        for name, stop, count in (grid.row, grid.col):
            if rng.random() < 0.5:
                step = round((stop - 1.0) / (count - 1), 3)
                argv += ("--vary", f"{name}=1:{round(1.0 + step * (count - 1), 3)!r}:{step!r}")
            else:
                values = sorted({round(_loguniform(rng, 1.0, stop), 2) for _ in range(count)})
                argv += ("--vary", f"{name}={','.join(repr(v) for v in values)}")
        argv += tuple(a for n, v in grid.fixed for a in ("--param", f"{n}={v!r}"))
        argv += ("--format", rng.choice(("text", "csv", "json")))
    return CliOp(command, argv, (decl,))


# per block of 20 calls: 70% one-shot calls, 30% small numpy-bound calls
CLI_BLOCK = ["bound"] * 5 + ["evalue"] * 5 + ["summary"] * 4 + ["grid", "curve", "verify"] * 2


def cli_blocks(rng: random.Random) -> Iterator[list]:
    while True:
        commands = list(CLI_BLOCK)
        rng.shuffle(commands)
        yield [_cli_op(rng, c) for c in commands]


def blocks(workload: str, seed: int) -> Iterator[list]:
    if workload == "oracle_verify":
        return oracle_blocks(seed)
    rng = random.Random(f"{workload}/{seed}")
    return {"cli_oneshot": cli_blocks, "library_scalar": scalar_blocks, "sweep": sweep_blocks}[
        workload
    ](rng)


def _variant(decl: tuple) -> str:
    """Short code of a declaration, confounding first: e.g. "C-Sinc-Mo"."""
    codes = []
    for c in sorted(decl, key=lambda c: c[0] != "confounding"):
        if c[0] == "confounding":
            codes.append("C")
        elif c[0] == "selection":
            codes.append("S" + {"selected": "sel"}.get(c[1], {"increased": "inc", "decreased": "dec"}.get(c[2], "")) + "u" * c[3])
        else:
            codes.append("Mo" if c[1] == "outcome" else "Mer" if c[3] else "Me")
    return "-".join(codes)


class Mix:
    """What the generator produced: the counts and sizes a shifted mix would show in."""

    def __init__(self) -> None:
        self.counts: dict[str, Counter] = {
            k: Counter() for k in ("command", "polynomial", "declaration", "structure", "format")
        }
        self.sizes: dict[str, list[int]] = {"grid_cells": [], "curve_points": []}
        self.ops = 0

    def add(self, ops: list) -> None:
        counts = self.counts
        self.ops += len(ops)
        for op in ops:
            decls: tuple = ()
            if isinstance(op, ScalarOp):
                decls = (op.decl,)
                counts["format"][op.scale + "-rare" * op.rare] += 1
            elif isinstance(op, GridOp):
                decls = (op.decl,)
                counts["command"]["grid"] += 1
                self.sizes["grid_cells"].append(op.row[2] * op.col[2])
            elif isinstance(op, CurveOp):
                decls = op.decls
                counts["command"]["curve"] += 1
                self.sizes["curve_points"].append(len(op.decls) * op.rr[2])
            elif isinstance(op, OracleOp):
                counts["structure"][op.structure] += 1
            else:
                decls = op.decls
                counts["command"][op.command] += 1
                if "--format" in op.argv:
                    counts["format"][op.argv[op.argv.index("--format") + 1]] += 1
                if op.command == "verify":
                    counts["structure"][op.argv[2]] += 1
            for decl in decls:
                counts["polynomial"]["n%d_k%d" % ref.polynomial(decl)] += 1
                counts["declaration"][_variant(decl)] += 1

    def summary(self) -> dict:
        out: dict = {k: dict(sorted(v.items())) for k, v in self.counts.items() if v}
        out["ops"] = self.ops
        for name, values in self.sizes.items():
            if values:
                s = sorted(values)
                out[name + "_min_q1_med_q3_max"] = [s[int(q * (len(s) - 1))] for q in (0, 0.25, 0.5, 0.75, 1)]
        return out
