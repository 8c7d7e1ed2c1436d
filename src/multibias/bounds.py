"""Evaluating multiplicative bounds on the ratio of observed to true risk ratio."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from .biases import BiasSet
from .errors import DomainError, MissingParameter, ParseError, SizeLimitExceeded, UnknownParameter

if TYPE_CHECKING:
    import numpy as np


# Largest grid_table, in cells; an array of this many cells takes 8 MB.
MAX_GRID_CELLS = 1_000_000


def g(a: float, b: float) -> float:
    """Joint bounding factor a*b/(a+b-1) of two finite parameters, each at least 1.

    Symmetric, between 1 and a*b, nondecreasing in both arguments, and equal
    to 1 exactly when either argument is 1.
    """
    if not (1.0 <= a < math.inf and 1.0 <= b < math.inf):
        raise DomainError(f"g is defined for finite arguments >= 1, got ({a}, {b})")
    return _g(a, b)


def _g(a, b):
    # a*b/(a+b-1) rearranged so that no intermediate overflows; in this
    # form rounding keeps the result nondecreasing in a
    return b / (1.0 + (b - 1.0) / a)


def _product(terms: tuple[tuple[str, ...], ...], values: Mapping[str, Any]):
    """The bound: the product of the terms' factors, taken in order.

    Plain arithmetic, so float values give a float and broadcastable arrays
    give the bound at every combination, each element computed exactly as
    the float path would.
    """
    out = 1.0
    for term in terms:
        if len(term) == 2:
            out = out * _g(values[term[0]], values[term[1]])
        else:
            out = out * values[term[0]]
    return out


def _validated(bias_set: BiasSet, values: Mapping[str, Any]) -> dict[str, float]:
    names = bias_set.parameter_names()
    expected = ", ".join(names)
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise UnknownParameter(
            f"unknown parameter(s) {', '.join(unknown)}; expected: {expected}"
        )
    missing = [n for n in names if n not in values]
    if missing:
        raise MissingParameter(
            f"missing value for parameter(s) {', '.join(missing)}; expected: {expected}"
        )
    out: dict[str, float] = {}
    for name in names:
        value = float(values[name])
        if not 1.0 <= value < math.inf:
            raise _out_of_domain(name, values[name])
        out[name] = value
    return out


def _out_of_domain(name: str, value: Any) -> DomainError:
    return DomainError(f"parameter {name} must be a finite number at least 1, got {value}")


def multi_bound(bias_set: BiasSet, values: Mapping[str, float]) -> float:
    """Largest possible ratio of observed to true risk ratio under the set.

    ``values`` maps every parameter's argument name to a finite number >= 1.
    """
    bound = _product(bias_set.terms, _validated(bias_set, values))
    if bound == math.inf:
        raise DomainError("the bound overflows the floating-point range")
    return bound


@dataclass(frozen=True)
class GridTable:
    """The bound over a grid of two parameters, the others held fixed."""

    bias_set: BiasSet
    row_name: str
    col_name: str
    row_values: tuple[float, ...]
    col_values: tuple[float, ...]
    fixed: Mapping[str, float]
    values: np.ndarray  # shape (len(row_values), len(col_values))


def grid_table(
    bias_set: BiasSet,
    vary: Sequence[tuple[str, Sequence[float]]],
    fixed: Mapping[str, float] | None = None,
) -> GridTable:
    """Evaluate the bound over a two-parameter grid.

    ``vary`` holds two (name, values) pairs giving the row and the column
    parameter; ``fixed`` holds values for every remaining parameter.
    """
    import numpy as np

    if len(vary) != 2:
        raise ParseError("exactly two parameters must vary")
    (row_name, row_values), (col_name, col_values) = vary
    if row_name == col_name:
        raise ParseError("the two varying parameters must differ")
    rows = np.asarray(row_values, dtype=float)
    cols = np.asarray(col_values, dtype=float)
    if rows.ndim != 1 or cols.ndim != 1 or not rows.size or not cols.size:
        raise ParseError("grid values must be non-empty sequences")
    if rows.size * cols.size > MAX_GRID_CELLS:
        raise SizeLimitExceeded(
            f"a {rows.size} x {cols.size} grid exceeds {MAX_GRID_CELLS} cells"
        )
    fixed = dict(fixed or {})
    overlap = sorted({row_name, col_name} & set(fixed))
    if overlap:
        raise ParseError(f"parameter(s) {', '.join(overlap)} are both varied and fixed")
    # names and fixed values, with each axis's first value standing in
    checked = _validated(bias_set, {**fixed, row_name: rows[0], col_name: cols[0]})
    fixed = {k: v for k, v in checked.items() if k in fixed}
    for name, axis in ((row_name, rows), (col_name, cols)):
        bad = ~((axis >= 1.0) & (axis < math.inf))
        if bad.any():
            raise _out_of_domain(name, axis[bad][0])

    cells = {**fixed, row_name: rows[:, None], col_name: cols[None, :]}
    with np.errstate(over="ignore"):  # an overflow gives inf, rejected below
        table = _product(bias_set.terms, cells)
    if table.max() == math.inf:
        raise DomainError("the bound overflows the floating-point range in the grid")
    table.setflags(write=False)
    return GridTable(
        bias_set,
        row_name,
        col_name,
        tuple(rows.tolist()),
        tuple(cols.tolist()),
        fixed,
        table,
    )


@dataclass(frozen=True)
class ShiftedEstimate:
    """An estimate and interval after shifting toward the null by a bound."""

    point: float
    lo: float
    hi: float
    bound: float


def adjust_estimate(
    bias_set: BiasSet,
    values: Mapping[str, float],
    point: float,
    lo: float,
    hi: float,
) -> ShiftedEstimate:
    """Shift an observed risk ratio and its interval toward the null.

    The whole interval moves by the bound's factor: divided when the point
    estimate is at or above 1, multiplied when below.
    """
    for label, v in (("point", point), ("lo", lo), ("hi", hi)):
        if not 0 < v < math.inf:
            raise DomainError(f"{label} must be positive and finite, got {v}")
    if not lo <= point <= hi:
        raise DomainError("interval must satisfy lo <= point <= hi")
    bound = multi_bound(bias_set, values)
    if point >= 1.0:
        return ShiftedEstimate(point / bound, lo / bound, hi / bound, bound)
    return ShiftedEstimate(point * bound, lo * bound, hi * bound, bound)
