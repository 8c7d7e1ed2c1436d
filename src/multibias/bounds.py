"""Evaluating multiplicative bounds on the ratio of observed to true risk ratio."""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from .biases import BiasSet, _require_bias_set
from .errors import DomainError, MissingParameter, ParseError, SizeLimitExceeded, UnknownParameter
from .errors import _numpy, _read_float, _read_floats, _record, _shown

if TYPE_CHECKING:
    import numpy as np


# Largest grid_table, in cells; an array of this many cells takes 8 MB.
MAX_GRID_CELLS = 1_000_000

_OVERFLOW = "the bound overflows the floating-point range"


def g(a: float, b: float) -> float:
    """Joint bounding factor a*b/(a+b-1) of two finite parameters, each at least 1.

    Symmetric, between 1 and a*b, nondecreasing in both arguments, and equal
    to 1 exactly when either argument is 1.
    """
    return _g(_read_float(a, "a"), _read_float(b, "b"))


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
    _require_bias_set(bias_set)
    # BENCH_ablation.json: without this pre-test library_scalar loses 6.4% throughput
    if type(values) is not dict and not isinstance(values, Mapping):
        raise _mapping_error("values", values)
    names = bias_set.parameter_names()
    # names are checked before any value, so a wrong name is what gets reported
    if len(values) != len(names):
        raise _name_error(names, values)
    for name in names:
        if name not in values:
            raise _name_error(names, values)
    out: dict[str, float] = {}
    for name in names:
        value = values[name]
        # BENCH_ablation.json: without this pre-test library_scalar loses 12.1% throughput
        if not (type(value) is float and 1.0 <= value < math.inf):
            value = _read_float(value, f"parameter {name}")
        out[name] = value
    return out


def _mapping_error(label: str, values) -> ParseError:
    """The error for parameter values given in something other than a Mapping."""
    return ParseError(
        f"{label} must be a mapping of parameter names to values, not {type(values).__name__}"
    )


def _name_error(
    names: tuple[str, ...], values: Mapping[str, Any]
) -> UnknownParameter | MissingParameter:
    """The error for a mapping whose keys are not exactly ``names``; keys quoted by str()."""
    expected = ", ".join(names)
    unknown = sorted({str(key) for key in set(values) - set(names)})
    if unknown:
        return UnknownParameter(
            f"unknown parameter(s) {', '.join(unknown)}; expected: {expected}"
        )
    missing = [n for n in names if n not in values]
    return MissingParameter(
        f"missing value for parameter(s) {', '.join(missing)}; expected: {expected}"
    )


def multi_bound(bias_set: BiasSet, values: Mapping[str, float]) -> float:
    """Largest possible ratio of observed to true risk ratio under the set.

    ``values`` maps every parameter's argument name to a finite number >= 1.
    """
    values = _validated(bias_set, values)  # before .terms, which no other type has
    bound = _product(bias_set.terms, values)
    if bound == math.inf:
        raise DomainError(_OVERFLOW)
    return bound


@dataclass(frozen=True, eq=False)
class GridTable:
    """The bound over a grid of two parameters, the others held fixed; equal only to itself."""

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
    np = _numpy()
    (row_name, rows), (col_name, cols), fixed = _checked_grid(bias_set, vary, fixed, _read_axis)
    cells = {**fixed, row_name: rows[:, None], col_name: cols[None, :]}
    with np.errstate(over="ignore"):  # an overflow gives inf, rejected below
        table = _product(bias_set.terms, cells)
    if table.max() == math.inf:
        raise DomainError(_OVERFLOW)
    table.setflags(write=False)
    return GridTable(
        bias_set, row_name, col_name, tuple(rows.tolist()), tuple(cols.tolist()), fixed, table
    )


def _read_axis(values):
    """An axis as grid_table reads it: _read_floats, one-dimensional and non-empty."""
    floats, given = _read_floats(values)
    if floats.ndim != 1 or not floats.size:
        raise ParseError("grid values must be non-empty sequences")
    return floats, given.tolist()


def _checked_grid(bias_set: BiasSet, vary, fixed, read):
    """A grid's two axes, each as (name, values), and its fixed values.

    Checks a sequence of two axes with distinct names, each read by
    ``read`` into its values and the list of values as given; at most
    MAX_GRID_CELLS cells; fixed values in a Mapping, or None for none; no
    parameter both varied and fixed; the bias set, the names and fixed
    values, each axis's first given value standing in for the axis; and
    then each given value.
    """
    if not hasattr(type(vary), "__len__"):  # an iterator
        raise ParseError(f"vary must be a sequence of two pairs, got {_shown(vary)}")
    if len(vary) != 2:
        raise ParseError("exactly two parameters must vary")
    try:
        (row_name, row_values), (col_name, col_values) = vary
    except (TypeError, ValueError):
        raise ParseError("vary must be two (name, values) pairs") from None
    if row_name == col_name:
        raise ParseError("the two varying parameters must differ")
    (rows, row_given), (cols, col_given) = read(row_values), read(col_values)
    if len(rows) * len(cols) > MAX_GRID_CELLS:
        raise SizeLimitExceeded(
            f"a {len(rows)} x {len(cols)} grid exceeds {MAX_GRID_CELLS} cells"
        )
    if fixed is not None and not isinstance(fixed, Mapping):
        raise _mapping_error("fixed", fixed)
    fixed = dict(fixed or {})
    overlap = sorted({row_name, col_name} & set(fixed))
    if overlap:
        raise ParseError(f"parameter(s) {', '.join(overlap)} are both varied and fixed")
    checked = _validated(bias_set, {**fixed, row_name: row_given[0], col_name: col_given[0]})
    for name, given in ((row_name, row_given), (col_name, col_given)):
        for value in given:
            # BENCH_ablation.json: without this pre-test sweep loses 7.7% throughput
            if not (type(value) is float and 1.0 <= value < math.inf):
                _read_float(value, f"parameter {name}")
    return (row_name, rows), (col_name, cols), {k: v for k, v in checked.items() if k in fixed}


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
    # BENCH_ablation.json: without this pre-test library_scalar loses 8.5% throughput
    if not (type(point) is type(lo) is type(hi) is float and 0.0 < lo <= point <= hi < math.inf):
        point, lo, hi = (
            _read_float(v, label, positive=True)
            for label, v in (("point", point), ("lo", lo), ("hi", hi))
        )
        if not lo <= point <= hi:
            raise DomainError("interval must satisfy lo <= point <= hi")
    bound = multi_bound(bias_set, values)
    if point >= 1.0:
        point, lo, hi = point / bound, lo / bound, hi / bound
    else:
        point, lo, hi = point * bound, lo * bound, hi * bound
    # the shift keeps lo <= point <= hi, so the limits show any over- or underflow
    if not (lo > 0.0 and hi < math.inf):
        raise DomainError("the shifted interval leaves the floating-point range")
    return _record(ShiftedEstimate, point=point, lo=lo, hi=hi, bound=bound)
