"""Multi-bias E-values.

The E-value of an estimate, given a bias set, is the single value that all
sensitivity parameters would have to take at once for the bound to reach the
estimate (or the confidence limit nearer the null). Setting every parameter
of a bound to x collapses the product of factors into the polynomial ratio
x**n / (2x - 1)**k, so computing an E-value means inverting that function.

One solver, _root, inverts it for a float or a whole array: in closed form
when k == 0 or n == 2k, and otherwise by Newton's method in log x, which
descends to the root from above in at most a dozen steps. Estimates and
curves share one solve path, _evalues, which adds the one overflow rule. A
ratio at or below 1 is raised or inverted to at least 1, and gets the
E-value 1 from the solver, not from a mask.

evalue_curve builds its points in C: _curve_points allocates them with
object.__new__ and stores each field's column through that field's slot
descriptor, so no point runs the frozen dataclass __init__.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from itertools import repeat
from typing import Sequence

from .biases import BiasSet, Scale
from .errors import DomainError, ParseError, SizeLimitExceeded

# Largest evalue_curve, in points over all bias sets. A curve holds 112
# bytes per point (tracemalloc, 100,000 points, CPython 3.11: the slotted
# CurvePoint, its two floats and its list entry), so about 11 MB at most.
MAX_CURVE_POINTS = 100_000

# 1.0 / x overflows for every positive x at or below this, and for no other
_UNINVERTIBLE = 1.0 / sys.float_info.max


@dataclass(frozen=True)
class EffectEstimate:
    """An observed ratio estimate with optional confidence limits."""

    point: float
    lo: float | None = None
    hi: float | None = None
    scale: Scale = Scale.RISK_RATIO
    rare_outcome: bool = False

    def __post_init__(self) -> None:
        for label, v in (("point", self.point), ("lo", self.lo), ("hi", self.hi)):
            if v is not None and not 0 < v < math.inf:
                raise DomainError(f"{label} must be positive and finite, got {v}")
        if self.lo is not None and self.lo > self.point:
            raise DomainError("lo must not exceed the point estimate")
        if self.hi is not None and self.hi < self.point:
            raise DomainError("hi must not be below the point estimate")
        if self.rare_outcome and self.scale is not Scale.ODDS_RATIO:
            raise ParseError("rare_outcome applies to odds ratios only")


def risk_ratio(point: float, lo: float | None = None, hi: float | None = None) -> EffectEstimate:
    """An estimate already on the risk ratio scale."""
    return EffectEstimate(point, lo, hi, Scale.RISK_RATIO)


def odds_ratio(
    point: float,
    lo: float | None = None,
    hi: float | None = None,
    *,
    rare_outcome: bool = False,
) -> EffectEstimate:
    """An odds ratio estimate; set rare_outcome when it approximates a RR."""
    return EffectEstimate(point, lo, hi, Scale.ODDS_RATIO, rare_outcome)


def to_risk_ratio(estimate: EffectEstimate) -> EffectEstimate:
    """Express an estimate on the risk ratio scale.

    Rare-outcome odds ratios pass through unchanged; other odds ratios are
    replaced by their square root, a conservative risk ratio. Anything else
    (hazard ratios in particular) is rejected.
    """
    if estimate.scale is Scale.RISK_RATIO:
        return estimate
    if estimate.scale is Scale.ODDS_RATIO:
        if estimate.rare_outcome:
            return replace(estimate, scale=Scale.RISK_RATIO, rare_outcome=False)
        return EffectEstimate(
            math.sqrt(estimate.point),
            None if estimate.lo is None else math.sqrt(estimate.lo),
            None if estimate.hi is None else math.sqrt(estimate.hi),
            Scale.RISK_RATIO,
        )
    raise DomainError(
        f"cannot convert scale {estimate.scale!r} to a risk ratio; hazard "
        "ratios and other measures are not supported"
    )


@dataclass(frozen=True)
class EValuePolynomial:
    """The bound as a function of one shared parameter value.

    With every parameter equal to x the bound is x**n / (2x - 1)**k: each
    joint factor contributes x**2/(2x - 1), each lone risk ratio parameter
    x, and each lone odds ratio parameter x**2 via its square root.
    """

    n: int
    k: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.k < 0 or self.n < 2 * self.k:
            raise DomainError(
                f"polynomial ({self.n}, {self.k}) is not nondecreasing for x >= 1"
            )

    def value(self, x: float) -> float:
        """x**n / (2x - 1)**k at a finite x >= 1; DomainError beyond the float range.

        Taken as k joint factors x / (2 - 1/x) and n - 2k lone x, each at
        least 1: none overflows unless the value does.
        """
        if not 1.0 <= x < math.inf:
            raise DomainError(f"x must be a finite number at least 1, got {x}")
        try:
            value = (x / (2.0 - 1.0 / x)) ** self.k * x ** (self.n - 2 * self.k)
        except OverflowError:
            value = math.inf
        if value == math.inf:
            raise DomainError("the polynomial's value exceeds the floating-point range")
        return value


def evalue_polynomial(bias_set: BiasSet) -> EValuePolynomial:
    """Polynomial whose inverse at a bias ratio gives the E-value."""
    return EValuePolynomial(*bias_set.polynomial)


def solve_polynomial(polynomial: EValuePolynomial, target: float) -> float:
    """The x >= 1 with polynomial.value(x) == target, for finite target >= 1.

    Closed forms solve k == 0 and n == 2k, and Newton's method the rest
    (see _root). The root is within 1e-13 relative of the exact one, so
    the residual satisfies |f(x) - target| <= 1e-9 * target.
    """
    if not 1.0 <= target < math.inf:
        raise DomainError(f"target must be a finite number at least 1, got {target}")
    if target == 1.0:
        return 1.0
    return _evalues(polynomial.n, polynomial.k, target, math, bool)


def _evalues(n: int, k: int, ratios, m, any_):
    """The roots _root finds at ratios >= 1; DomainError if one is inf."""
    x, _ = _root(n, k, ratios, m, any_)
    if any_(x == math.inf):
        raise DomainError("an E-value exceeds the floating-point range")
    return x


# Newton's method takes at most 12 steps for any (n, k) a bias set can have,
# and 15 for any k <= 6, n <= 20, over targets from 1 + 1e-15 to 1e300;
# the cap only bounds a loop that rounding might keep alive
_MAX_STEPS = 50
_LOG2 = math.log(2.0)


def _root(n: int, k: int, t, m, moving):
    """The root x >= 1 of x**n / (2x - 1)**k == t, and the Newton steps taken.

    t is a float >= 1 with m = math and moving = bool, or an array of them
    with m = numpy and moving = numpy.any. Plain arithmetic, with log, exp,
    log1p, expm1 and sqrt taken from m, so each element of an array takes
    the steps the float path takes. The closed forms take 0 steps.
    """
    if k == 0:
        return t ** (1.0 / n), 0
    if n == 2 * k:
        # x**2 / (2x - 1) == T with T = t**(1/k), so x = T + sqrt(T**2 - T);
        # T - 1 is formed directly, keeping its digits when t is near 1
        t1 = m.expm1(m.log1p(t - 1.0) / k)
        return 1.0 + t1 + m.sqrt(1.0 + t1) * m.sqrt(t1), 0
    # Newton in u = log x on F(u) = n u - k log(2 e**u - 1) - log t, written
    # with w = 1 - 1/x as (n - k) u - k log1p(w) - log t. F is increasing
    # and convex for u >= 0 (its slope there is at least n - 2k >= 1), and
    # F(u0) >= 0 because 2 e**u - 1 <= 2 e**u, so the steps descend to the
    # root from above without overshooting; they stop when none moves u.
    log_t = m.log(t)
    u = (log_t + k * _LOG2) / (n - k)
    for steps in range(1, _MAX_STEPS + 1):
        w = -m.expm1(-u)
        f = (n - k) * u - k * m.log1p(w) - log_t
        step = f / ((n - k) - k * (1.0 - w) / (1.0 + w))
        last, u = u, u - 0.5 * (step + abs(step))  # a step of max(step, 0)
        if not moving(u < last):
            break
    return m.exp(u), steps


@dataclass(frozen=True)
class EValueResult:
    """E-values for an estimate and for the interval limit nearer the null."""

    bias_set: BiasSet
    estimate: EffectEstimate  # risk ratio scale, original direction
    true_value: float
    polynomial: EValuePolynomial
    evalue_point: float
    evalue_lo: float | None  # None when no E-value is reported for that side
    evalue_hi: float | None
    parameters: tuple[str, ...]  # names the shared parameter value refers to


def multi_evalue(
    bias_set: BiasSet, estimate: EffectEstimate, true_value: float = 1.0
) -> EValueResult:
    """Smallest shared parameter value able to explain away an estimate.

    Estimates below 1 are inverted first (together with their interval), so
    the result always refers to bias pushing the estimate away from
    true_value toward larger ratios. Only the confidence limit nearer the
    null receives an E-value; the far side is reported as None. Targets at
    or below 1 need no bias at all and get an E-value of 1.
    """
    if not 0 < true_value < math.inf:
        raise DomainError(f"true_value must be positive and finite, got {true_value}")
    rr = to_risk_ratio(estimate)
    poly = evalue_polynomial(bias_set)
    inverted = rr.point < 1.0
    if inverted:
        # checked first, as evalue_curve does; hi >= point, so its inverse
        # is finite whenever the point's is
        if rr.point <= _UNINVERTIBLE:
            raise DomainError("a risk ratio's inverse exceeds the floating-point range")
        point = 1.0 / rr.point
        near = None if rr.hi is None else 1.0 / rr.hi
    else:
        point = rr.point
        near = rr.lo
    target = point / true_value
    if target == math.inf:  # near <= point, so near / true_value is finite
        raise DomainError(
            f"the estimate's ratio to the true value, {point:g} / {true_value:g}, "
            "exceeds the floating-point range"
        )
    evalue_point = solve_polynomial(poly, max(target, 1.0))
    evalue_near = None if near is None else solve_polynomial(poly, max(near / true_value, 1.0))
    return EValueResult(
        bias_set=bias_set,
        estimate=rr,
        true_value=true_value,
        polynomial=poly,
        evalue_point=evalue_point,
        evalue_lo=None if inverted else evalue_near,
        evalue_hi=evalue_near if inverted else None,
        parameters=tuple(p.evalue_name for p in bias_set.parameters),
    )


@dataclass(frozen=True, slots=True)
class CurvePoint:
    """One point of an E-value curve."""

    rr: float
    biases: str
    evalue: float


# each field's slot descriptor, in field order; its __set__ bypasses the
# frozen __setattr__
_POINT_SLOTS = tuple(vars(CurvePoint)[f.name] for f in fields(CurvePoint))


def _curve_points(rr: list[float], label: str, evalues: list[float]) -> list[CurvePoint]:
    """CurvePoint(r, label, e) for each r, e of rr and evalues, without __init__."""
    points = list(map(object.__new__, repeat(CurvePoint, len(rr))))
    for slot, column in zip(_POINT_SLOTS, (rr, repeat(label), evalues)):
        deque(map(slot.__set__, points, column), maxlen=0)
    return points


def evalue_curve(
    bias_sets: Sequence[BiasSet], rr_values: Sequence[float]
) -> list[CurvePoint]:
    """Point E-values for each bias set across a range of risk ratios.

    Each point equals multi_evalue(bias_set, risk_ratio(rr)).evalue_point
    to within 1e-12 relative (measured: 15 ulps from 1e-6 to 1e6, 340
    beyond, where numpy's log and exp round differently from math's) and
    is exactly 1 at rr == 1; each bias set's ratios are solved as one array.
    """
    import numpy as np

    rr = np.asarray(rr_values, dtype=float)
    if rr.ndim != 1:
        raise ParseError("risk ratios must be a one-dimensional sequence")
    if len(bias_sets) * rr.size > MAX_CURVE_POINTS:
        raise SizeLimitExceeded(
            f"{len(bias_sets)} curves of {rr.size} points exceed "
            f"{MAX_CURVE_POINTS} points"
        )
    bad = ~((rr > 0.0) & (rr < math.inf))
    if bad.any():
        raise DomainError(f"risk ratios must be positive and finite, got {rr[bad][0]}")
    # protective ratios are inverted, as multi_evalue does; checked first,
    # so that an overflowing inverse raises no numpy warning
    if rr.min(initial=1.0) <= _UNINVERTIBLE:
        raise DomainError("a risk ratio's inverse exceeds the floating-point range")
    ratios = np.maximum(rr, 1.0 / rr)
    rr_list = rr.tolist()
    points: list[CurvePoint] = []
    for bias_set in bias_sets:
        n, k = bias_set.polynomial
        # only the (2, 1) root, about 2 * ratio, can overflow; it becomes
        # inf, which _evalues rejects
        with np.errstate(over="ignore") if (n, k) == (2, 1) else nullcontext():
            evalues = _evalues(n, k, ratios, np, np.any)
        points += _curve_points(rr_list, bias_set.label, evalues.tolist())
    return points
