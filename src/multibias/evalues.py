"""Multi-bias E-values.

The E-value of an estimate, given a bias set, is the single value that all
sensitivity parameters would have to take at once for the bound to reach the
estimate (or the confidence limit nearer the null). Setting every parameter
of a bound to x collapses the product of factors into the polynomial ratio
x**n / (2x - 1)**k, so computing an E-value means inverting that function.
Both are fixed by the set: evalue_polynomial returns one shared
EValuePolynomial per (n, k), at most 15 of them, and multi_evalue reports
the names each set holds, one tuple per set.

One solver, _root, inverts it for a float or a whole array: in closed form
when k == 0 or n == 2k, within 4 ulps of the exact root, and otherwise by
Newton's method in log x. Newton starts at the least of three bounds above
the root, one of them tight near a ratio of 1, and stops once a step proves
the root within half an ulp: at most 4 steps for any bias set's polynomial.
Estimates and curves both call _root, which holds the one overflow rule:
only the (2, 1) root, about twice the ratio, can exceed the float range,
and _root raises DomainError when it does. A ratio at or below 1 is raised
or inverted to at least 1, and gets the E-value 1 from the solver, not from
a mask.

The records of the scalar path skip the frozen dataclass __init__ (see
errors): multi_evalue builds its EValueResult, and to_risk_ratio its view of
an odds ratio, with errors._record. A CurvePoint is a named tuple, and
evalue_curve builds each bias set's points in one C-level pass, mapping
tuple.__new__ over the zipped (rr, label, evalue) columns: the tuples the
generated CurvePoint.__new__ would build, without a Python call per point.
It builds them with the cyclic collector paused, since a point stays tracked
but can be in no cycle (see evalue_curve); a collector the caller disabled
stays disabled, and other threads go without automatic collection for one
curve at most (22 to 38 ms at 100,000 points, on 2 cores).
EffectEstimate itself runs __init__, and its __post_init__ accepts the
common estimate (floats with 0 < lo <= point <= hi < inf, a Scale and a
bool rare_outcome set only on an odds ratio) in one test; any other
estimate has each given value read by errors._read_float.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache
from itertools import repeat
from typing import NamedTuple, Sequence

from .biases import BiasSet, Scale, _require_bias_set, _require_bias_sets
from .errors import DomainError, ParseError, SizeLimitExceeded, _as_int, _count, _domain_error
from .errors import _numpy, _read_float, _read_floats, _record, _shown, _type_error

# Largest evalue_curve, in points over all bias sets. A curve holds 128
# bytes per point (tracemalloc, 100,000 points, CPython 3.11: the CurvePoint
# tuple, its two floats and its list entry), so about 13 MB at most.
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
        point = self.point
        lo = point if self.lo is None else self.lo
        hi = point if self.hi is None else self.hi
        # BENCH_ablation.json: without this pre-test library_scalar loses 13.9% throughput
        if (
            type(point) is type(lo) is type(hi) is float
            and 0.0 < lo <= point <= hi < math.inf
            and type(self.scale) is Scale
            and (
                self.rare_outcome is False
                or (self.rare_outcome is True and self.scale is Scale.ODDS_RATIO)
            )
        ):
            return  # the common case, which every check below accepts unchanged
        for label, v in (("point", self.point), ("lo", self.lo), ("hi", self.hi)):
            # each given value is held as the float it reads as, so arithmetic sees a float
            if v is not None or label == "point":
                object.__setattr__(self, label, _read_float(v, label, positive=True))
        if self.lo is not None and self.lo > self.point:
            raise DomainError("lo must not exceed the point estimate")
        if self.hi is not None and self.hi < self.point:
            raise DomainError("hi must not be below the point estimate")
        try:  # a member or its value, "RR" or "OR", as the CLI reads --measure
            scale = Scale(self.scale)
        except (TypeError, ValueError):
            raise DomainError(
                f"cannot convert scale {self.scale!r} to a risk ratio; hazard "
                "ratios and other measures are not supported"
            ) from None
        object.__setattr__(self, "scale", scale)
        if not isinstance(self.rare_outcome, bool):
            raise ParseError(f"rare_outcome must be a bool, got {self.rare_outcome!r}")
        if self.rare_outcome and scale is not Scale.ODDS_RATIO:
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
    replaced by their square root, a conservative risk ratio. Every other
    measure (hazard ratios in particular) is rejected by EffectEstimate.
    """
    if not isinstance(estimate, EffectEstimate):
        made = "as risk_ratio and odds_ratio return"
        raise _type_error(estimate, EffectEstimate, "estimate", made)
    if estimate.scale is Scale.RISK_RATIO:
        return estimate
    point, lo, hi = estimate.point, estimate.lo, estimate.hi
    if not estimate.rare_outcome:  # square roots keep 0 < lo <= point <= hi < inf
        point = math.sqrt(point)
        lo = None if lo is None else math.sqrt(lo)
        hi = None if hi is None else math.sqrt(hi)
    return _record(
        EffectEstimate, point=point, lo=lo, hi=hi, scale=Scale.RISK_RATIO, rare_outcome=False
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
        n, k = _as_int(self.n), _as_int(self.k)  # a numpy integer is held as the equal int
        if n is None or k is None:
            raise DomainError(f"polynomial {_shown((self.n, self.k))} must have int degrees")
        if n < 1 or k < 0 or n < 2 * k:
            raise DomainError(f"polynomial {_shown((n, k))} is not nondecreasing for x >= 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)

    def value(self, x: float) -> float:
        """x**n / (2x - 1)**k at a finite x >= 1; DomainError beyond the float range.

        Taken as k joint factors x / (2 - 1/x) and n - 2k lone x, each at
        least 1: none overflows unless the value does.
        """
        x = _read_float(x, "x")
        try:
            value = (x / (2.0 - 1.0 / x)) ** self.k * x ** (self.n - 2 * self.k)
        except OverflowError:
            value = math.inf
        if value == math.inf:
            raise DomainError("the polynomial's value exceeds the floating-point range")
        return value


# an invalid (n, k) raises and is not stored, so this holds at most the 15
# polynomials the grammar's bias sets have
_shared_polynomial = cache(EValuePolynomial)


def evalue_polynomial(bias_set: BiasSet) -> EValuePolynomial:
    """Polynomial whose inverse at a bias ratio gives the E-value.

    Sets with the same ``(n, k)`` share one polynomial object.
    """
    _require_bias_set(bias_set)
    return _shared_polynomial(*bias_set.polynomial)


def solve_polynomial(polynomial: EValuePolynomial, target: float) -> float:
    """The x >= 1 with polynomial.value(x) == target, for finite target >= 1.

    Closed forms solve k == 0 and n == 2k, and Newton's method the rest
    (see _root). The root is within 1e-13 relative of the exact one, so
    the residual satisfies |f(x) - target| <= 1e-9 * target. A closed-form
    root is within a few ulps: measured over 951 targets from 1 + 2**-52
    to 7.3e299, at most 0 ulps at (1, 0), 0.5 at (2, 0) and (4, 0), 0.67
    at (3, 0), 1.00 at (2, 1), the polynomial of confounding alone, 1.79 at
    (4, 2), that of the paper's HIV example (confounding +
    selection(general, increased_risk)), and 3.39 at (6, 3). A Newton root
    is within half an ulp of log x, which exp turns into up to about
    log(x) / 2 ulps of x: over the same targets, at most 495.8 ulps at
    (3, 1), 386.6 at (4, 1), 249.0 at (5, 1), 241.0 at (5, 2), 260.4 at
    (6, 1), 144.7 at (6, 2), 233.5 at (7, 3) and 328.4 at (8, 3), each at a
    target above 1e200. DomainError if the root exceeds the float range,
    which only a (2, 1) target above about 9e307 does.
    """
    if not isinstance(polynomial, EValuePolynomial):
        made = "as evalue_polynomial returns"
        raise _type_error(polynomial, EValuePolynomial, "polynomial", made)
    # BENCH_ablation.json: without this pre-test library_scalar's latency_p50 rises 6.0%
    if not (type(target) is float and 1.0 <= target < math.inf):
        target = _read_float(target, "target")
    if target == 1.0:
        return 1.0
    return _root(polynomial.n, polynomial.k, target, math, bool)[0]


def _kth_root(t, k: int):
    """t ** (1 / k) for t >= 1, corrected by one Newton step where 1 / k is inexact.

    The rounded exponent alone puts t ** (1 / 3) up to 113 ulps off at large t.
    """
    r = t ** (1.0 / k)
    if k & (k - 1):
        r = r - (r - t / r ** (k - 1)) / k
    return r


# Newton's method takes at most 4 steps for any (n, k) a bias set can have,
# and 5 for any k <= 6, n <= 20, over targets from 1 + 1e-15 to 1e300 (7
# for (201, 100)). The cap only bounds a loop that rounding might keep
# alive; steps grow as tau nears rounding noise, to 12 at tau = 2.4e-16 for
# (200001, 100000) and 28 at 7e-18 for (2000001, 1000000)
_MAX_STEPS = 50
_LOG2 = math.log(2.0)
# log 1.5 - log 2 / 3: g(log 2) - g'(log 2) log 2, with g as in _root
_LOG2_TANGENT = math.log(1.5) - _LOG2 / 3.0


def _root(n: int, k: int, t, m, any_):
    """The root x >= 1 of x**n / (2x - 1)**k == t, and the Newton steps taken.

    t is a float >= 1 with m = math and any_ = bool, or an array of them
    with m = numpy and any_ = numpy.ndarray.any. Plain arithmetic, with
    log, exp, log1p, expm1 and sqrt taken from m, so each element of an
    array takes the steps the float path takes, give or take one where
    numpy's log and exp round differently from math's. The closed forms
    take 0 steps; Newton's method stops once every step is at most tau,
    which bounds the error of its last iterate below half an ulp.
    DomainError if a root is inf, which only the (2, 1) closed form gives.

    A closed form is within 0.5 ulps of the exact root at k == 0 with n a
    power of 2, 0.67 at (3, 0), 1.00 at (2, 1), 1.79 at (4, 2) and 3.39 at
    (6, 3) (measured in math and numpy, but 0.60 at (4, 0) in numpy, over
    the 951 targets of solve_polynomial).
    """
    if k == 0:
        return _kth_root(t, n), 0
    if n == 2 * k:
        # x**2 / (2x - 1) == T with T = t**(1/k), so x = T + sqrt(T**2 - T);
        # T - 1 is formed as (t - 1) / (1 + T + ... + T**(k - 1)), keeping
        # its digits when t is near 1, where a log1p and expm1 round trip
        # would put the root hundreds of ulps off
        t1 = t - 1.0
        if k == 2:
            t1 = t1 / (m.sqrt(t) + 1.0)
        elif k > 2:
            root, s = _kth_root(t, k), 1.0
            for _ in range(k - 1):  # 1 + T + ... + T**(k - 1), by Horner's rule
                s = 1.0 + root * s
            t1 = t1 / s
        x = 1.0 + t1 + m.sqrt(1.0 + t1) * m.sqrt(t1)
        if any_(x == math.inf):  # only the (2, 1) root, about 2t, can overflow
            raise DomainError("an E-value exceeds the floating-point range")
        return x, 0
    # Newton in u = log x on F(u) = (n - k) u - k g(u) - log t, where
    # g(u) = log(2 - e**-u) = log1p(w) with w = 1 - 1/x. For u >= 0, F's
    # slope n - 2k / (1 + w) lies in [n - 2k, n - k], at least 1, and
    # 0 < F'' = 2k e**-u / (2 - e**-u)**2 <= 2k. So F is increasing and
    # convex, and steps from any u0 >= 0 with F(u0) >= 0 descend to the
    # root u* without overshooting; a negative step comes only from
    # rounding next to u*, and is clamped to 0. A step s from u > u* ends
    # within F'' / (2 F'(u)) (u - u*)**2 of u*, and u - u* <= s (n - k) /
    # (n - 2k), so within C s**2 with C = k (n - k)**2 / (n - 2k)**3: the
    # loop stops once every step is at most tau, where C tau**2 == 2**-54.
    #
    # g is concave, so each of its tangents lies above it, and putting one
    # in place of g makes F linear and no larger: the root of that line has
    # F >= 0. u0 is the least of the roots for the tangents at u = inf
    # (g <= log 2), at u = 0 (g <= u, tight for t near 1, where u0 = 0
    # gives exactly 1) and at u = log 2 (g <= log 1.5 + (u - log 2) / 3,
    # between them), each at least 0.
    tau = 2.0**-27 / math.sqrt(k * (n - k) ** 2 / (n - 2 * k) ** 3)  # C tau**2 == 2**-54, C above
    log_t = m.log(t)
    u = (log_t + k * _LOG2) / (n - k)
    d = u - log_t / (n - 2 * k)
    u = u - 0.5 * (d + abs(d))  # the smaller of the two, as the step clamps
    d = u - (log_t + k * _LOG2_TANGENT) / (n - k - k / 3.0)
    u = u - 0.5 * (d + abs(d))
    for steps in range(1, _MAX_STEPS + 1):
        w = -m.expm1(-u)
        step = ((n - k) * u - k * m.log1p(w) - log_t) / (n - 2 * k / (1.0 + w))
        u = u - 0.5 * (step + abs(step))  # a step of max(step, 0)
        if not any_(step > tau):
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

    true_value is on the risk ratio scale: a non-rare odds ratio estimate
    is square-rooted, but true_value is not, nor is it inverted with a
    protective estimate. In the CLI, ``--est 0.7329 --true 0.6194`` gives
    3.83 (target 1 / 0.7329 / 0.6194) and ``--measure OR --est 4 --true 2``
    gives 1 (target sqrt(4) / 2).
    """
    # BENCH_ablation.json: without this pre-test library_scalar loses 5.8% throughput
    if not (type(true_value) is float and 0.0 < true_value < math.inf):
        true_value = _read_float(true_value, "true_value", positive=True)
    rr = to_risk_ratio(estimate)
    poly = evalue_polynomial(bias_set)
    inverted = rr.point < 1.0
    if inverted:
        # checked first, as evalue_curve does; hi >= point, so its inverse
        # is finite whenever the point's is
        _check_invertible(rr.point)
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
    return _record(
        EValueResult,
        bias_set=bias_set,
        estimate=rr,
        true_value=true_value,
        polynomial=poly,
        evalue_point=evalue_point,
        evalue_lo=None if inverted else evalue_near,
        evalue_hi=evalue_near if inverted else None,
        parameters=bias_set._evalue_names,
    )


# a dataclass as well, so dataclasses.replace, fields and asdict take a
# point; __new__, repr and equality stay the named tuple's
@dataclass(init=False, repr=False, eq=False)
class CurvePoint(NamedTuple):
    """One point of an E-value curve."""

    rr: float
    biases: str
    evalue: float


def evalue_curve(
    bias_sets: Sequence[BiasSet], rr_values: Sequence[float]
) -> list[CurvePoint]:
    """Point E-values for each bias set across a range of risk ratios.

    Each point is within 1e-13 relative of the exact root, as in
    solve_polynomial. It equals multi_evalue(bias_set,
    risk_ratio(rr)).evalue_point to within 1e-12 relative (measured on log
    grids of the grammar's 15 polynomials: 11 ulps from 1e-6 to 1e6, and 62
    ulps, under 2e-14 relative, on 6,001 ratios out to 1e-300 and 1e300,
    both at Newton polynomials, where numpy's log and exp round differently
    from math's) and is exactly 1 at rr == 1. At (1, 0), whose root is the
    ratio, and at (2, 1) and (4, 2), which take only sqrt, it equals that
    E-value bit for bit. Every closed form is within 4 ulps of the exact
    root, and every Newton root within the ulps solve_polynomial states,
    but 145.7 at (6, 2); a root past the float range is a DomainError.
    Each bias set's ratios are solved as one array. bias_sets is a sequence
    of BiasSet, and anything else a ParseError.

    The points are built with the cyclic garbage collector paused, from the
    first solve to the last point, and it is restored even when a solve
    raises. A CurvePoint, unlike a tuple of atoms, is never untracked, so
    every 700 live points would start a gen-0 pass, and the promotions of
    the points that survive start full collections of the caller's whole
    heap; yet a point holds two floats and a str, and can be in no cycle.
    The inputs are checked first, so a rejected input never pauses the
    collector, and a collector the caller disabled stays disabled. The pause
    saves only the collections during the call, not the walk of the points:
    a curve the caller keeps is walked by the gen-0 pass that the caller's
    next allocation starts, and its points then go through the older
    generations as usual. The collector is process-wide, so other threads
    run without automatic collection for one curve at most: 22 ms for four
    sets of 25,000 ratios, 38 ms for one Newton set of 100,000 (medians, 2
    cores, CPython 3.11). A gc.disable() that another thread makes during a
    curve is undone when the curve ends.
    """
    np = _numpy()
    _require_bias_sets(bias_sets)
    rr, given = _read_floats(rr_values)
    if rr.ndim != 1:
        raise ParseError("risk ratios must be a one-dimensional sequence")
    _check_curve_size(len(bias_sets), rr.size)
    bad = ~((rr > 0.0) & (rr < math.inf))
    if bad.any():
        raise _domain_error(given[bad][0], "risk ratios", positive=True)
    # protective ratios are inverted, as multi_evalue does; checked first,
    # so that an overflowing inverse raises no numpy warning
    _check_invertible(rr.min(initial=1.0))
    ratios = np.maximum(rr, 1.0 / rr)
    rr_list = rr.tolist()
    points: list[CurvePoint] = []
    import gc

    # BENCH_curve_gc.json: sweep +18.4% throughput, half deferred to a kept curve's gen-0 pass
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        # only the (2, 1) root, about 2 * ratio, can overflow; it becomes inf,
        # which _root rejects
        with np.errstate(over="ignore"):
            for bias_set in bias_sets:
                evalues = _root(*bias_set.polynomial, ratios, np, np.ndarray.any)[0].tolist()
                # CurvePoint(r, label, e) for each r, e, as the generated __new__ builds it;
                # BENCH_ablation.json: map(CurvePoint, ...) loses sweep 28.5% throughput
                column = zip(rr_list, repeat(bias_set.label), evalues)
                points += map(tuple.__new__, repeat(CurvePoint), column)
    finally:
        if was_enabled:
            gc.enable()
    return points


def _check_curve_size(curves: int, points: int) -> None:
    """SizeLimitExceeded if curves of points points exceed MAX_CURVE_POINTS."""
    if curves * points > MAX_CURVE_POINTS:
        size = "1 point" if points == 1 else f"{_count(points)} points"
        if curves == 1:
            shape = f"1 curve of {size} exceeds"
        else:
            shape = f"{curves} curves of {size} exceed"
        raise SizeLimitExceeded(f"{shape} {MAX_CURVE_POINTS} points")


def _check_invertible(smallest: float) -> None:
    """DomainError if 1 / smallest, for the smallest positive ratio, overflows."""
    if smallest <= _UNINVERTIBLE:
        raise DomainError("a risk ratio's inverse exceeds the floating-point range")
