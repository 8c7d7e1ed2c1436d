"""Multi-bias E-values.

The E-value of an estimate, given a bias set, is the single value that all
sensitivity parameters would have to take at once for the bound to reach the
estimate (or the confidence limit nearer the null). Setting every parameter
of a bound to x collapses the product of factors into the polynomial ratio
x**n / (2x - 1)**k, so computing an E-value means inverting that function.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

from .biases import BiasSet, Scale
from .errors import DomainError, SizeLimitExceeded

if TYPE_CHECKING:
    import numpy as np

# Largest evalue_curve, in points over all bias sets; each point is a
# CurvePoint object, so this also bounds the memory a curve holds.
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
            raise ValueError("lo must not exceed the point estimate")
        if self.hi is not None and self.hi < self.point:
            raise ValueError("hi must not be below the point estimate")
        if self.rare_outcome and self.scale is not Scale.ODDS_RATIO:
            raise ValueError("rare_outcome applies to odds ratios only")


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
        return x**self.n / (2.0 * x - 1.0) ** self.k


def evalue_polynomial(bias_set: BiasSet) -> EValuePolynomial:
    """Polynomial whose inverse at a bias ratio gives the E-value."""
    return EValuePolynomial(*bias_set.polynomial)


def solve_polynomial(polynomial: EValuePolynomial, target: float) -> float:
    """The x >= 1 with polynomial.value(x) == target, for finite target >= 1.

    The residual satisfies |f(x) - target| <= 1e-9 * target; closed forms
    are used for pure powers and for the single joint-factor case.
    """
    if not 1.0 <= target < math.inf:
        raise DomainError(f"target must be a finite number at least 1, got {target}")
    if target == 1.0:
        return 1.0
    if polynomial.k == 0:
        x = target ** (1.0 / polynomial.n)
    elif polynomial.n == 2 and polynomial.k == 1:
        x = target + math.sqrt(target) * math.sqrt(target - 1.0)
    else:
        x = _bisect(polynomial, target)
    if x == math.inf:
        raise DomainError(f"the E-value for {target} exceeds the floating-point range")
    return x


def _bisect(polynomial: EValuePolynomial, target: float) -> float:
    # compared in log space, n log x - k log(2x - 1) against log target,
    # so that x**n is never formed and cannot overflow; base 2 because
    # math.log2 costs a third of math.log, which also accepts integers
    log = math.log2
    n, k = float(polynomial.n), float(polynomial.k)
    log_target = log(target)
    lo, hi = 1.0, 2.0
    while n * log(hi) - k * log(2.0 * hi - 1.0) < log_target:
        lo, hi = hi, hi * 2.0
    # run the bracket down to machine precision; the residual tolerance is
    # then met with orders of magnitude to spare even where f is flat
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if n * log(mid) - k * log(2.0 * mid - 1.0) < log_target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _solve_array(polynomial: EValuePolynomial, targets: np.ndarray) -> np.ndarray:
    """solve_polynomial at every element of an array of finite targets > 1.

    The same closed forms and the same bisection as the float path, applied
    to whole arrays. Kept apart from solve_polynomial because a numpy loop
    over a single value costs about twenty times the float loop.
    """
    import numpy as np

    n, k = polynomial.n, polynomial.k
    if k == 0:
        return targets ** (1.0 / n)
    if n == 2 and k == 1:
        # the root, about 2 * target, is the only value here that can
        # overflow; it becomes inf, which evalue_curve rejects
        with np.errstate(over="ignore"):
            return targets + np.sqrt(targets) * np.sqrt(targets - 1.0)
    log_target = np.log2(targets)
    lo = np.ones_like(targets)
    hi = np.full_like(targets, 2.0)
    while True:
        below = n * np.log2(hi) - k * np.log2(2.0 * hi - 1.0) < log_target
        if not below.any():
            break
        lo = np.where(below, hi, lo)
        hi = np.where(below, hi * 2.0, hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        active = (lo < mid) & (mid < hi)
        if not active.any():
            break
        below = n * np.log2(mid) - k * np.log2(2.0 * mid - 1.0) < log_target
        lo = np.where(active & below, mid, lo)
        hi = np.where(active & ~below, mid, hi)
    return 0.5 * (lo + hi)


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

    def to_json(self) -> dict:
        est = self.estimate
        return {
            "schema_version": 1,
            "biases": self.bias_set.label,
            "true_value": self.true_value,
            "point": est.point,
            "lo": est.lo,
            "hi": est.hi,
            "evalue_point": self.evalue_point,
            "evalue_lo": self.evalue_lo,
            "evalue_hi": self.evalue_hi,
            "parameters": list(self.parameters),
        }


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
    polynomial = evalue_polynomial(bias_set)
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
    evalue_point = _evalue_for(polynomial, target)
    evalue_near = None if near is None else _evalue_for(polynomial, near / true_value)
    return EValueResult(
        bias_set=bias_set,
        estimate=rr,
        true_value=true_value,
        polynomial=polynomial,
        evalue_point=evalue_point,
        evalue_lo=None if inverted else evalue_near,
        evalue_hi=evalue_near if inverted else None,
        parameters=tuple(p.evalue_name for p in bias_set.parameters),
    )


def _evalue_for(polynomial: EValuePolynomial, ratio: float) -> float:
    if ratio <= 1.0:
        return 1.0
    return solve_polynomial(polynomial, ratio)


@dataclass(frozen=True)
class CurvePoint:
    """One point of an E-value curve."""

    rr: float
    biases: str
    evalue: float


def evalue_curve(
    bias_sets: Sequence[BiasSet], rr_values: Sequence[float]
) -> list[CurvePoint]:
    """Point E-values for each bias set across a range of risk ratios.

    Each point equals multi_evalue(bias_set, risk_ratio(rr)).evalue_point;
    every bias set's points are solved together as one array.
    """
    import numpy as np

    rr = np.asarray(rr_values, dtype=float)
    if rr.ndim != 1:
        raise ValueError("risk ratios must be a one-dimensional sequence")
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
    need = ratios > 1.0
    rr_list = rr.tolist()
    points: list[CurvePoint] = []
    for bias_set in bias_sets:
        evalues = np.ones_like(rr)
        evalues[need] = _solve_array(evalue_polynomial(bias_set), ratios[need])
        if evalues.max(initial=1.0) == math.inf:
            raise DomainError("a curve E-value exceeds the floating-point range")
        label = bias_set.label
        points.extend(
            CurvePoint(r, label, e) for r, e in zip(rr_list, evalues.tolist())
        )
    return points
