"""E-value polynomials, solving, orientation, and curves."""

import copy
import dataclasses
import math
import pickle
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from declarations import DECLARATIONS
from multibias import (
    BiasSet,
    CurvePoint,
    DomainError,
    EffectEstimate,
    EValuePolynomial,
    ParseError,
    Scale,
    SizeLimitExceeded,
    build_bias_set,
    confounding,
    evalue_curve,
    evalue_polynomial,
    misclassification,
    multi_bound,
    multi_evalue,
    selection,
    solve_polynomial,
    to_risk_ratio,
)
from multibias.evalues import MAX_CURVE_POINTS, _root, _shared_polynomial, odds_ratio, risk_ratio
from records import assert_as_constructed
from roots import bisect_root, decimal_root

# the shared polynomial of each (n, k) the grammar can reach
SHARED_BY_POLYNOMIAL = {
    bs.polynomial: evalue_polynomial(bs) for bs in map(build_bias_set, DECLARATIONS)
}
# one bias set for each polynomial the grammar can reach
SET_BY_POLYNOMIAL = {bs.polynomial: bs for bs in map(build_bias_set, DECLARATIONS)}
# the polynomials of SET_BY_POLYNOMIAL that _root solves by Newton's method
NEWTON_POLYNOMIALS = sorted((n, k) for n, k in SET_BY_POLYNOMIAL if 0 < 2 * k < n)
# a log grid of targets from 1 + 1e-15 to 1e300
NEWTON_TARGETS = np.concatenate([1.0 + np.logspace(-15, 0, 400), np.logspace(0, 300, 2001)])
# targets of the (2, 1) closed form: decimal strings from 1e0 to 7.3e299 and
# 1 + 2**-j, none made by exp(), whose output would make a log1p and expm1
# round trip exact; each root, about 2t, stays below the float maximum
TARGETS_2_1 = sorted(
    {float(f"{m}e{e}") for e in range(300) for m in ("1", "2.5", "7.3")} - {1.0}
    | {1.0 + math.ldexp(1.0, -j) for j in range(1, 53)}
)
# one bias set for each bound the grammar can reach: declarations with the
# same terms have the same bound and the same E-values
SET_BY_TERMS = {bs.terms: bs for bs in map(build_bias_set, DECLARATIONS)}


class TestToRiskRatio:
    def test_risk_ratio_passthrough(self):
        est = risk_ratio(2.0, 1.5, 3.0)
        assert to_risk_ratio(est) is est

    def test_rare_odds_ratio_reinterpreted(self):
        est = odds_ratio(2.0, 1.5, 3.0, rare_outcome=True)
        rr = to_risk_ratio(est)
        assert rr.scale is Scale.RISK_RATIO
        assert (rr.point, rr.lo, rr.hi) == (2.0, 1.5, 3.0)

    def test_common_odds_ratio_square_rooted(self):
        rr = to_risk_ratio(odds_ratio(4.0, 2.25, 9.0))
        assert (rr.point, rr.lo, rr.hi) == (2.0, 1.5, 3.0)

    def test_partial_interval_preserved(self):
        rr = to_risk_ratio(odds_ratio(4.0, 2.25))
        assert rr.lo == 1.5
        assert rr.hi is None

    @pytest.mark.parametrize(
        "lo, hi", [(None, None), (2.25, None), (None, 9.0), (2.25, 9.0)]
    )
    def test_each_scale_and_rare_case_gives_the_whole_estimate(self, lo, hi):
        def rr(point, lo, hi):
            return EffectEstimate(point, lo, hi, Scale.RISK_RATIO, False)

        root = rr(2.0, lo and 1.5, hi and 3.0)
        assert to_risk_ratio(EffectEstimate(4.0, lo, hi, Scale.RISK_RATIO)) == rr(4.0, lo, hi)
        assert to_risk_ratio(EffectEstimate(4.0, lo, hi, Scale.ODDS_RATIO)) == root
        assert to_risk_ratio(EffectEstimate(4.0, lo, hi, Scale.ODDS_RATIO, True)) == rr(4.0, lo, hi)
        with pytest.raises(ParseError, match="odds ratios only"):
            EffectEstimate(4.0, lo, hi, Scale.RISK_RATIO, True)

    def test_other_scales_rejected(self):
        with pytest.raises(DomainError) as exc:
            to_risk_ratio(EffectEstimate(2.0, scale="HR"))
        assert "hazard" in str(exc.value)

    @pytest.mark.parametrize("lo, hi", [(None, None), (2.25, None), (None, 9.0), (2.25, 9.0)])
    @pytest.mark.parametrize("rare", [False, True])
    def test_odds_ratio_view_behaves_as_a_constructed_estimate(self, lo, hi, rare):
        assert_as_constructed(to_risk_ratio(odds_ratio(4.0, lo, hi, rare_outcome=rare)))

    def test_odds_ratio_view_equals_the_risk_ratio_built_from_its_roots(self):
        view = to_risk_ratio(odds_ratio(4.0, 2.25, 9.0))
        assert view == EffectEstimate(2.0, 1.5, 3.0, Scale.RISK_RATIO)
        assert repr(view) == repr(EffectEstimate(2.0, 1.5, 3.0, Scale.RISK_RATIO))

    @pytest.mark.parametrize("scale", ["RR", "OR"])
    def test_scale_values_are_read_as_their_members(self, scale):
        # the values --measure takes; both constructed, and failed in multi_evalue
        member = Scale(scale)
        est = EffectEstimate(4.0, 2.25, 9.0, scale)
        assert est.scale is member
        assert est == EffectEstimate(4.0, 2.25, 9.0, member)
        assert multi_evalue(CONF, est) == multi_evalue(CONF, EffectEstimate(4.0, 2.25, 9.0, member))

    @pytest.mark.parametrize("scale", [None, "rr", "HR", "RISK_RATIO", 1])
    def test_scales_other_than_rr_and_or_are_refused_when_built(self, scale):
        text = f"cannot convert scale {scale!r} to a risk ratio; hazard ratios"
        with pytest.raises(DomainError, match=f"^{text}"):
            EffectEstimate(2.0, scale=scale)

    def test_estimate_validation(self):
        with pytest.raises(DomainError):
            EffectEstimate(-2.0)
        with pytest.raises(DomainError):
            EffectEstimate(2.0, lo=3.0)
        with pytest.raises(DomainError):
            EffectEstimate(2.0, hi=1.5)
        with pytest.raises(ParseError):
            EffectEstimate(2.0, rare_outcome=True)  # only meaningful for ORs

    @pytest.mark.parametrize(
        "limits", [(math.inf,), (math.nan,), (2.0, math.nan), (2.0, 1.5, math.inf)]
    )
    def test_non_finite_estimate_rejected(self, limits):
        with pytest.raises(DomainError):
            EffectEstimate(*limits)

    @pytest.mark.parametrize(
        "limits, label",
        [((None,), "point"), (("2",), "point"), ((2.0, 2 + 0j), "lo"), ((2.0, None, [3.0]), "hi")]
        + [pytest.param((10**5000,), "point", id="int-past-str-limit")]
        + [pytest.param((2.0, None, 10**5000), "hi", id="int-past-str-limit-hi")],
    )
    def test_an_estimate_that_is_no_number_is_a_domain_error(self, limits, label):
        # a None point constructed, and the others raised TypeError
        with pytest.raises(DomainError, match=f"^{label} must be positive and finite"):
            EffectEstimate(*limits)

    @pytest.mark.parametrize(
        "args, stored",
        [
            ((2.0, 2.0, 3.0), (2.0, 2.0, 3.0)),
            ((2.0, 1.5, 2.0), (2.0, 1.5, 2.0)),
            ((2.0, None, None), (2.0, None, None)),
            ((2, 1, 3), (2.0, 1.0, 3.0)),
            ((Fraction(5, 2), Fraction(3, 2), Fraction(7, 2)), (2.5, 1.5, 3.5)),
            ((Decimal("2.5"), Decimal("1.5"), Decimal("3.5")), (2.5, 1.5, 3.5)),
            ((np.float64(2.5), np.float64(1.5), np.float64(3.5)), (2.5, 1.5, 3.5)),
            ((5e-324,), (5e-324, None, None)),
            ((5e-324, 5e-324, 1.0), (5e-324, 5e-324, 1.0)),
            ((math.nan,), (DomainError, "point must be positive and finite, got nan")),
            ((2.0, math.nan), (DomainError, "lo must be positive and finite, got nan")),
            ((2.0, 1.5, math.inf), (DomainError, "hi must be positive and finite, got inf")),
            ((math.inf,), (DomainError, "point must be positive and finite, got inf")),
            ((2.0, -math.inf), (DomainError, "lo must be positive and finite, got -inf")),
            ((0.0,), (DomainError, "point must be positive and finite, got 0.0")),
            ((2.0, 0.0), (DomainError, "lo must be positive and finite, got 0.0")),
            ((2.0, 3.0), (DomainError, "lo must not exceed the point estimate")),
            ((2.0, None, 1.5), (DomainError, "hi must not be below the point estimate")),
            (
                (2.0, 1.5, 3.0, Scale.RISK_RATIO, True),
                (ParseError, "rare_outcome applies to odds ratios only"),
            ),
        ]
        + [
            (
                (4.0, None, None, Scale.ODDS_RATIO, rare),
                (ParseError, f"rare_outcome must be a bool, got {rare!r}"),
            )
            for rare in ("no", 1, None, np.True_)
        ],
        ids=[
            "lo-is-point", "hi-is-point", "no-limits", "int", "Fraction", "Decimal",
            "float64", "subnormal", "subnormal-lo", "nan", "nan-lo", "inf-hi", "inf",
            "minus-inf-lo", "zero", "zero-lo", "lo-above-point", "hi-below-point",
            "rare-risk-ratio", "rare-str", "rare-int", "rare-None", "rare-numpy-bool",
        ],
    )
    def test_each_estimate_is_stored_or_refused_as_pinned(self, args, stored):
        # the stored floats and the messages of the per-value checks
        if isinstance(stored[0], type):
            error, text = stored
            with pytest.raises(error) as exc:
                EffectEstimate(*args)
            assert type(exc.value) is error and str(exc.value) == text
        else:
            est = EffectEstimate(*args)
            assert (est.point, est.lo, est.hi) == stored
            assert [type(v) for v in (est.point, est.lo, est.hi)] == [type(v) for v in stored]
            assert est.scale is Scale.RISK_RATIO and est.rare_outcome is False


class TestPolynomialAccounting:
    CASES = [
        ([confounding()], (2, 1)),
        ([selection()], (4, 2)),
        ([selection(risk_direction="increased")], (2, 1)),
        ([selection(risk_direction="increased", s_equals_u=True)], (1, 0)),
        ([selection(s_equals_u=True)], (2, 0)),
        ([selection("selected")], (2, 1)),
        ([misclassification("outcome")], (1, 0)),
        ([misclassification("exposure", rare_outcome=True)], (2, 0)),
        ([misclassification("exposure", rare_outcome=True, rare_exposure=True)], (1, 0)),
        ([confounding(), selection(risk_direction="increased")], (4, 2)),
        ([confounding(), selection()], (6, 3)),
        ([confounding(), selection(), misclassification("outcome")], (7, 3)),
        ([confounding(), misclassification("exposure", rare_outcome=True)], (4, 1)),
        (
            [confounding(), selection(), misclassification("exposure", rare_outcome=True)],
            (8, 3),
        ),
        (
            [confounding(), selection("selected"), misclassification("outcome")],
            (3, 1),
        ),
        (
            [
                confounding(),
                selection(risk_direction="decreased"),
                misclassification("outcome"),
            ],
            (5, 2),
        ),
    ]

    @pytest.mark.parametrize("specs,expected", CASES)
    def test_n_and_k(self, specs, expected):
        poly = evalue_polynomial(build_bias_set(specs))
        assert (poly.n, poly.k) == expected

    def test_polynomial_value(self):
        poly = EValuePolynomial(7, 3)
        assert poly.value(1.0) == 1.0
        assert poly.value(2.0) == pytest.approx(128 / 27, rel=1e-12)

    @pytest.mark.parametrize(
        "x",
        [0.5, 0.0, -1.0, math.inf, math.nan, "x"]
        + [pytest.param(10**400, id="int-beyond-float-range")]
        + [pytest.param(10**5000, id="int-past-str-limit")],
    )
    def test_value_outside_its_domain_rejected(self, x):
        # unchecked, 0.5 raised ZeroDivisionError and inf and nan gave nan;
        # checked, "x" raised TypeError, and ints past the float range were
        # reported as a value past the float range
        with pytest.raises(DomainError, match="at least 1"):
            EValuePolynomial(7, 3).value(x)

    def test_value_overflows_only_beyond_the_float_range(self):
        # x**7 alone exceeds the float range at 1e50, and raised OverflowError
        assert EValuePolynomial(7, 3).value(1e50) == pytest.approx(1e200 / 8, rel=1e-12)
        with pytest.raises(DomainError, match="floating-point range"):
            EValuePolynomial(7, 3).value(1e100)  # the product overflows
        with pytest.raises(DomainError, match="floating-point range"):
            EValuePolynomial(7, 3).value(1e150)  # the power raises OverflowError

    def test_invalid_polynomial_rejected(self):
        with pytest.raises(DomainError):
            EValuePolynomial(1, 1)  # decreasing near 1
        with pytest.raises(DomainError):
            EValuePolynomial(0, 0)
        # degrees are ints: 1.5 was solved as a fractional power (2.553 at a
        # target of 2.0), True read as 1, and "3" raised a TypeError
        for n, k in ((3, 1.5), (True, 0), (3, False), ("3", 1), (3.0, 1)):
            with pytest.raises(DomainError, match="must have int degrees"):
                EValuePolynomial(n, k)
        numpy_degrees = EValuePolynomial(np.int64(3), np.int32(1))
        assert numpy_degrees == EValuePolynomial(3, 1)
        assert type(numpy_degrees.n) is type(numpy_degrees.k) is int
        assert solve_polynomial(numpy_degrees, 2.0) == solve_polynomial(EValuePolynomial(3, 1), 2.0)

    def test_sets_with_one_n_and_k_share_one_polynomial(self):
        for declared in DECLARATIONS:
            bs = build_bias_set(declared)
            poly = evalue_polynomial(bs)
            assert poly is evalue_polynomial(build_bias_set(declared))
            assert poly == EValuePolynomial(*bs.polynomial)
            assert poly is SHARED_BY_POLYNOMIAL[bs.polynomial]
        assert len(SHARED_BY_POLYNOMIAL) == 15
        assert _shared_polynomial.cache_info().currsize <= 15

    def test_an_invalid_pair_raises_on_every_call_and_is_not_stored(self):
        bs = build_bias_set(confounding())
        hand_built = BiasSet(bs.biases, bs.parameters, bs.terms, (1, 1))
        for _ in range(2):
            with pytest.raises(DomainError, match=r"polynomial \(1, 1\)"):
                evalue_polynomial(hand_built)
        with pytest.raises(DomainError):
            multi_evalue(hand_built, risk_ratio(2.0))
        stored = _shared_polynomial.cache_info().currsize
        evalue_polynomial(bs)
        assert _shared_polynomial.cache_info().currsize == stored


class TestSolve:
    def test_pinned_roots(self):
        assert solve_polynomial(EValuePolynomial(7, 3), 3.0) == pytest.approx(
            1.71, abs=0.005
        )
        assert solve_polynomial(EValuePolynomial(7, 3), 4.0) == pytest.approx(
            1.888478, abs=1e-4
        )
        assert solve_polynomial(EValuePolynomial(2, 1), 10.73) == pytest.approx(
            20.94777, abs=1e-4
        )
        assert solve_polynomial(EValuePolynomial(2, 1), 2.5 / 1.5) == pytest.approx(
            2.720763, abs=1e-4
        )

    def test_target_one_is_one(self):
        assert solve_polynomial(EValuePolynomial(7, 3), 1.0) == 1.0

    def test_target_below_one_rejected(self):
        with pytest.raises(DomainError):
            solve_polynomial(EValuePolynomial(2, 1), 0.5)

    def test_non_finite_target_rejected(self):
        with pytest.raises(DomainError):
            solve_polynomial(EValuePolynomial(7, 3), math.inf)

    # the k == 0 and n == 2k forms raised OverflowError, and Newton's method
    # returned 1.41e200 for (3, 1)
    @pytest.mark.parametrize("nk", [(1, 0), (2, 1), (3, 1)])
    def test_an_int_target_beyond_the_float_range_is_rejected(self, nk):
        with pytest.raises(DomainError, match="^target must be a finite number at least 1"):
            solve_polynomial(EValuePolynomial(*nk), 10**400)

    # "x" and None raised TypeError, and an int past the digit limit of
    # str() a plain ValueError from the message
    @pytest.mark.parametrize(
        "target", ["x", None, pytest.param(10**5000, id="int-past-str-limit")]
    )
    def test_a_target_that_is_no_number_is_rejected(self, target):
        with pytest.raises(DomainError, match="^target must be a finite number at least 1"):
            solve_polynomial(EValuePolynomial(3, 1), target)

    def test_overflowing_root_is_a_domain_error(self):
        # the (2, 1) root is about twice the target
        with pytest.raises(DomainError, match="floating-point range"):
            solve_polynomial(EValuePolynomial(2, 1), 1e308)

    @pytest.mark.parametrize("nk", sorted(SET_BY_POLYNOMIAL))
    @given(target=st.floats(min_value=1.0, max_value=1e300))
    @settings(max_examples=50)
    def test_finite_with_small_log_residual_up_to_1e300(self, nk, target):
        n, k = nk
        x = solve_polynomial(EValuePolynomial(n, k), target)
        assert math.isfinite(x)
        residual = n * math.log(x) - k * math.log(2.0 * x - 1.0) - math.log(target)
        assert abs(residual) <= 1e-12 * max(1.0, math.log(target))

    @given(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=1.0, max_value=1e6),
    )
    @settings(max_examples=500)
    def test_residual_within_tolerance(self, k, extra, target):
        poly = EValuePolynomial(2 * k + extra, k)
        x = solve_polynomial(poly, target)
        assert abs(poly.value(x) - target) <= 1e-9 * target

    @given(
        st.integers(min_value=1, max_value=3),
        st.floats(min_value=1.0 + 1e-9, max_value=1e6),
    )
    @settings(max_examples=300)
    def test_closed_form_matches_bisection_for_n_equal_2k(self, k, target):
        poly = EValuePolynomial(2 * k, k)
        closed = solve_polynomial(poly, target)
        assert abs(poly.value(closed) - target) <= 1e-9 * target
        assert closed == pytest.approx(bisect_root(2 * k, k, target), rel=1e-9)

    @given(
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=1.0 + 1e-9, max_value=1e6),
    )
    @settings(max_examples=300)
    def test_closed_form_matches_bisection_for_pure_powers(self, n, target):
        poly = EValuePolynomial(n, 0)
        closed = solve_polynomial(poly, target)
        assert closed == pytest.approx(bisect_root(n, 0, target), rel=1e-9)

    @pytest.mark.parametrize("nk", sorted(SET_BY_POLYNOMIAL), ids="n{0[0]}k{0[1]}".format)
    @pytest.mark.parametrize(
        "target",
        [
            *(1 + 1e-15, 1 + 1e-12, 1 + 1e-9, 1 + 1e-6, 1.001, 1.5, 4.0, 1e3, 1e12, 1e300),
            # the targets at which Newton's least start switches from one
            # bound to another (see _root), and the one with root 2, where the
            # bound from the tangent at u = log 2 is the root itself: a bound
            # below the root would stop after one clamped step, far from it
            pytest.param(lambda n, k: 2.0**n / 3.0**k, id="root-2"),
            pytest.param(
                lambda n, k: math.exp((n - 2 * k) * (1.5 * math.log(1.5) - math.log(2) / 2)),
                id="start-switch-u0-log2",
            ),
            pytest.param(lambda n, k: 2.0 ** (n - 2 * k), id="start-switch-u0-inf"),
            pytest.param(
                lambda n, k: math.exp((n - k) * (math.log(2) + 3 * math.log(4 / 3)))
                / 2.0**k,
                id="start-switch-log2-inf",
            ),
        ],
    )
    def test_root_matches_60_digit_bisection(self, nk, target):
        # checks the root itself: a residual check cannot catch a bad root
        # when n == 2k, because f is flat at 1 there (f'(1) == 0)
        if callable(target):
            target = target(*nk)
        exact = float(decimal_root(*nk, target))
        # solve_polynomial at its documented 1e-13 relative accuracy
        assert solve_polynomial(EValuePolynomial(*nk), target) == pytest.approx(
            exact, rel=1e-13
        )
        [point] = evalue_curve([SET_BY_POLYNOMIAL[nk]], [target])
        assert point.evalue == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize(
        "nk, ulps",
        [
            ((1, 0), 0.5),
            ((2, 0), 0.5),
            ((3, 0), 1),
            ((4, 0), 1),
            ((2, 1), 1.5),
            ((4, 2), 2),
            ((6, 3), 3.5),
        ],
        ids=lambda v: "n{0[0]}k{0[1]}".format(v) if type(v) is tuple else f"{v}ulps",
    )
    def test_each_closed_form_root_is_within_its_ulp_bound(self, nk, ulps):
        # x is within m ulps of the root of F(x) = x**n / (2x - 1)**k == t
        # exactly when F(x - m ulp) < t <= F(x + m ulp), as F increases for
        # x >= 1; checked in Fractions, with F(a) < t as a**n < t (2a - 1)**k.
        # Measured against decimal_root on these targets, the worst roots
        # are 0, 0.5, 0.67, 0.60 (numpy; 0.50 in math), 1.00 (just over 1 at
        # t = 7.3e24), 1.79 and 3.39 ulps off, in this order; each bound is
        # that figure rounded up to a half ulp. Through log1p and expm1,
        # (2, 1) was up to 498 ulps off, (4, 2) 206 and (6, 3) 243, and with
        # the rounded exponent of t ** (1/3) alone, (3, 0) was 113
        n, k = nk
        poly = EValuePolynomial(n, k)
        curve = [p.evalue for p in evalue_curve([SET_BY_POLYNOMIAL[nk]], TARGETS_2_1)]
        m = Fraction(ulps)
        for target, from_curve in zip(TARGETS_2_1, curve):
            x = solve_polynomial(poly, target)
            if nk in ((1, 0), (2, 1), (4, 2)):  # t itself, or by sqrt, which rounds as math's
                assert from_curve == x, target
            t = Fraction(target)
            for root in {x, from_curve}:
                lo, hi = (Fraction(root) + d * m * Fraction(math.ulp(root)) for d in (-1, 1))
                assert lo**n < t * (2 * lo - 1) ** k, (target, root)
                assert t * (2 * hi - 1) ** k <= hi**n, (target, root)

    @pytest.mark.parametrize("nk", [(13, 6), (41, 20), (201, 100)], ids="n{0[0]}k{0[1]}".format)
    def test_the_stop_bound_holds_beyond_the_grammar(self, nk):
        # the error bound C s**2 of a step s grows with C = k (n - k)**2 /
        # (n - 2k)**3, to about 1e6 for (201, 100), so that the stop bound
        # shrinks to 7e-12 there
        targets = [1 + 1e-12, 1 + 1e-6, 1.001, 1.5, 4.0, 1e3, 1e12, 1e300]
        exact = [float(decimal_root(*nk, t)) for t in targets]
        poly = EValuePolynomial(*nk)
        assert [solve_polynomial(poly, t) for t in targets] == pytest.approx(exact, rel=1e-12)
        roots, _ = _root(*nk, np.array(targets), np, np.ndarray.any)
        assert roots.tolist() == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("nk", NEWTON_POLYNOMIALS, ids="n{0[0]}k{0[1]}".format)
    def test_newton_takes_at_most_4_steps_for_a_float_or_an_array(self, nk):
        # a log grid from 1 + 1e-15 to 1e300; stopped when a step moved
        # nothing, Newton's method took up to 9 steps here
        steps = [_root(*nk, t, math, bool)[1] for t in NEWTON_TARGETS.tolist()]
        assert max(steps) <= 4
        assert _root(*nk, NEWTON_TARGETS, np, np.ndarray.any)[1] <= 4

    def test_newton_takes_at_most_5_steps_up_to_k_6_and_n_20(self):
        # stopped when a step moved nothing, it took up to 12
        for k in range(1, 7):
            for n in range(2 * k + 1, 21):
                assert _root(n, k, NEWTON_TARGETS, np, np.ndarray.any)[1] <= 5, (n, k)


class TestMultiEvalue:
    def test_hiv_null_evalues(self):
        bs = build_bias_set([confounding(), selection(risk_direction="increased")])
        result = multi_evalue(bs, odds_ratio(6.75, 2.79, 16.31, rare_outcome=True))
        assert result.evalue_point == pytest.approx(4.635703, abs=1e-4)
        assert result.evalue_lo == pytest.approx(2.728474, abs=1e-4)
        assert result.evalue_hi is None

    def test_hiv_nonnull_evalues(self):
        bs = build_bias_set([confounding(), selection(risk_direction="increased")])
        result = multi_evalue(
            bs, odds_ratio(6.75, 2.79, 16.31, rare_outcome=True), true_value=2.0
        )
        assert result.evalue_point == pytest.approx(3.077243, abs=1e-4)
        assert result.evalue_lo == pytest.approx(1.643623, abs=1e-4)

    def test_leukemia_protective_estimate(self):
        bs = build_bias_set(
            [confounding(), misclassification("exposure", rare_outcome=True)]
        )
        result = multi_evalue(bs, odds_ratio(0.51, 0.3, 0.89, rare_outcome=True))
        assert result.evalue_point == pytest.approx(1.351985, abs=1e-4)
        assert result.evalue_hi == pytest.approx(1.058404, abs=1e-4)
        assert result.evalue_lo is None
        # the reported estimate keeps its original direction
        assert result.estimate.point == 0.51

    def test_inverting_the_estimate_changes_nothing_but_the_side(self):
        bs = build_bias_set(
            [confounding(), misclassification("exposure", rare_outcome=True)]
        )
        protective = multi_evalue(bs, odds_ratio(0.51, 0.3, 0.89, rare_outcome=True))
        causal = multi_evalue(
            bs, odds_ratio(1 / 0.51, 1 / 0.89, 1 / 0.3, rare_outcome=True)
        )
        assert causal.evalue_point == protective.evalue_point
        assert causal.evalue_lo == protective.evalue_hi
        assert causal.evalue_hi is None

    def test_su_equal_evalue_is_the_estimate_itself(self):
        bs = build_bias_set(
            [selection(risk_direction="increased", s_equals_u=True)]
        )
        result = multi_evalue(bs, odds_ratio(5.2, rare_outcome=True))
        assert result.evalue_point == 5.2
        assert result.evalue_lo is None and result.evalue_hi is None

    def test_interval_containing_the_null_needs_no_bias(self):
        bs = build_bias_set([confounding()])
        result = multi_evalue(bs, risk_ratio(1.8, 0.9, 3.2))
        assert result.evalue_point > 1.0
        assert result.evalue_lo == 1.0

    @pytest.mark.parametrize("make", [risk_ratio, odds_ratio])
    def test_an_int_estimate_beyond_the_float_range_is_a_domain_error(self, make):
        # multi_evalue raised OverflowError dividing by the true value
        bs = build_bias_set([confounding()])
        with pytest.raises(DomainError, match="^point must be positive and finite"):
            multi_evalue(bs, make(10**400))

    def test_point_at_true_value_needs_no_bias(self):
        bs = build_bias_set([confounding()])
        assert multi_evalue(bs, risk_ratio(1.0)).evalue_point == 1.0
        assert multi_evalue(bs, risk_ratio(2.0), true_value=2.0).evalue_point == 1.0

    def test_true_value_is_not_inverted_with_the_estimate(self):
        bs = build_bias_set([confounding()])
        # point 0.5 inverts to 2; the stated true value stays 4, and since
        # 2/4 < 1 no bias is needed at all
        result = multi_evalue(bs, risk_ratio(0.5), true_value=4.0)
        assert result.evalue_point == 1.0

    def test_huge_ratio_is_solved_in_log_space(self):
        exposure = misclassification("exposure", rare_outcome=True)
        bs = build_bias_set([confounding(), selection(), exposure])
        assert bs.polynomial == (8, 3)
        x = multi_evalue(bs, risk_ratio(1e300)).evalue_point
        assert math.isfinite(x)
        residual = 8 * math.log(x) - 3 * math.log(2 * x - 1) - math.log(1e300)
        assert abs(residual) <= 1e-12 * math.log(1e300)

    @pytest.mark.parametrize(
        "true_value",
        [0.0, "1", None, pytest.param(10**400, id="int-beyond-float-range")]
        + [pytest.param(10**5000, id="int-past-str-limit")],
    )
    def test_true_value_must_be_positive(self, true_value):
        bs = build_bias_set([confounding()])
        with pytest.raises(DomainError, match="^true_value must be positive and finite"):
            multi_evalue(bs, risk_ratio(2.0), true_value=true_value)

    @pytest.mark.parametrize(
        "estimate",
        [
            risk_ratio(2.0, 1.5, 3.0),
            risk_ratio(0.5, 0.25, 0.8),
            risk_ratio(1.8),
            odds_ratio(4.0, 2.25, 9.0),
            odds_ratio(0.51, 0.3, 0.89, rare_outcome=True),
        ],
        ids=["causative", "protective", "point-only", "odds-ratio", "rare-odds-ratio"],
    )
    def test_result_behaves_as_a_constructed_result(self, estimate):
        bs = build_bias_set([confounding(), misclassification("exposure", rare_outcome=True)])
        assert_as_constructed(multi_evalue(bs, estimate, 1.25))

    def test_evalue_names_use_risk_ratio_forms(self):
        bs = build_bias_set(
            [confounding(), misclassification("exposure", rare_outcome=True)]
        )
        result = multi_evalue(bs, risk_ratio(2.0))
        assert result.parameters == ("RRAUc", "RRUcY", "RRYAa")

    @given(st.floats(min_value=1.0, max_value=100.0))
    @settings(max_examples=200)
    def test_point_evalue_inverts_the_bound(self, rr):
        bs = build_bias_set([confounding(), selection()])
        result = multi_evalue(bs, risk_ratio(rr))
        x = result.evalue_point
        values = {name: x for name in bs.parameter_names()}
        assert multi_bound(bs, values) == pytest.approx(rr, rel=1e-6)


class TestCurve:
    def test_points_cover_sets_and_ratios(self):
        sets = [
            build_bias_set([confounding()]),
            build_bias_set([confounding(), selection()]),
        ]
        points = evalue_curve(sets, [1.0, 4.0])
        assert len(points) == 4
        assert points[0].evalue == 1.0
        by_key = {(p.biases, p.rr): p.evalue for p in points}
        b = 4.0
        assert by_key[(sets[0].label, 4.0)] == pytest.approx(
            b + math.sqrt(b * (b - 1)), rel=1e-9
        )

    def test_more_biases_never_lower_the_curve(self):
        small = build_bias_set([confounding()])
        large = build_bias_set([confounding(), selection(), misclassification("outcome")])
        for rr in (1.5, 2.0, 4.0, 7.0):
            e_small = multi_evalue(small, risk_ratio(rr)).evalue_point
            e_large = multi_evalue(large, risk_ratio(rr)).evalue_point
            assert e_large <= e_small + 1e-9

    @pytest.mark.parametrize("nk", sorted(SET_BY_POLYNOMIAL))
    @given(rr=st.lists(st.floats(min_value=1e-300, max_value=1e300), max_size=20))
    @settings(max_examples=30)
    def test_each_point_is_the_multi_evalue(self, nk, rr):
        bias_set = SET_BY_POLYNOMIAL[nk]
        rr = [1.0, *rr]
        points = evalue_curve([bias_set], rr)
        assert [p.rr for p in points] == rr
        for p in points:
            expected = multi_evalue(bias_set, risk_ratio(p.rr)).evalue_point
            assert isinstance(p.evalue, float)
            assert p.evalue == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("nk", sorted(SET_BY_POLYNOMIAL), ids="n{0[0]}k{0[1]}".format)
    def test_null_ratio_solves_to_exactly_one(self, nk):
        # no mask keeps a ratio of 1 out of the solve: the root there is 1
        # exactly, and the ratios beside it stay within evalue_curve's 1e-12
        bias_set = SET_BY_POLYNOMIAL[nk]
        null, protective, causative = evalue_curve([bias_set], [1.0, 0.5, 2.0])
        assert null.evalue == 1.0
        for p in (protective, causative):
            expected = multi_evalue(bias_set, risk_ratio(p.rr)).evalue_point
            assert p.evalue == pytest.approx(expected, rel=1e-12)

    def test_points_behave_as_constructed_points(self):
        # every reachable (n, k), with protective, null and causative ratios
        sets = list(SET_BY_POLYNOMIAL.values())
        rr = [0.05, 0.3, 0.999, 1.0, 1.0000001, 1.5, 2.0, 10.73, 250.0, 1e6]
        points = evalue_curve(sets, rr)
        assert len(points) == len(sets) * len(rr)
        expected = [
            CurvePoint(r, bias_set.label, multi_evalue(bias_set, risk_ratio(r)).evalue_point)
            for bias_set in sets
            for r in rr
        ]
        for p, e in zip(points, expected):
            assert type(p) is CurvePoint
            assert type(p.rr) is float and type(p.evalue) is float
            assert (p.rr, p.biases) == (e.rr, e.biases)
            # the array solve agrees with the scalar one to a few ulps
            assert p.evalue == pytest.approx(e.evalue, rel=1e-12)
            built = CurvePoint(p.rr, p.biases, p.evalue)
            assert p == built and hash(p) == hash(built) and repr(p) == repr(built)
            # a named tuple: it unpacks, indexes and equals the plain tuple
            rr_, biases, evalue = p
            assert (rr_, biases, evalue) == (p[0], p[1], p[2]) == (p.rr, p.biases, p.evalue)
            assert p == (e.rr, e.biases, p.evalue) and p[:2] == (e.rr, e.biases)
            assert p._fields == ("rr", "biases", "evalue")
            assert p._asdict() == {"rr": p.rr, "biases": p.biases, "evalue": p.evalue}
            for name in ("rr", "biases", "evalue"):
                with pytest.raises(AttributeError):
                    setattr(p, name, 1.0)
                with pytest.raises(AttributeError):
                    delattr(p, name)
            with pytest.raises(AttributeError):
                p.other = 1.0
            assert not hasattr(p, "__dict__")
            assert p._replace() == p
            assert p._replace(evalue=e.evalue) == e
            # a dataclass too, so the dataclasses functions take a point
            assert dataclasses.replace(p) == p
            assert dataclasses.replace(p, evalue=e.evalue) == e
            assert [f.name for f in dataclasses.fields(p)] == list(p._fields)
            assert dataclasses.asdict(p) == p._asdict()
            assert copy.deepcopy(p) == p
            assert pickle.loads(pickle.dumps(p)) == p

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_ratios_that_are_not_positive_and_finite(self, bad):
        with pytest.raises(DomainError):
            evalue_curve([build_bias_set([confounding()])], [2.0, bad])

    @pytest.mark.parametrize(
        "ratios, got",
        [(["x"], "x"), ([2.0, "x"], "x"), ([0.5, [2, 3]], "[2, 3]"), ([10**400], "1" + "0" * 400)]
        # numpy reads "2" as 2.0, and str() refuses an int past 4,300 digits
        + [([2.0, "2"], "2"), ([10**5000], "an int of 16610 bits")],
    )
    def test_rejects_ratios_that_are_no_numbers(self, ratios, got):
        with pytest.raises(DomainError) as exc:
            evalue_curve([build_bias_set([confounding()])], ratios)
        assert str(exc.value) == f"risk ratios must be positive and finite, got {got}"

    def test_rejects_ratios_that_are_not_one_dimensional(self):
        with pytest.raises(ParseError, match="one-dimensional"):
            evalue_curve([build_bias_set([confounding()])], [[2.0, 3.0]])

    @pytest.mark.parametrize("rr", [[1e-320, 2.0], [1.0 / sys.float_info.max], [1e308]])
    def test_overflow_is_a_domain_error_not_a_warning(self, rr):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="floating-point range"):
                evalue_curve([build_bias_set([confounding()])], rr)

    def test_smallest_invertible_ratio_is_accepted(self):
        rr = math.nextafter(1.0 / sys.float_info.max, 1.0)
        bias_set = build_bias_set([misclassification("outcome")])  # E-value 1 / rr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (point,) = evalue_curve([bias_set], [rr])
        assert point.evalue == 1.0 / rr < math.inf

    @pytest.mark.parametrize(
        "curves, points, message",
        [
            (1, MAX_CURVE_POINTS + 1, "1 curve of 100001 points exceeds 100000 points"),
            (2, MAX_CURVE_POINTS // 2 + 1, "2 curves of 50001 points exceed 100000 points"),
            (MAX_CURVE_POINTS + 1, 1, "100001 curves of 1 point exceed 100000 points"),
        ],
    )
    def test_rejects_curves_over_the_point_cap(self, curves, points, message):
        sets = [build_bias_set([confounding()])] * curves
        with pytest.raises(SizeLimitExceeded) as info:
            evalue_curve(sets, np.full(points, 2.0))
        assert str(info.value) == message


def _shared(bias_set, x: float) -> dict[str, float]:
    """Every parameter at x; an odds ratio parameter, whose root enters, at x * x."""
    return {p.name: x * x if p.degree == 2 else x for p in bias_set.parameters}


class TestRoundTrip:
    """Bound at a shared value x, its E-value, and the bound at that E-value."""

    @pytest.mark.parametrize("terms", list(SET_BY_TERMS))
    @given(st.lists(st.floats(min_value=0.0, max_value=300.0), min_size=2, max_size=2))
    @settings(max_examples=20)
    def test_bound_to_evalue_and_back_up_to_1e300(self, terms, exponents):
        bias_set = SET_BY_TERMS[terms]
        trips = []
        for x in sorted(10.0**e for e in exponents):  # log-uniform on [1, 1e300]
            try:
                bound = multi_bound(bias_set, _shared(bias_set, x))
            except DomainError:  # the bound itself is past the float range
                continue
            evalue = multi_evalue(bias_set, risk_ratio(bound)).evalue_point
            assert math.isfinite(evalue)
            # checked in bound space: for n = 2k the bound is flat at 1, so
            # the E-value itself is ill-conditioned there
            back = multi_bound(bias_set, _shared(bias_set, evalue))
            assert back == pytest.approx(bound, rel=1e-9)
            trips.append((bound, evalue))
        for (b1, e1), (b2, e2) in zip(trips, trips[1:]):
            assert b1 <= b2 and e1 <= e2


CONF = build_bias_set([confounding()])
POLY = EValuePolynomial(3, 1)


class TestExactNumbers:
    @pytest.mark.parametrize(
        "est, lo, true",
        [
            (Fraction(5, 2), Fraction(3, 2), Fraction(5, 4)),
            (Decimal("2.5"), Decimal("1.5"), Decimal("1.25")),
        ],
        ids=["Fraction", "Decimal"],
    )
    def test_exact_numbers_give_the_results_of_the_equal_floats(self, est, lo, true):
        # a Decimal passed the checks, then raised TypeError in arithmetic
        assert risk_ratio(est, lo) == risk_ratio(2.5, 1.5)
        result = multi_evalue(CONF, risk_ratio(est, lo), true)
        assert result == multi_evalue(CONF, risk_ratio(2.5, 1.5), 1.25)
        assert POLY.value(est) == POLY.value(2.5)
        assert solve_polynomial(POLY, est) == solve_polynomial(POLY, 2.5)
        assert evalue_curve([CONF], [est, lo]) == evalue_curve([CONF], [2.5, 1.5])
