"""E-value polynomials, solving, orientation, and curves."""

import copy
import dataclasses
import math
import pickle
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from declarations import DECLARATIONS
from multibias import (
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
from multibias.evalues import MAX_CURVE_POINTS, odds_ratio, risk_ratio
from roots import bisect_root, decimal_root

# one bias set for each polynomial the grammar can reach
SET_BY_POLYNOMIAL = {bs.polynomial: bs for bs in map(build_bias_set, DECLARATIONS)}
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

    def test_other_scales_rejected(self):
        with pytest.raises(DomainError) as exc:
            to_risk_ratio(EffectEstimate(2.0, scale="HR"))
        assert "hazard" in str(exc.value)

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

    @pytest.mark.parametrize("x", [0.5, 0.0, -1.0, math.inf, math.nan])
    def test_value_outside_its_domain_rejected(self, x):
        # unchecked, 0.5 raised ZeroDivisionError and inf and nan gave nan
        with pytest.raises(DomainError, match="at least 1"):
            EValuePolynomial(7, 3).value(x)

    def test_value_overflows_only_beyond_the_float_range(self):
        # x**7 alone exceeds the float range at 1e50, and raised OverflowError
        assert EValuePolynomial(7, 3).value(1e50) == pytest.approx(1e200 / 8, rel=1e-12)
        with pytest.raises(DomainError, match="floating-point range"):
            EValuePolynomial(7, 3).value(1e100)

    def test_invalid_polynomial_rejected(self):
        with pytest.raises(DomainError):
            EValuePolynomial(1, 1)  # decreasing near 1
        with pytest.raises(DomainError):
            EValuePolynomial(0, 0)


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
        [1 + 1e-15, 1 + 1e-12, 1 + 1e-9, 1 + 1e-6, 1.001, 1.5, 4.0, 1e3, 1e12, 1e300],
    )
    def test_root_matches_60_digit_bisection(self, nk, target):
        # checks the root itself: a residual check cannot catch a bad root
        # when n == 2k, because f is flat at 1 there (f'(1) == 0)
        exact = float(decimal_root(*nk, target))
        assert solve_polynomial(EValuePolynomial(*nk), target) == pytest.approx(
            exact, rel=1e-12
        )
        [point] = evalue_curve([SET_BY_POLYNOMIAL[nk]], [target])
        assert point.evalue == pytest.approx(exact, rel=1e-12)


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

    def test_true_value_must_be_positive(self):
        bs = build_bias_set([confounding()])
        with pytest.raises(DomainError):
            multi_evalue(bs, risk_ratio(2.0), true_value=0.0)

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
    @given(rr=st.lists(st.floats(min_value=1e-3, max_value=1e3), max_size=20))
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
            for name in ("rr", "biases", "evalue"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(p, name, 1.0)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(p, name)
            with pytest.raises((AttributeError, TypeError)):
                p.other = 1.0
            assert not hasattr(p, "__dict__")
            assert dataclasses.replace(p) == p
            assert dataclasses.replace(p, evalue=e.evalue) == e
            assert copy.deepcopy(p) == p
            assert pickle.loads(pickle.dumps(p)) == p

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_ratios_that_are_not_positive_and_finite(self, bad):
        with pytest.raises(DomainError):
            evalue_curve([build_bias_set([confounding()])], [2.0, bad])

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

    def test_rejects_curves_over_the_point_cap(self):
        sets = [build_bias_set([confounding()])] * 2
        with pytest.raises(SizeLimitExceeded):
            evalue_curve(sets, np.full(MAX_CURVE_POINTS // 2 + 1, 2.0))


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
