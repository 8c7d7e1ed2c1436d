"""Bound construction, evaluation, grids, and estimate shifting."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from declarations import DECLARATIONS
from multibias import (
    DomainError,
    MissingParameter,
    ParseError,
    SizeLimitExceeded,
    UnknownParameter,
    adjust_estimate,
    build_bias_set,
    confounding,
    g,
    grid_table,
    misclassification,
    multi_bound,
    selection,
)
from multibias.bounds import MAX_GRID_CELLS

ratios = st.floats(min_value=1.0, max_value=1e6, allow_nan=False)
GRIDDABLE = [d for d in DECLARATIONS if len(build_bias_set(d).parameters) >= 2]


class TestG:
    def test_pinned_values(self):
        assert g(1, 5) == 1.0
        assert g(2, 2) == pytest.approx(4 / 3, abs=1e-12)
        assert g(3, 3) == pytest.approx(1.8, abs=1e-12)
        assert g(2.3, 2.5) == pytest.approx(5.75 / 3.8, abs=1e-12)

    # unchecked, (2, inf) and (1, inf) gave nan and (inf, 2) gave 2.0
    @pytest.mark.parametrize(
        "a, b",
        [(0.99, 2), (2, 0.5), (2, math.inf), (1, math.inf), (math.inf, 2)]
        + [(math.nan, 2), (2, math.nan)],
    )
    def test_domain(self, a, b):
        with pytest.raises(DomainError):
            g(a, b)

    @given(ratios, ratios)
    def test_between_one_and_product(self, a, b):
        value = g(a, b)
        assert 1.0 <= value <= a * b + 1e-9

    @given(ratios, ratios)
    def test_symmetric(self, a, b):
        assert g(a, b) == pytest.approx(g(b, a), rel=1e-12)

    @given(ratios, ratios, st.floats(min_value=0.0, max_value=10.0))
    def test_monotone_in_first_argument(self, a, b, bump):
        assert g(a + bump, b) >= g(a, b) - 1e-12

    def test_huge_arguments_do_not_overflow(self):
        assert g(1e200, 1e200) == pytest.approx(5e199, rel=1e-12)

    @given(ratios)
    def test_one_absorbs(self, b):
        # b/(1+b-1) can wobble an ulp for b near 1
        assert g(1.0, b) == pytest.approx(1.0, rel=1e-15)


class TestExpressionShape:
    """``BiasSet.terms``: which parameters enter the bound jointly through g."""

    def test_all_three_biases_general(self):
        bs = build_bias_set([confounding(), selection(), misclassification("outcome")])
        assert bs.terms == (
            ("RRAUc", "RRUcY"),
            ("RRUsYA1", "RRSUsA1"),
            ("RRUsYA0", "RRSUsA0"),
            ("RRAYyS",),
        )

    def test_selected_population(self):
        bs = build_bias_set(
            [confounding(), selection("selected"), misclassification("outcome")]
        )
        assert bs.terms == (("RRAUscS", "RRUscYS"), ("RRAYyS",))

    def test_confounding_alone(self):
        assert build_bias_set([confounding()]).terms == (("RRAUc", "RRUcY"),)

    def test_s_equals_u_terms_are_single(self):
        bs = build_bias_set([selection(s_equals_u=True)])
        assert bs.terms == (("RRSYA1",), ("RRSYA0",))

    def test_expression_parameters_cover_the_set(self):
        bs = build_bias_set([confounding(), selection()])
        flat = tuple(name for term in bs.terms for name in term)
        assert flat == bs.parameter_names()


class TestMultiBound:
    def test_pinned_worked_examples(self):
        hiv = build_bias_set([confounding(), selection(risk_direction="increased")])
        assert multi_bound(
            hiv, {"RRAUc": 2.3, "RRUcY": 2.5, "RRUsYA1": 3, "RRSUsA1": 2}
        ) == pytest.approx(2.269737, abs=1e-6)
        assert multi_bound(
            hiv, {"RRAUc": 2, "RRUcY": 2.5, "RRUsYA1": 3, "RRSUsA1": 2}
        ) == pytest.approx(2.142857, abs=1e-6)

        leuk = build_bias_set(
            [confounding(), misclassification("exposure", rare_outcome=True)]
        )
        assert multi_bound(
            leuk, {"RRAUc": 2, "RRUcY": 1.22, "ORYAa": 1.59}
        ) == pytest.approx(1.747568, abs=1e-6)

        sel = build_bias_set([selection()])
        assert multi_bound(
            sel, {"RRUsYA1": 2, "RRSUsA1": 1.7, "RRUsYA0": 2, "RRSUsA0": 1.5}
        ) == pytest.approx(1.511111, abs=1e-6)

    def test_all_ones_is_exactly_one(self):
        bs = build_bias_set([confounding(), selection(), misclassification("outcome")])
        values = {name: 1.0 for name in bs.parameter_names()}
        assert multi_bound(bs, values) == 1.0

    def test_declaration_order_does_not_change_the_value(self):
        values = {
            "RRAUc": 1.7,
            "RRUcY": 2.0,
            "RRUsYA1": 1.3,
            "RRSUsA1": 1.9,
            "RRUsYA0": 1.2,
            "RRSUsA0": 2.4,
        }
        forward = build_bias_set([confounding(), selection()])
        backward = build_bias_set([selection(), confounding()])
        assert multi_bound(forward, values) == multi_bound(backward, values)

    def test_ordering_of_selection_and_misclassification_changes_names_only(self):
        sel_first = build_bias_set([selection(), misclassification("outcome")])
        mis_first = build_bias_set([misclassification("outcome"), selection()])
        base = {"RRUsYA1": 1.5, "RRSUsA1": 1.5, "RRUsYA0": 1.5, "RRSUsA0": 1.5}
        a = multi_bound(sel_first, {**base, "RRAYyS": 2.0})
        b = multi_bound(mis_first, {**base, "RRAYy": 2.0})
        assert a == b

    def test_unknown_parameter_message_lists_expected(self):
        bs = build_bias_set([confounding()])
        with pytest.raises(UnknownParameter) as exc:
            multi_bound(bs, {"RRAUc": 2, "RRUcY": 2, "bogus": 3})
        assert "bogus" in str(exc.value)
        assert "RRAUc, RRUcY" in str(exc.value)

    def test_missing_parameter_message_names_it(self):
        bs = build_bias_set([confounding(), selection(risk_direction="increased")])
        with pytest.raises(MissingParameter) as exc:
            multi_bound(bs, {"RRAUc": 2, "RRUcY": 2, "RRUsYA1": 2})
        assert "RRSUsA1" in str(exc.value)

    def test_value_below_one_rejected(self):
        bs = build_bias_set([confounding()])
        with pytest.raises(DomainError):
            multi_bound(bs, {"RRAUc": 0.8, "RRUcY": 2})

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_value_rejected(self, bad):
        bs = build_bias_set([confounding()])
        with pytest.raises(DomainError):
            multi_bound(bs, {"RRAUc": bad, "RRUcY": 2})

    def test_overflowing_product_rejected(self):
        bs = build_bias_set([confounding(), misclassification("outcome")])
        with pytest.raises(DomainError):
            multi_bound(bs, {"RRAUc": 1e200, "RRUcY": 1e200, "RRAYy": 1e200})

    @given(
        st.lists(st.floats(min_value=1.0, max_value=50.0), min_size=7, max_size=7),
        st.integers(min_value=0, max_value=6),
        st.floats(min_value=0.0, max_value=5.0),
    )
    def test_monotone_in_every_coordinate(self, values, index, bump):
        bs = build_bias_set([confounding(), selection(), misclassification("outcome")])
        names = bs.parameter_names()
        base = dict(zip(names, values))
        bumped = dict(base)
        bumped[names[index]] += bump
        assert multi_bound(bs, bumped) >= multi_bound(bs, base) * (1 - 1e-12)


class TestGrid:
    def test_matches_multi_bound_cell_by_cell(self):
        bs = build_bias_set([confounding(), selection(risk_direction="increased")])
        rows = [1.0, 1.5, 2.0]
        cols = [1.0, 2.5]
        fixed = {"RRUsYA1": 3.0, "RRSUsA1": 2.0}
        table = grid_table(bs, [("RRAUc", rows), ("RRUcY", cols)], fixed)
        for i, rv in enumerate(rows):
            for j, cv in enumerate(cols):
                expected = multi_bound(bs, {**fixed, "RRAUc": rv, "RRUcY": cv})
                assert table.values[i, j] == pytest.approx(expected, rel=1e-12)

    @given(st.sampled_from(GRIDDABLE), st.data())
    def test_every_cell_equals_multi_bound_exactly(self, declared, data):
        bs = build_bias_set(declared)
        names = bs.parameter_names()
        pair = st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True)
        row, col = data.draw(pair)
        rows = data.draw(st.lists(ratios, min_size=1, max_size=4))
        cols = data.draw(st.lists(ratios, min_size=1, max_size=4))
        fixed = {n: data.draw(ratios) for n in names if n not in (row, col)}
        table = grid_table(bs, [(row, rows), (col, cols)], fixed)
        for i, rv in enumerate(rows):
            for j, cv in enumerate(cols):
                cell = {**fixed, row: rv, col: cv}
                assert table.values[i, j] == multi_bound(bs, cell)

    def test_requires_exactly_two_varying(self):
        bs = build_bias_set([confounding()])
        with pytest.raises(ParseError):
            grid_table(bs, [("RRAUc", [2.0])])

    def test_rejects_duplicated_axis(self):
        bs = build_bias_set([confounding()])
        with pytest.raises(ParseError):
            grid_table(bs, [("RRAUc", [2.0]), ("RRAUc", [2.0])])

    def test_rejects_fixed_overlap(self):
        bs = build_bias_set([confounding(), misclassification("outcome")])
        with pytest.raises(ParseError):
            grid_table(
                bs,
                [("RRAUc", [2.0]), ("RRUcY", [2.0])],
                {"RRUcY": 2.0, "RRAYy": 1.5},
            )

    @pytest.mark.parametrize("rows, cols", [([], [2.0]), ([2.0], [])], ids=["row", "col"])
    def test_rejects_an_empty_axis(self, rows, cols):
        bs = build_bias_set([confounding()])
        with pytest.raises(ParseError, match="non-empty"):
            grid_table(bs, [("RRAUc", rows), ("RRUcY", cols)])

    def test_rejects_grid_values_below_one(self):
        bs = build_bias_set([confounding()])
        with pytest.raises(DomainError):
            grid_table(bs, [("RRAUc", [0.5, 2.0]), ("RRUcY", [2.0])])

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite_grid_values(self, bad):
        bs = build_bias_set([confounding()])
        with pytest.raises(DomainError):
            grid_table(bs, [("RRAUc", [2.0]), ("RRUcY", [2.0, bad])])

    def test_overflowing_cell_is_a_domain_error_not_a_warning(self):
        bs = build_bias_set([confounding(), misclassification("outcome")])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflows"):
                grid_table(bs, [("RRAUc", [2.0, 1e200]), ("RRUcY", [1e200])], {"RRAYy": 1e200})

    def test_rejects_grids_over_the_cell_cap(self):
        bs = build_bias_set([confounding()])
        rows = np.full(MAX_GRID_CELLS // 1000 + 1, 2.0)
        with pytest.raises(SizeLimitExceeded):
            grid_table(bs, [("RRAUc", rows), ("RRUcY", np.full(1000, 2.0))])

    def test_missing_fixed_parameter_detected(self):
        bs = build_bias_set([confounding(), misclassification("outcome")])
        with pytest.raises(MissingParameter):
            grid_table(bs, [("RRAUc", [2.0]), ("RRUcY", [2.0])])


class TestAdjustEstimate:
    def test_harmful_estimate_divided(self):
        bs = build_bias_set([confounding(), selection(risk_direction="increased")])
        values = {"RRAUc": 2.3, "RRUcY": 2.5, "RRUsYA1": 3, "RRSUsA1": 2}
        shifted = adjust_estimate(bs, values, point=6.75, lo=2.79, hi=16.31)
        assert shifted.lo == pytest.approx(2.79 * 3.8 / 8.625, abs=1e-12)
        assert round(shifted.lo, 2) == 1.23
        assert round(shifted.lo, 2) == 1.23

    def test_protective_estimate_multiplied(self):
        bs = build_bias_set(
            [confounding(), misclassification("exposure", rare_outcome=True)]
        )
        values = {"RRAUc": 2, "RRUcY": 1.22, "ORYAa": 1.59}
        shifted = adjust_estimate(bs, values, point=0.51, lo=0.3, hi=0.89)
        assert shifted.point == pytest.approx(0.891259, abs=1e-6)
        assert shifted.lo == pytest.approx(0.524270, abs=1e-6)
        assert shifted.hi == pytest.approx(1.555335, abs=1e-6)

    def test_interval_ordering_enforced(self):
        bs = build_bias_set([confounding()])
        with pytest.raises(DomainError):
            adjust_estimate(bs, {"RRAUc": 2, "RRUcY": 2}, point=2.0, lo=3.0, hi=4.0)

    def test_positive_inputs_required(self):
        bs = build_bias_set([confounding()])
        with pytest.raises(DomainError):
            adjust_estimate(bs, {"RRAUc": 2, "RRUcY": 2}, point=-1.0, lo=-2.0, hi=0.5)
