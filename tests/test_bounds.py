"""Bound construction, evaluation, grids, and estimate shifting."""

import array
import math
import warnings
from decimal import Decimal
from fractions import Fraction
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, strategies as st

from declarations import DECLARATIONS
from multibias import (
    DomainError,
    MissingParameter,
    ParseError,
    ShiftedEstimate,
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
from records import assert_as_constructed, assert_frozen_record

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
        + [(math.nan, 2), (2, math.nan)]
        # ints beyond the float range raised OverflowError, and text and None TypeError
        + [pytest.param(10**400, 2, id="int-a"), pytest.param(2, 10**400, id="int-b")]
        + [pytest.param("x", 2, id="text"), pytest.param(2, None, id="none")],
    )
    def test_domain(self, a, b):
        with pytest.raises(DomainError):
            g(a, b)

    # each argument is reported on its own, no longer as "(a, b)" together
    @pytest.mark.parametrize(
        "a, b, text",
        [
            (0.5, 2, "a must be a finite number at least 1, got 0.5"),
            (2, "2", "b must be a finite number at least 1, got 2"),
            (10**5000, 0.5, "a must be a finite number at least 1, got an int of 16610 bits"),
        ],
        ids=["a", "b-text", "a-int-past-str-limit"],
    )
    def test_the_first_bad_argument_is_reported_by_name(self, a, b, text):
        with pytest.raises(DomainError) as exc:
            g(a, b)
        assert str(exc.value) == text

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


CONF = build_bias_set([confounding()])
CONF_MIS = build_bias_set([confounding(), misclassification("outcome")])
AXES = [("RRAUc", [2.0]), ("RRUcY", [2.0])]
BELOW_ONE = "must be a finite number at least 1, got "


class TestValidatedValues:
    """Error classes and texts of bad parameter mappings, names before values."""

    @pytest.mark.parametrize(
        "call, values, error, text",
        [
            # the right length with one wrong name, whatever the other value
            (multi_bound, {"RRAUc": 2, "bogus": 3}, UnknownParameter, "unknown parameter(s) bogus"),
            (
                multi_bound,
                {"RRAUc": 0.5, "RRUcZ": 2},
                UnknownParameter,
                "unknown parameter(s) RRUcZ",
            ),
            (
                multi_bound,
                {"RRAUc": "two", "RRUcZ": 2},
                UnknownParameter,
                "unknown parameter(s) RRUcZ",
            ),
            (multi_bound, {"RRUcY": 2, "aa": 1}, UnknownParameter, "unknown parameter(s) aa"),
            (
                multi_bound,
                {"RRAUc": 2, "RRUcY": 2, "zz": 1, "aa": 1},
                UnknownParameter,
                "unknown parameter(s) aa, zz",
            ),
            (multi_bound, {"RRAUc": 2}, MissingParameter, "missing value for parameter(s) RRUcY"),
            # keys that are no str, quoted by str() and sorted by that text:
            # each raised a TypeError while the message was built
            (multi_bound, {1: 2.0, "RRUcY": 2.0}, UnknownParameter, "unknown parameter(s) 1"),
            (multi_bound, {None: 2.0, "RRUcY": 2.0}, UnknownParameter, "unknown parameter(s) None"),
            (multi_bound, {1: 2.0, None: 2.0}, UnknownParameter, "unknown parameter(s) 1, None"),
            (
                lambda bs, fixed: grid_table(bs, AXES, fixed),
                {3: 1.0},
                UnknownParameter,
                "unknown parameter(s) 3",
            ),
        ],
        ids=[
            "bogus",
            "below_one",
            "text",
            "aa",
            "two_unknown",
            "missing",
            "int_key",
            "none_key",
            "int_and_none_keys",
            "grid_int_key",
        ],
    )
    def test_a_wrong_name_is_reported_with_the_expected_names(self, call, values, error, text):
        with pytest.raises(error) as exc:
            call(CONF, values)
        assert str(exc.value) == f"{text}; expected: RRAUc, RRUcY"

    @pytest.mark.parametrize(
        "call, values, label",
        [
            # a list of the names passed the name check, then values[name] raised
            (multi_bound, ["RRAUc", "RRUcY"], "values"),
            (multi_bound, [[1], 2], "values"),  # unhashable in the name check
            (multi_bound, None, "values"),
            (multi_bound, "RRAUcRRUcY", "values"),  # its letters were the names
            (multi_bound, (("RRAUc", 2.0), ("RRUcY", 2.0)), "values"),
            (lambda bs, values: adjust_estimate(bs, values, 2.0, 1.0, 3.0), [2.0, 2.0], "values"),
            (
                lambda bs, values: adjust_estimate(bs, values, 2.0, 1.0, 3.0),
                ["RRAUc", "RRUcY"],
                "values",
            ),
            (lambda bs, fixed: grid_table(bs, AXES, fixed), [1, 2], "fixed"),
            # pairs that dict() would read
            (lambda bs, fixed: grid_table(CONF_MIS, AXES, fixed), [("RRAYy", 2.0)], "fixed"),
        ],
        ids=[
            "names",
            "unhashable",
            "none",
            "str",
            "pairs",
            "adjust_numbers",
            "adjust_names",
            "grid_list",
            "grid_pairs",
        ],
    )
    def test_values_that_are_no_mapping_are_a_parse_error(self, call, values, label):
        with pytest.raises(ParseError) as exc:
            call(CONF, values)
        kind = type(values).__name__
        assert str(exc.value) == f"{label} must be a mapping of parameter names to values, not {kind}"

    @pytest.mark.parametrize(
        "values, got",
        [
            ({"RRUcY": 0.5, "RRAUc": math.nan}, "nan"),
            ({"RRUcY": 0.5, "RRAUc": 0.9}, "0.9"),
            ({"RRUcY": "x", "RRAUc": math.inf}, "inf"),
            ({"RRUcY": 0.5, "RRAUc": None}, "None"),
            ({"RRUcY": None, "RRAUc": "abc"}, "abc"),
        ],
    )
    def test_of_two_bad_values_the_first_in_name_order_is_reported(self, values, got):
        with pytest.raises(DomainError) as exc:
            multi_bound(CONF, values)
        assert str(exc.value) == f"parameter RRAUc {BELOW_ONE}{got}"

    @pytest.mark.parametrize(
        "value", ["abc", None, [2.0], 2 + 0j, np.array([2.0, 3.0]), 10**400],
        ids=["text", "none", "list", "complex", "array", "huge_int"],
    )
    def test_a_value_that_is_no_number_is_a_domain_error(self, value):
        # each raised ValueError, TypeError or OverflowError from float()
        with pytest.raises(DomainError) as exc:
            multi_bound(CONF, {"RRAUc": value, "RRUcY": 2})
        assert str(exc.value) == f"parameter RRAUc {BELOW_ONE}{value}"

    def test_read_only_mappings_and_numpy_floats_are_accepted(self):
        values = MappingProxyType({"RRAUc": np.float64(2.0), "RRUcY": np.float32(2.5)})
        assert multi_bound(CONF, values) == multi_bound(CONF, {"RRAUc": 2.0, "RRUcY": 2.5})
        with pytest.raises(DomainError, match="parameter RRAUc .*, got 0.5$"):
            multi_bound(CONF, {**values, "RRAUc": np.float64(0.5)})
        table = grid_table(CONF_MIS, AXES, MappingProxyType({"RRAYy": np.float64(3)}))
        assert table.fixed == {"RRAYy": 3.0} and type(table.fixed["RRAYy"]) is float

    @pytest.mark.parametrize(
        "axes, fixed, error, text",
        [
            (AXES, {"RRAYy": 0.5}, DomainError, "parameter RRAYy " + BELOW_ONE + "0.5"),
            (AXES, {"RRAYy": 2.0, "bogus": 2.0}, UnknownParameter, "unknown parameter(s) bogus"),
            (AXES, {"bogus": 2.0}, UnknownParameter, "unknown parameter(s) bogus"),
            (AXES, None, MissingParameter, "missing value for parameter(s) RRAYy"),
            (
                [("RRAUc", [0.5]), AXES[1]],
                {"RRAYy": math.nan},
                DomainError,
                "parameter RRAUc " + BELOW_ONE + "0.5",
            ),
            (
                [AXES[0], ("RRUcZ", [2.0])],
                {"RRAYy": 2},
                UnknownParameter,
                "unknown parameter(s) RRUcZ",
            ),
            # values numpy reads as no number, names still first
            (
                [("RRAUc", ["a", 2]), ("RRUcY", [2])],
                {"RRAYy": 2},
                DomainError,
                "parameter RRAUc " + BELOW_ONE + "a",
            ),
            (
                [("RRAUc", ["a", 2]), ("RRUcZ", [2])],
                {"RRAYy": 2},
                UnknownParameter,
                "unknown parameter(s) RRUcZ",
            ),
            (
                [AXES[0], ("RRUcY", [2, "b"])],
                {"RRAYy": 0.5},
                DomainError,
                "parameter RRAYy " + BELOW_ONE + "0.5",
            ),
            (
                [AXES[0], ("RRUcY", [2, 0.5, "b"])],
                {"RRAYy": 2},
                DomainError,
                "parameter RRUcY " + BELOW_ONE + "0.5",
            ),
            (
                [AXES[0], ("RRUcY", [2, [3, 4], 5])],
                {"RRAYy": 2},
                DomainError,
                "parameter RRUcY " + BELOW_ONE + "[3, 4]",
            ),
        ],
    )
    def test_grid_fixed_value_errors(self, axes, fixed, error, text):
        with pytest.raises(error) as exc:
            grid_table(CONF_MIS, axes, fixed)
        if error is not DomainError:
            text += "; expected: RRAUc, RRUcY, RRAYy"
        assert str(exc.value) == text


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

    @pytest.mark.parametrize(
        "vary",
        [
            [("RRAUc", [2.0])],
            # these four escaped as a plain ValueError or TypeError
            {"RRAUc": [1.0], "RRUcY": [2.0]},
            [("RRAUc",), ("RRUcY",)],
            [("RRAUc", [1.0], "x"), ("RRUcY", [2.0], "x")],
            [None, None],
        ],
        ids=["one_pair", "dict", "no_values", "three_items", "nones"],
    )
    def test_requires_exactly_two_varying(self, vary):
        bs = build_bias_set([confounding()])
        with pytest.raises(ParseError):
            grid_table(bs, vary)

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


class TestGridTableIdentity:
    def test_tables_compare_and_hash_by_identity(self):
        # equal calls give equal arrays, which have no single truth value, and
        # the fixed values are a dict, which has no hash
        bs = build_bias_set([confounding(), misclassification("outcome")])
        args = (bs, [("RRAUc", [2.0, 3.0]), ("RRUcY", [2.0])], {"RRAYy": 1.5})
        a, b = grid_table(*args), grid_table(*args)
        assert (a == b) is False
        assert a == a
        assert hash(a) == hash(a)
        assert a not in [b]
        assert a in [b, a]

    @pytest.mark.parametrize("bs, fixed", [(CONF_MIS, {"RRAYy": 1.5}), (CONF, None)])
    def test_table_pickles_copies_replaces_and_stays_frozen(self, bs, fixed):
        table = grid_table(bs, [("RRAUc", [2.0, 3.0]), ("RRUcY", [2.0])], fixed)
        assert_frozen_record(table)
        assert table.values.flags.writeable is False


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

    def test_an_estimate_at_one_is_divided_by_the_bound(self):
        # "divided when the point estimate is at or above 1"; multiplying at
        # exactly 1 would give the same point but other limits
        shifted = adjust_estimate(CONF, {"RRAUc": 2.0, "RRUcY": 3.0}, 1.0, 0.5, 2.0)
        assert shifted == ShiftedEstimate(1.0 / 1.5, 0.5 / 1.5, 2.0 / 1.5, 1.5)

    @pytest.mark.parametrize(
        "limits", [(6.75, 2.79, 16.31), (0.51, 0.3, 0.89), (1.0, 0.5, 2.0), (2.0, 2.0, 2.0)]
    )
    def test_shifted_estimate_behaves_as_a_constructed_one(self, limits):
        shifted = adjust_estimate(CONF, {"RRAUc": 2.0, "RRUcY": 3.0}, *limits)
        assert_as_constructed(shifted)

    def test_interval_ordering_enforced(self):
        bs = build_bias_set([confounding()])
        with pytest.raises(DomainError):
            adjust_estimate(bs, {"RRAUc": 2, "RRUcY": 2}, point=2.0, lo=3.0, hi=4.0)

    def test_positive_inputs_required(self):
        bs = build_bias_set([confounding()])
        with pytest.raises(DomainError):
            adjust_estimate(bs, {"RRAUc": 2, "RRUcY": 2}, point=-1.0, lo=-2.0, hi=0.5)

    @pytest.mark.parametrize(
        "label, limits",
        [("point", (None, 0.5, 2.0)), ("hi", (1.0, 0.5, "2"))]
        # ints beyond the float range raised OverflowError, and one past the
        # digit limit of str() a plain ValueError from the message
        + [pytest.param("point", (10**400, 1.0, 10**401), id="int-beyond-float-range")]
        + [pytest.param("hi", (2.0, 1.0, 10**5000), id="int-past-str-limit")],
    )
    def test_limits_that_are_no_numbers_are_domain_errors(self, label, limits):
        bs = build_bias_set(misclassification("outcome"))
        with pytest.raises(DomainError, match=f"^{label} must be positive and finite"):
            adjust_estimate(bs, {"RRAYy": 2.0}, *limits)

    @pytest.mark.parametrize(
        "value, limits",
        [
            (1e308, (0.5, 0.4, 2.0)),  # hi * bound overflows to inf
            (1e10, (2.0, 1e-320, 3.0)),  # lo / bound underflows to 0
        ],
        ids=["inf", "zero"],
    )
    def test_a_shifted_limit_beyond_the_float_range_is_a_domain_error(self, value, limits):
        bs = build_bias_set(misclassification("outcome"))
        with pytest.raises(DomainError, match="floating-point range"):
            adjust_estimate(bs, {"RRAYy": value}, *limits)

    def test_shifted_limits_at_the_edge_of_the_float_range_are_kept(self):
        bs = build_bias_set(misclassification("outcome"))
        shifted = adjust_estimate(bs, {"RRAYy": 2.0}, 2.0, 1e-300, 3.0)
        assert shifted.lo == 5e-301
        shifted = adjust_estimate(bs, {"RRAYy": 1e300}, 0.5, 0.4, 1.5)
        assert shifted.hi == 1.5e300


PAST_STR_LIMIT = 10**5000  # an int str() refuses: more than 4,300 digits
PAST_STR_TEXT = "an int of 16610 bits"


class TestNumericInput:
    """One reader for every value: what counts as a number, and its message."""

    # each raised a plain ValueError from str() while building the message
    @pytest.mark.parametrize(
        "call, text",
        [
            (lambda v: multi_bound(CONF, {"RRAUc": v, "RRUcY": 2}), "parameter RRAUc "),
            (lambda v: grid_table(CONF, [("RRAUc", [2, v]), ("RRUcY", [2])]), "parameter RRAUc "),
            (lambda v: grid_table(CONF_MIS, AXES, {"RRAYy": v}), "parameter RRAYy "),
        ],
        ids=["multi_bound", "grid_table-axis", "grid_table-fixed"],
    )
    def test_an_int_past_the_digit_limit_of_str_is_quoted_by_its_size(self, call, text):
        with pytest.raises(DomainError) as exc:
            call(PAST_STR_LIMIT)
        assert str(exc.value) == text + BELOW_ONE + PAST_STR_TEXT

    # float() reads numeric text and buffers of digits, so these were
    # accepted before text counted as no number (grid_table's axes through
    # numpy); numpy reads a lone buffer in an axis as a row of its bytes
    @pytest.mark.parametrize(
        "text",
        ["2", " 3.5 ", b"2", bytearray(b"2"), memoryview(b"2"), array.array("b", b"2")],
        ids=["str", "spaces", "bytes", "bytearray", "memoryview", "array"],
    )
    def test_numeric_text_is_no_number(self, text):
        with pytest.raises(DomainError) as exc:
            multi_bound(CONF, {"RRAUc": text, "RRUcY": 2})
        assert str(exc.value) == f"parameter RRAUc {BELOW_ONE}{text}"
        for axis in ([2, text], [text]):
            with pytest.raises(DomainError) as exc:
                grid_table(CONF, [("RRAUc", axis), ("RRUcY", [2])])
            assert str(exc.value) == f"parameter RRAUc {BELOW_ONE}{text}"

    @pytest.mark.parametrize(
        "a, b", [(Fraction(5, 2), Fraction(3)), (Decimal("2.5"), Decimal(3)), (np.float32(2.5), 3)]
    )
    def test_exact_numbers_give_the_results_of_the_equal_floats(self, a, b):
        values, floats = {"RRAUc": a, "RRUcY": b}, {"RRAUc": 2.5, "RRUcY": 3.0}
        assert g(a, b) == g(2.5, 3.0)
        assert multi_bound(CONF, values) == multi_bound(CONF, floats)
        table = grid_table(CONF, [("RRAUc", [a, b]), ("RRUcY", [b])])
        same = grid_table(CONF, [("RRAUc", [2.5, 3.0]), ("RRUcY", [3.0])])
        assert table.values.tolist() == same.values.tolist()
        shifted = adjust_estimate(CONF, values, a, a, b)
        assert shifted == adjust_estimate(CONF, floats, 2.5, 2.5, 3.0)
