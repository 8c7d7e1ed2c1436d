"""Bias declaration and parameter derivation tests."""

import copy
import pickle
import re
from dataclasses import replace

import pytest
from declarations import DECLARATIONS

from multibias import (
    BiasKind,
    BiasSet,
    BiasSpec,
    DuplicateBias,
    ParseError,
    RareOutcomeRequired,
    Scale,
    SelectedPopulationConflict,
    adjust_estimate,
    build_bias_set,
    confounding,
    evalue_curve,
    evalue_polynomial,
    generate_world,
    grid_table,
    misclassification,
    multi_bound,
    multi_evalue,
    parameter_summary,
    risk_ratio,
    selection,
    solve_polynomial,
    to_risk_ratio,
    verify_bound,
)
from multibias.biases import _derive, parse_bias_string
from multibias.oracle import STRUCTURES


# (name, display, latex, scale, degree) of every parameter the grammar reaches
GOLDEN_SYMBOLS = {
    ("ORYAa", "OR_YA*|a", r"\mathrm{OR}_{YA^* \mid a}", Scale.ODDS_RATIO, 2),
    ("ORYAaS", "OR_YA*|a,S", r"\mathrm{OR}_{YA^* \mid a, S = 1}", Scale.ODDS_RATIO, 2),
    ("RRAUc", "RR_AUc", r"\mathrm{RR}_{AU_c}", Scale.RISK_RATIO, 1),
    ("RRAUscS", "RR_AUsc|S", r"\mathrm{RR}_{AU_{sc} \mid S = 1}", Scale.RISK_RATIO, 1),
    ("RRAYy", "RR_AY*|y", r"\mathrm{RR}_{AY^* \mid y}", Scale.RISK_RATIO, 1),
    ("RRAYyS", "RR_AY*|y,S", r"\mathrm{RR}_{AY^* \mid y, S = 1}", Scale.RISK_RATIO, 1),
    ("RRSUsA0", "RR_SUs|A*=0", r"\mathrm{RR}_{SU_s \mid A^* = 0}", Scale.RISK_RATIO, 1),
    ("RRSUsA0", "RR_SUs|A=0", r"\mathrm{RR}_{SU_s \mid A = 0}", Scale.RISK_RATIO, 1),
    ("RRSUsA1", "RR_SUs|A*=1", r"\mathrm{RR}_{SU_s \mid A^* = 1}", Scale.RISK_RATIO, 1),
    ("RRSUsA1", "RR_SUs|A=1", r"\mathrm{RR}_{SU_s \mid A = 1}", Scale.RISK_RATIO, 1),
    ("RRSYA0", "RR_SY*|A=0", r"\mathrm{RR}_{SY^* \mid A = 0}", Scale.RISK_RATIO, 1),
    ("RRSYA0", "RR_SY|A*=0", r"\mathrm{RR}_{SY \mid A^* = 0}", Scale.RISK_RATIO, 1),
    ("RRSYA0", "RR_SY|A=0", r"\mathrm{RR}_{SY \mid A = 0}", Scale.RISK_RATIO, 1),
    ("RRSYA1", "RR_SY*|A=1", r"\mathrm{RR}_{SY^* \mid A = 1}", Scale.RISK_RATIO, 1),
    ("RRSYA1", "RR_SY|A*=1", r"\mathrm{RR}_{SY \mid A^* = 1}", Scale.RISK_RATIO, 1),
    ("RRSYA1", "RR_SY|A=1", r"\mathrm{RR}_{SY \mid A = 1}", Scale.RISK_RATIO, 1),
    ("RRUcY", "RR_UcY", r"\mathrm{RR}_{U_cY}", Scale.RISK_RATIO, 1),
    ("RRUsYA0", "RR_UsY*|A=0", r"\mathrm{RR}_{U_sY^* \mid A = 0}", Scale.RISK_RATIO, 1),
    ("RRUsYA0", "RR_UsY|A*=0", r"\mathrm{RR}_{U_sY \mid A^* = 0}", Scale.RISK_RATIO, 1),
    ("RRUsYA0", "RR_UsY|A=0", r"\mathrm{RR}_{U_sY \mid A = 0}", Scale.RISK_RATIO, 1),
    ("RRUsYA1", "RR_UsY*|A=1", r"\mathrm{RR}_{U_sY^* \mid A = 1}", Scale.RISK_RATIO, 1),
    ("RRUsYA1", "RR_UsY|A*=1", r"\mathrm{RR}_{U_sY \mid A^* = 1}", Scale.RISK_RATIO, 1),
    ("RRUsYA1", "RR_UsY|A=1", r"\mathrm{RR}_{U_sY \mid A = 1}", Scale.RISK_RATIO, 1),
    ("RRUscYS", "RR_UscY|S", r"\mathrm{RR}_{U_{sc}Y \mid S = 1}", Scale.RISK_RATIO, 1),
    ("RRYAa", "RR_YA*|a", r"\mathrm{RR}_{YA^* \mid a}", Scale.RISK_RATIO, 1),
    ("RRYAaS", "RR_YA*|a,S", r"\mathrm{RR}_{YA^* \mid a, S = 1}", Scale.RISK_RATIO, 1),
}


def names(bias_set):
    return [p.name for p in bias_set.parameters]


class TestParameterDerivation:
    def test_confounding_alone(self):
        assert names(build_bias_set([confounding()])) == ["RRAUc", "RRUcY"]

    def test_selection_alone_has_both_arms(self):
        bs = build_bias_set([selection()])
        assert names(bs) == ["RRUsYA1", "RRSUsA1", "RRUsYA0", "RRSUsA0"]

    def test_increased_risk_keeps_only_exposed_arm(self):
        bs = build_bias_set([confounding(), selection(risk_direction="increased")])
        assert names(bs) == ["RRAUc", "RRUcY", "RRUsYA1", "RRSUsA1"]

    def test_decreased_risk_keeps_only_unexposed_arm(self):
        bs = build_bias_set([selection(risk_direction="decreased")])
        assert names(bs) == ["RRUsYA0", "RRSUsA0"]

    def test_s_equals_u_collapses_each_arm_to_one_parameter(self):
        bs = build_bias_set([selection(s_equals_u=True)])
        assert names(bs) == ["RRSYA1", "RRSYA0"]
        assert [p.display for p in bs.parameters] == ["RR_SY|A=1", "RR_SY|A=0"]

    def test_s_equals_u_with_increased_risk(self):
        bs = build_bias_set(
            [selection(risk_direction="increased", s_equals_u=True)]
        )
        assert names(bs) == ["RRSYA1"]
        assert bs.parameters[0].degree == 1

    def test_selection_before_misclassification_conditions_on_s(self):
        bs = build_bias_set(
            [selection(), misclassification("exposure", rare_outcome=True)]
        )
        assert names(bs) == [
            "RRUsYA1",
            "RRSUsA1",
            "RRUsYA0",
            "RRSUsA0",
            "ORYAaS",
        ]
        assert bs.parameters[-1].display == "OR_YA*|a,S"

    def test_misclassification_first_stars_the_selection_rows(self):
        bs = build_bias_set(
            [misclassification("exposure", rare_outcome=True), selection()]
        )
        assert names(bs) == [
            "RRUsYA1",
            "RRSUsA1",
            "RRUsYA0",
            "RRSUsA0",
            "ORYAa",
        ]
        displays = [p.display for p in bs.parameters]
        assert displays[:4] == [
            "RR_UsY|A*=1",
            "RR_SUs|A*=1",
            "RR_UsY|A*=0",
            "RR_SUs|A*=0",
        ]
        assert displays[-1] == "OR_YA*|a"

    def test_outcome_misclassification_first_stars_y(self):
        bs = build_bias_set([misclassification("outcome"), selection()])
        assert names(bs) == ["RRUsYA1", "RRSUsA1", "RRUsYA0", "RRSUsA0", "RRAYy"]
        assert bs.parameters[0].display == "RR_UsY*|A=1"
        assert bs.parameters[-1].display == "RR_AY*|y"

    def test_selected_population_uses_joint_parameters(self):
        bs = build_bias_set(
            [
                confounding(),
                selection("selected"),
                misclassification("exposure", rare_outcome=True),
            ]
        )
        assert names(bs) == ["RRAUscS", "RRUscYS", "ORYAaS"]
        assert bs.parameters[0].bias == "confounding and selection"

    def test_selected_without_confounding_is_labeled_selection(self):
        bs = build_bias_set([selection("selected")])
        assert names(bs) == ["RRAUscS", "RRUscYS"]
        assert bs.parameters[0].bias == "selection"

    def test_rare_exposure_downgrades_odds_ratio_to_risk_ratio(self):
        bs = build_bias_set(
            [misclassification("exposure", rare_outcome=True, rare_exposure=True)]
        )
        assert names(bs) == ["RRYAa"]
        assert bs.parameters[0].scale is Scale.RISK_RATIO
        assert bs.parameters[0].degree == 1

    def test_exposure_parameter_is_an_odds_ratio_of_degree_two(self):
        bs = build_bias_set([misclassification("exposure", rare_outcome=True)])
        p = bs.parameters[0]
        assert p.name == "ORYAa"
        assert p.scale is Scale.ODDS_RATIO
        assert p.degree == 2
        assert p.evalue_name == "RRYAa"

    def test_canonical_order_ignores_declaration_order(self):
        forward = build_bias_set([confounding(), selection()])
        backward = build_bias_set([selection(), confounding()])
        assert names(forward) == names(backward)

    def test_every_symbol_matches_the_golden_rows(self):
        got = {
            (p.name, p.display, p.latex, p.scale, p.degree)
            for declared in DECLARATIONS
            for p in build_bias_set(declared).parameters
        }
        assert got == GOLDEN_SYMBOLS

    def test_argument_names_are_unique_within_each_set(self):
        # names drop the star, so a starred symbol and its unstarred twin
        # would collide; no declaration yields both in one set
        for declared in DECLARATIONS:
            bias_set = build_bias_set(declared)
            assert len(set(names(bias_set))) == len(bias_set.parameters), bias_set.label

    def test_deterministic(self):
        specs = [confounding(), selection(), misclassification("outcome")]
        assert build_bias_set(specs) == build_bias_set(specs)


# each call that takes a bias set, and values that are none
BIAS_SET_CALLS = {
    "multi_bound": lambda bs: multi_bound(bs, {"RRAUc": 2.0, "RRUcY": 2.0}),
    "multi_evalue": lambda bs: multi_evalue(bs, risk_ratio(2.0)),
    "adjust_estimate": lambda bs: adjust_estimate(bs, {"RRAUc": 2.0, "RRUcY": 2.0}, 2.0, 1.0, 3.0),
    "evalue_polynomial": evalue_polynomial,
    "parameter_summary": parameter_summary,
    "grid_table": lambda bs: grid_table(bs, [("RRAUc", [1.0, 2.0]), ("RRUcY", [2.0])]),
    "verify_bound": lambda bs: verify_bound(generate_world(STRUCTURES["result1"][0], 0), bs),
    "evalue_curve": lambda bs: evalue_curve([build_bias_set(confounding()), bs], [2.0]),
}
NO_BIAS_SETS = {
    "str": ("confounding", "confounding"),
    "none": (None, "None"),
    "spec": (confounding(), re.escape(repr(confounding()))),
}
# calls given an argument of another type than they take, and the error each raises
WRONG_TYPES = {
    "multi_evalue_of_a_float": (
        lambda: multi_evalue(build_bias_set(confounding()), 2.0),
        "estimate must be an EffectEstimate, as risk_ratio and odds_ratio return; got 2.0",
    ),
    "to_risk_ratio_of_a_float": (
        lambda: to_risk_ratio(2.0),
        "estimate must be an EffectEstimate, as risk_ratio and odds_ratio return; got 2.0",
    ),
    "solve_polynomial_of_a_tuple": (
        lambda: solve_polynomial((2, 1), 2.0),
        r"polynomial must be an EValuePolynomial, as evalue_polynomial returns; got \(2, 1\)",
    ),
    "verify_bound_of_none": (
        lambda: verify_bound(None, build_bias_set(confounding())),
        "world must be a World, as generate_world returns; got None",
    ),
    "generate_world_of_none": (
        lambda: generate_world(None, 1),
        "config must be a WorldConfig; got None",
    ),
    "build_bias_set_of_an_int": (
        lambda: build_bias_set([1]),
        r"each of biases must be a BiasSpec, such as confounding\(\); got 1",
    ),
    "build_bias_set_of_a_str": (
        lambda: build_bias_set("confounding"),
        "biases must be a BiasSpec, or an iterable of them; got confounding",
    ),
    "build_bias_set_of_none": (
        lambda: build_bias_set(None),
        "biases must be a BiasSpec, or an iterable of them; got None",
    ),
    "build_bias_set_of_a_list_in_a_list": (
        lambda: build_bias_set([[1]]),
        r"biases must be a BiasSpec, or an iterable of them; got \[\[1\]\]",
    ),
    "parse_bias_string_of_none": (
        lambda: parse_bias_string(None),
        "text must be a str; got None",
    ),
    "bias_spec_of_a_str": (
        lambda: BiasSpec("confounding"),
        "kind must be a BiasKind, such as BiasKind.CONFOUNDING; got confounding",
    ),
}


class TestValidation:
    def test_empty_set_rejected(self):
        with pytest.raises(ParseError):
            build_bias_set([])

    def test_duplicate_bias_rejected(self):
        with pytest.raises(DuplicateBias):
            build_bias_set([confounding(), confounding()])

    def test_exposure_misclassification_requires_rare_outcome(self):
        with pytest.raises(RareOutcomeRequired):
            build_bias_set([misclassification("exposure")])

    def test_selected_population_conflicts_with_risk_direction(self):
        with pytest.raises(SelectedPopulationConflict):
            build_bias_set([selection("selected", risk_direction="increased")])

    def test_selected_population_conflicts_with_s_equals_u(self):
        with pytest.raises(SelectedPopulationConflict):
            build_bias_set([selection("selected", s_equals_u=True)])

    def test_bias_spec_rejects_options_for_wrong_kind(self):
        with pytest.raises(ParseError):
            BiasSpec(BiasKind.CONFOUNDING, population="selected")
        with pytest.raises(ParseError):
            BiasSpec(BiasKind.SELECTION, variable="outcome")
        with pytest.raises(ParseError):
            BiasSpec(BiasKind.MISCLASSIFICATION, variable="dose")

    def test_bias_spec_takes_only_values_its_clause_options_stand_for(self):
        with pytest.raises(ParseError):
            selection(risk_direction="up")
        with pytest.raises(ParseError):
            selection(s_equals_u="yes")
        with pytest.raises(ParseError, match="needs a variable"):
            BiasSpec(BiasKind.MISCLASSIFICATION)

    def test_single_spec_accepted_without_list(self):
        assert names(build_bias_set(confounding())) == ["RRAUc", "RRUcY"]

    @pytest.mark.parametrize(
        "call, message",
        [
            *(
                pytest.param(
                    lambda call=call, bad=bad: call(bad),
                    " must be a BiasSet, as build_bias_set and parse_bias_string return; "
                    f"got {shown}$",
                    id=f"{bad_id}-{call_id}",
                )
                for call_id, call in BIAS_SET_CALLS.items()
                for bad_id, (bad, shown) in NO_BIAS_SETS.items()
            ),
            *(
                pytest.param(call, f"^{message}$", id=call_id)
                for call_id, (call, message) in WRONG_TYPES.items()
            ),
        ],
    )
    def test_a_bias_set_that_is_no_bias_set_is_a_parse_error(self, call, message):
        # each raised AttributeError, TypeError or KeyError from the first
        # use it made of the argument, as do the calls of WRONG_TYPES with
        # arguments of other types
        with pytest.raises(ParseError) as exc:
            call()
        assert re.search(message, str(exc.value)), str(exc.value)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda bs: evalue_curve(bs, [2.0]), "bias_sets must be a sequence of BiasSets"),
            (lambda bs: evalue_curve(iter([bs]), [2.0]), "bias_sets must be a sequence"),
            # a str is a sequence, but of characters
            (
                lambda bs: evalue_curve(bs.label, [2.0]),
                "bias_sets must be a sequence of BiasSets, got confounding$",
            ),
            (
                lambda bs: grid_table(bs, iter([("RRAUc", [1.0]), ("RRUcY", [2.0])])),
                "vary must be a sequence of two pairs",
            ),
        ],
        ids=["curve_of_a_set", "curve_of_an_iterator", "curve_of_a_str", "grid_of_an_iterator"],
    )
    def test_bias_sets_and_axes_that_are_no_sequence_are_a_parse_error(self, call, message):
        # each raised TypeError from len(), or AttributeError from a character
        with pytest.raises(ParseError, match=message):
            call(build_bias_set(confounding()))


class TestSummary:
    def test_rows_match_parameters(self):
        bs = build_bias_set([confounding(), selection(risk_direction="increased")])
        rows = parameter_summary(bs)
        assert rows == [
            ("confounding", "RR_AUc", "RRAUc"),
            ("confounding", "RR_UcY", "RRUcY"),
            ("selection", "RR_UsY|A=1", "RRUsYA1"),
            ("selection", "RR_SUs|A=1", "RRSUsA1"),
        ]

    def test_latex_column_appended(self):
        bs = build_bias_set([confounding()])
        rows = parameter_summary(bs, include_latex=True)
        assert rows[0] == (
            "confounding",
            "RR_AUc",
            "RRAUc",
            r"\mathrm{RR}_{AU_c}",
        )

    def test_misclassification_bias_labels(self):
        bs = build_bias_set([selection(), misclassification("exposure", rare_outcome=True)])
        assert parameter_summary(bs)[-1][0] == "exposure misclassification"
        bs = build_bias_set([misclassification("outcome")])
        assert parameter_summary(bs)[0][0] == "outcome misclassification"


class TestLabel:
    def test_every_label_parses_back_to_its_declarations(self):
        for declared in DECLARATIONS:
            bs = build_bias_set(declared)
            assert parse_bias_string(bs.label).biases == bs.biases, bs.label

    def test_label_round_trips_the_clause_syntax(self):
        bs = build_bias_set(
            [
                confounding(),
                selection(risk_direction="increased", s_equals_u=True),
                misclassification("exposure", rare_outcome=True),
            ]
        )
        assert bs.label == (
            "confounding + selection(general, increased_risk, s_equals_u)"
            " + misclassification(exposure, rare_outcome)"
        )

    def test_repr_names_the_set_by_its_label(self):
        # the dataclass repr printed every spec and parameter field
        for declared in DECLARATIONS:
            bs = build_bias_set(declared)
            assert repr(bs) == f"<BiasSet {bs.label!r}>"
            for twin in (pickle.loads(pickle.dumps(bs)), copy.deepcopy(bs), replace(bs)):
                assert twin == bs and hash(twin) == hash(bs) and repr(twin) == repr(bs)


# the declarations TestValidation rejects, each with its error class
REJECTED = [
    ([], ParseError),
    ([confounding(), confounding()], DuplicateBias),
    ([misclassification("exposure")], RareOutcomeRequired),
    ([selection("selected", risk_direction="increased")], SelectedPopulationConflict),
    ([selection("selected", s_equals_u=True)], SelectedPopulationConflict),
]


class TestDerivedOnce:
    def test_equal_declarations_give_the_same_set(self):
        for declared in DECLARATIONS:
            bs = build_bias_set(declared)
            assert build_bias_set(list(declared)) is bs, bs.label
            assert parse_bias_string(bs.label) is bs, bs.label

    def test_a_lone_spec_shares_the_set_of_its_one_element_sequence(self):
        assert build_bias_set(confounding()) is build_bias_set([confounding()])

    def test_declaration_order_is_part_of_the_key(self):
        forward = build_bias_set([selection(), misclassification("outcome")])
        backward = build_bias_set([misclassification("outcome"), selection()])
        assert forward is not backward
        assert forward.parameters != backward.parameters

    def test_cached_names_and_label_equal_a_fresh_derivation(self):
        for declared in DECLARATIONS:
            bs = build_bias_set(declared)
            assert bs.label == " + ".join(b.describe() for b in bs.biases)
            assert bs.parameter_names() == tuple(p.name for p in bs.parameters)
            assert bs.parameter_names() is bs.parameter_names()
            assert bs._evalue_names == tuple(p.evalue_name for p in bs.parameters)
            assert bs._evalue_names is build_bias_set(list(declared))._evalue_names

    def test_specs_built_apart_with_equal_fields_give_the_same_set(self):
        for declared in DECLARATIONS:
            apart = [BiasSpec(**vars(spec)) for spec in declared]
            assert all(a is not b and a == b for a, b in zip(apart, declared))
            assert build_bias_set(apart) is build_bias_set(declared)
            thawed = pickle.loads(pickle.dumps(apart))
            assert build_bias_set(thawed) is build_bias_set(declared)
            assert build_bias_set(copy.deepcopy(apart)) is build_bias_set(declared)

    def test_cached_values_leave_equality_hashing_and_repr_to_the_fields(self):
        bs = build_bias_set([confounding(), selection()])
        bs.label, bs.parameter_names()  # fill both caches
        twin = BiasSet(bs.biases, bs.parameters, bs.terms, bs.polynomial)
        assert twin == bs and hash(twin) == hash(bs)
        assert repr(twin) == repr(bs)

    @pytest.mark.parametrize("declared, error", REJECTED)
    def test_a_rejected_declaration_raises_on_every_call(self, declared, error):
        for _ in range(2):
            with pytest.raises(error):
                build_bias_set(declared)

    def test_the_memo_holds_at_most_the_valid_declarations(self):
        for declared in DECLARATIONS:
            build_bias_set(declared)
        for declared, error in REJECTED:
            with pytest.raises(error):
                build_bias_set(declared)
        assert len(DECLARATIONS) == 376
        assert _derive.cache_info().currsize <= len(DECLARATIONS)


class TestBiasKind:
    """The identity hash keeps what members did with the name hash."""

    @pytest.mark.parametrize("kind", list(BiasKind))
    def test_hash_equality_pickle_and_copy(self, kind):
        assert hash(kind) == hash(BiasKind(kind.value)) == hash(BiasKind[kind.name])
        assert kind == BiasKind(kind.value) and kind != kind.value
        assert [k for k in BiasKind if k == kind] == [kind]
        for twin in (pickle.loads(pickle.dumps(kind)), copy.copy(kind), copy.deepcopy(kind)):
            assert twin is kind and hash(twin) == hash(kind)
        assert {k: k.value for k in BiasKind}[pickle.loads(pickle.dumps(kind))] == kind.value
