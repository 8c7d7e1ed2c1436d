"""Bias declaration and parameter derivation tests."""

import pytest
from declarations import DECLARATIONS

from multibias import (
    BiasKind,
    BiasSpec,
    DuplicateBias,
    ParseError,
    RareOutcomeRequired,
    Scale,
    SelectedPopulationConflict,
    build_bias_set,
    confounding,
    misclassification,
    parameter_summary,
    selection,
)
from multibias.biases import parse_bias_string


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
