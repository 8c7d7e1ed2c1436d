"""Command line interface tests, driven through main(argv)."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from declarations import DECLARATIONS
from multibias import build_bias_set, grid_table
from multibias.biases import NAMED_BIAS_SETS
from multibias.cli import main, parse_bias_string
from multibias.errors import ParseError

HIV = "confounding + selection(general, increased_risk)"
LEUK = "confounding + misclassification(exposure, rare_outcome)"
EIGHT_THREE = "confounding + selection + misclassification(exposure, rare_outcome)"
SRC = Path(__file__).resolve().parent.parent / "src"


def _strict_json(text: str):
    """Parse JSON, refusing the NaN and Infinity constants Python would accept."""

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


def _evalue_cells(out: str) -> list[str]:
    line = next(l for l in out.splitlines() if l.startswith("Multi-bias e-values"))
    return line.removeprefix("Multi-bias e-values").split()


def _run_strict(argv: list[str]) -> tuple[int, str, str]:
    """main(argv) with every warning an error; its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# curve ranges whose np.linspace overflows computing the last point, which
# it then pins to rr-max
LINSPACE_OVERFLOW = [
    ["curve", "--bias-sets", "confounding", "--rr-max", "1.7976931348623157e308"],
    ["curve", "--bias-sets", "confounding + selection(general)"]
    + ["--rr-min", "1e308", "--rr-max", "1.7976931348623157e308"],
]


class TestParseBiasString:
    def test_full_clause_string(self):
        bs = parse_bias_string(
            "confounding + selection(general, increased_risk)"
            " + misclassification(exposure, rare_outcome)"
        )
        assert bs.label == (
            "confounding + selection(general, increased_risk)"
            " + misclassification(exposure, rare_outcome)"
        )

    def test_bare_names_allowed(self):
        assert parse_bias_string("selection").parameter_names() == (
            "RRUsYA1",
            "RRSUsA1",
            "RRUsYA0",
            "RRSUsA0",
        )

    def test_declaration_order_preserved(self):
        bs = parse_bias_string("misclassification(outcome) + selection")
        assert bs.parameter_names()[-1] == "RRAYy"
        bs = parse_bias_string("selection + misclassification(outcome)")
        assert bs.parameter_names()[-1] == "RRAYyS"

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "confounding(extra)",
            "selection(fast)",
            "selection(general, selected)",
            "selection(increased_risk, decreased_risk)",
            "misclassification",
            "misclassification(outcome, exposure)",
            "misclassification(dose)",
            "gravity",
            "confounding + selection(general",
            "confounding) + selection(",
            "confounding ++ selection",
            "selection((general))",
            "selection(general)(x)",
            "confounding + selection(general + increased_risk)",
            "selection(general, general)",
            "selection(s_equals_u, s_equals_u)",
            "selection(increased_risk, increased_risk)",
            "misclassification(outcome, outcome)",
            "misclassification(outcome, rare_outcome, rare_outcome)",
            "misclassification(exposure, rare_outcome, rare_exposure, rare_exposure)",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ParseError):
            parse_bias_string(text)


class TestBoundCommand:
    def test_hiv_bound_text(self, capsys):
        rc = main(
            [
                "bound",
                "--biases",
                HIV,
                "--param",
                "RRAUc=2.3",
                "--param",
                "RRUcY=2.5",
                "--param",
                "RRUsYA1=3",
                "--param",
                "RRSUsA1=2",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out.strip() == "2.269737"

    def test_json_format(self, capsys):
        rc = main(
            [
                "bound",
                "--biases",
                "confounding",
                "--param",
                "RRAUc=2",
                "--param",
                "RRUcY=2",
                "--format",
                "json",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        payload = json.loads(captured.out)
        assert payload["schema_version"] == 1
        assert payload["bound"] == pytest.approx(4 / 3)
        assert payload["parameters"] == {"RRAUc": 2.0, "RRUcY": 2.0}

    def test_missing_parameter_exits_2_and_names_it(self, capsys):
        rc = main(
            [
                "bound",
                "--biases",
                HIV,
                "--param",
                "RRAUc=2.3",
                "--param",
                "RRUcY=2.5",
                "--param",
                "RRUsYA1=3",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "RRSUsA1" in captured.err
        assert "RRAUc, RRUcY, RRUsYA1, RRSUsA1" in captured.err

    def test_bad_bias_string_exits_2(self, capsys):
        rc = main(["bound", "--biases", "confounding + confound(", "--param", "x=1"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_number_exits_2(self, capsys):
        rc = main(["bound", "--biases", "confounding", "--param", "RRAUc=two"])
        assert rc == 2
        assert "not a number" in capsys.readouterr().err

    def test_value_below_one_exits_2(self, capsys):
        rc = main(
            [
                "bound",
                "--biases",
                "confounding",
                "--param",
                "RRAUc=0.5",
                "--param",
                "RRUcY=2",
            ]
        )
        assert rc == 2
        assert "at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("repeat", ["RRAUc=3", " RRAUc =2"])
    def test_repeated_param_exits_2(self, capsys, repeat):
        rc = main(
            [
                "bound",
                "--biases",
                "confounding",
                "--param",
                "RRAUc=2",
                "--param",
                repeat,
                "--param",
                "RRUcY=3",
            ]
        )
        assert rc == 2
        assert "RRAUc is given more than once" in capsys.readouterr().err


class TestEvalueCommand:
    def test_hiv_output(self, capsys):
        rc = main(
            [
                "evalue",
                "--biases",
                HIV,
                "--est",
                "6.75",
                "--measure",
                "OR",
                "--rare",
                "--lo",
                "2.79",
                "--hi",
                "16.31",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "4.635703" in captured.out
        assert "2.728474" in captured.out
        assert "NA" in captured.out
        assert "RRAUc, RRUcY, RRUsYA1, RRSUsA1" in captured.out
        assert "non-null" not in captured.out

    def test_nonnull_notice_and_values(self, capsys):
        rc = main(
            [
                "evalue",
                "--biases",
                HIV,
                "--est",
                "6.75",
                "--measure",
                "OR",
                "--rare",
                "--lo",
                "2.79",
                "--hi",
                "16.31",
                "--true",
                "2",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        cells = _evalue_cells(captured.out)
        assert float(cells[0]) == pytest.approx(3.077243, abs=1e-4)
        assert float(cells[1]) == pytest.approx(1.643623, abs=1e-4)
        assert cells[2] == "NA"
        assert 'calculating a "non-null" multi-bias E-value' in captured.out
        assert "true value of 2 rather than to the null value" in captured.out

    def test_protective_estimate_output(self, capsys):
        rc = main(
            [
                "evalue",
                "--biases",
                LEUK,
                "--est",
                "0.51",
                "--measure",
                "OR",
                "--rare",
                "--lo",
                "0.3",
                "--hi",
                "0.89",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        lines = [l for l in captured.out.splitlines() if l.startswith("RR ")]
        assert "0.51" in lines[0] and "0.89" in lines[0]
        cells = _evalue_cells(captured.out)
        assert float(cells[0]) == pytest.approx(1.351985, abs=1e-4)
        assert cells[1] == "NA"
        assert float(cells[2]) == pytest.approx(1.058404, abs=1e-4)
        assert "RRAUc, RRUcY, RRYAa" in captured.out

    def test_json_format(self, capsys):
        rc = main(
            [
                "evalue",
                "--biases",
                "confounding",
                "--est",
                "2.0",
                "--lo",
                "1.5",
                "--format",
                "json",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        payload = json.loads(captured.out)
        assert payload["schema_version"] == 1
        assert payload["evalue_point"] == pytest.approx(2 + 2**0.5, rel=1e-9)
        assert payload["evalue_hi"] is None

    def test_json_payload(self, capsys):
        argv = ["evalue", "--biases", "confounding", "--est", "2", "--lo", "1.5"]
        assert main(argv + ["--format", "json"]) == 0
        payload = _strict_json(capsys.readouterr().out)
        assert list(payload) == [
            "schema_version",
            "biases",
            "true_value",
            "point",
            "lo",
            "hi",
            "evalue_point",
            "evalue_lo",
            "evalue_hi",
            "parameters",
        ]
        assert payload["schema_version"] == 1
        assert payload["point"] == 2.0
        assert payload["hi"] is None
        assert payload["evalue_hi"] is None
        assert payload["evalue_lo"] == pytest.approx(
            1.5 + math.sqrt(1.5 * 0.5), rel=1e-9
        )
        assert payload["parameters"] == ["RRAUc", "RRUcY"]

    def test_hazard_ratio_rejected(self, capsys):
        rc = main(["evalue", "--biases", "confounding", "--est", "2", "--measure", "HR"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "hazard" in captured.err

    @pytest.mark.parametrize("measure", ["rr", "or"])
    def test_lower_case_measure_names_accepted_spellings(self, measure, capsys):
        rc = main(["evalue", "--biases", "confounding", "--est", "2", "--measure", measure])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"unknown measure '{measure}': use RR or OR" in captured.err

    def test_plain_risk_ratio_default_measure(self, capsys):
        rc = main(["evalue", "--biases", "confounding", "--est", "10.73"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "20.94777" in captured.out


class TestSummaryCommand:
    def test_hiv_summary_table(self, capsys):
        rc = main(["summary", "--biases", HIV])
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.splitlines()
        assert lines[0].split() == ["bias", "output", "argument"]
        assert lines[1].split() == ["1", "confounding", "RR_AUc", "RRAUc"]
        assert lines[4].split() == ["4", "selection", "RR_SUs|A=1", "RRSUsA1"]

    def test_latex_column(self, capsys):
        rc = main(["summary", "--biases", "confounding", "--latex"])
        captured = capsys.readouterr()
        assert rc == 0
        assert r"\mathrm{RR}_{AU_c}" in captured.out

    def test_selected_population_labels(self, capsys):
        rc = main(
            [
                "summary",
                "--biases",
                "confounding + selection(selected) + misclassification(exposure, rare_outcome)",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "confounding and selection" in captured.out
        assert "OR_YA*|a,S" in captured.out
        assert "ORYAaS" in captured.out


class TestGridCommand:
    def test_text_output(self, capsys):
        rc = main(
            [
                "grid",
                "--biases",
                "confounding",
                "--vary",
                "RRAUc=2:3:0.5",
                "--vary",
                "RRUcY=2:3:0.5",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "rows: RRAUc, columns: RRUcY" in captured.out
        assert "1.333333" in captured.out  # g(2, 2)
        assert "1.800000" in captured.out  # g(3, 3)

    def test_csv_output_parses(self, capsys):
        rc = main(
            [
                "grid",
                "--biases",
                HIV,
                "--vary",
                "RRAUc=1.25:3:0.25",
                "--vary",
                "RRUcY=1.25:3:0.25",
                "--param",
                "RRUsYA1=2",
                "--param",
                "RRSUsA1=2",
                "--format",
                "csv",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.strip().splitlines()
        assert len(lines) == 9
        header = lines[0].split(",")
        assert header[1] == "1.25" and header[-1] == "3.0"
        first = lines[1].split(",")
        # g(1.25, 1.25) * g(2, 2)
        assert float(first[1]) == pytest.approx(1.5625 / 1.5 * 4 / 3, rel=1e-9)

    def test_csv_round_trip(self, capsys):
        vary = [("RRAUc", [1.5, 2.0]), ("RRUcY", [1.5, 2.0, 3.0])]
        argv = ["grid", "--biases", "confounding", "--format", "csv"]
        argv += ["--vary", "RRAUc=1.5,2.0", "--vary", "RRUcY=1.5,2.0,3.0"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == ",1.5,2.0,3.0"
        parsed = [[float(x) for x in line.split(",")[1:]] for line in lines[1:]]
        # str(float) round-trips, so every cell comes back exactly
        assert parsed == grid_table(parse_bias_string("confounding"), vary).values.tolist()
        assert [line.split(",")[0] for line in lines[1:]] == ["1.5", "2.0"]

    def test_json_payload(self, capsys):
        argv = ["grid", "--biases", HIV, "--vary", "RRAUc=2", "--vary", "RRUcY=3"]
        argv += ["--param", "RRSUsA1=1.5", "--param", "RRUsYA1=2", "--format", "json"]
        assert main(argv) == 0
        payload = _strict_json(capsys.readouterr().out)
        assert list(payload) == [
            "schema_version",
            "biases",
            "row_parameter",
            "col_parameter",
            "row_values",
            "col_values",
            "fixed",
            "values",
        ]
        assert payload["schema_version"] == 1
        assert payload["biases"] == HIV
        assert payload["row_parameter"] == "RRAUc"
        assert payload["col_parameter"] == "RRUcY"
        # the fixed values in parameter order, not in the order given
        assert list(payload["fixed"].items()) == [("RRUsYA1", 2.0), ("RRSUsA1", 1.5)]
        assert payload["values"] == [[pytest.approx(1.5 * 1.2)]]  # g(2, 3) * g(2, 1.5)

    @pytest.mark.parametrize(
        "flag, value, form",
        [
            ("--vary", " =1,2", "NAME=START:STOP:STEP or NAME=v1,v2,..."),
            ("--param", " =2", "NAME=VALUE"),
        ],
        ids=["vary", "param"],
    )
    def test_blank_name_is_rejected(self, flag, value, form, capsys):
        argv = ["grid", "--biases", HIV, "--vary", "RRAUc=1,2", "--vary", "RRUcY=1,2"]
        argv += ["--param", "RRUsYA1=2", "--param", "RRSUsA1=2", flag, value]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: expected {form}, got {value!r}\n"

    @pytest.mark.parametrize("value", ["RRAUc=1:2", "RRAUc=1:2:0", "RRAUc=,"])
    def test_malformed_vary_exits_2_with_one_error_line(self, value, capsys):
        assert main(["grid", "--biases", "confounding", "--vary", value, "--vary", "RRUcY=2"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: RRAUc: ") and err.count("\n") == 1

    def test_comma_list_values(self, capsys):
        rc = main(
            [
                "grid",
                "--biases",
                "confounding",
                "--vary",
                "RRAUc=2,4",
                "--vary",
                "RRUcY=8",
                "--format",
                "json",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        payload = json.loads(captured.out)
        assert payload["row_values"] == [2.0, 4.0]
        assert payload["col_values"] == [8.0]
        assert payload["values"][1][0] == pytest.approx(32 / 11, rel=1e-9)

    def test_requires_two_vary_flags(self, capsys):
        rc = main(["grid", "--biases", "confounding", "--vary", "RRAUc=2:3:0.5"])
        assert rc == 2
        assert "two" in capsys.readouterr().err

    def test_rejects_bad_range(self, capsys):
        rc = main(
            [
                "grid",
                "--biases",
                "confounding",
                "--vary",
                "RRAUc=3:2:0.5",
                "--vary",
                "RRUcY=2:3:0.5",
            ]
        )
        assert rc == 2

    def test_repeated_param_exits_2(self, capsys):
        rc = main(
            [
                "grid",
                "--biases",
                HIV,
                "--vary",
                "RRAUc=2:3:0.5",
                "--vary",
                "RRUcY=2:3:0.5",
                "--param",
                "RRUsYA1=2",
                "--param",
                "RRSUsA1=2",
                "--param",
                "RRUsYA1=3",
            ]
        )
        assert rc == 2
        assert "RRUsYA1 is given more than once" in capsys.readouterr().err


class TestCurveCommand:
    def test_text_and_values(self, capsys):
        rc = main(
            [
                "curve",
                "--bias-sets",
                "confounding, confounding + selection(general)",
                "--rr-min",
                "1",
                "--rr-max",
                "4",
                "--points",
                "4",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.strip().splitlines()
        assert len(lines) == 9  # header + 2 sets x 4 points
        assert "confounding + selection(general)" in captured.out

    def test_json_points(self, capsys):
        rc = main(
            [
                "curve",
                "--bias-sets",
                "confounding",
                "--rr-min",
                "1",
                "--rr-max",
                "3",
                "--points",
                "3",
                "--format",
                "json",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        payload = json.loads(captured.out)
        assert payload["schema_version"] == 1
        assert [p["rr"] for p in payload["points"]] == [1.0, 2.0, 3.0]
        assert payload["points"][0]["evalue"] == 1.0
        assert payload["points"][2]["evalue"] == pytest.approx(3 + 6**0.5, rel=1e-9)

    def test_csv(self, capsys):
        rc = main(
            [
                "curve",
                "--bias-sets",
                "confounding",
                "--points",
                "2",
                "--rr-max",
                "2",
                "--format",
                "csv",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.strip().splitlines()
        assert lines[0] == "rr,biases,evalue"
        assert len(lines) == 3

    @pytest.mark.parametrize(
        "bias_sets, labels",
        [
            (f"confounding, {HIV}", ["confounding", HIV]),
            # a comma inside a clause's parentheses separates options, not sets
            (
                "selection(general, increased_risk), confounding",
                ["selection(general, increased_risk)", "confounding"],
            ),
        ],
    )
    def test_csv_rows_parse_and_carry_the_json_values(self, bias_sets, labels, capsys):
        argv = ["curve", "--bias-sets", bias_sets, "--points", "5"]
        assert main(argv + ["--format", "csv"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert main(argv + ["--format", "json"]) == 0
        points = _strict_json(capsys.readouterr().out)["points"]
        assert rows[0] == ["rr", "biases", "evalue"]
        assert all(len(row) == 3 for row in rows)
        assert [[float(rr), label, float(e)] for rr, label, e in rows[1:]] == [
            [p["rr"], p["biases"], p["evalue"]] for p in points
        ]
        assert list(dict.fromkeys(p["biases"] for p in points)) == labels

    def test_bad_range_rejected(self, capsys):
        rc = main(["curve", "--bias-sets", "confounding", "--rr-min", "5", "--rr-max", "2"])
        assert rc == 2


class TestVerifyCommand:
    def test_streams_one_json_line_per_world(self, capsys):
        rc = main(["verify", "--structure", "result1", "--worlds", "3", "--seed", "11"])
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.strip().splitlines()
        assert len(lines) == 3
        for i, line in enumerate(lines):
            record = json.loads(line)
            assert set(record) == {
                "seed",
                "structure",
                "ratio",
                "bound",
                "slack",
                "prevalence",
            }
            assert record["seed"] == 11 + i
            assert record["structure"] == "result1"
            assert record["ratio"] <= record["bound"] + 1e-12

    def test_deterministic(self, capsys):
        main(["verify", "--structure", "selection", "--worlds", "5"])
        first = capsys.readouterr().out
        main(["verify", "--structure", "selection", "--worlds", "5"])
        assert capsys.readouterr().out == first

    def test_zero_worlds_is_empty_success(self, capsys):
        rc = main(["verify", "--structure", "confounding", "--worlds", "0"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out == ""

    def test_rare_ceiling_override(self, capsys):
        rc = main(
            [
                "verify",
                "--structure",
                "result2",
                "--worlds",
                "2",
                "--rare-ceiling",
                "0.001",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        for line in captured.out.strip().splitlines():
            assert json.loads(line)["prevalence"] <= 0.001

    def test_unknown_structure_rejected(self, capsys):
        rc = main(["verify", "--structure", "result9"])
        assert rc == 2

    @pytest.mark.parametrize("flag", ["--seed", "--worlds"])
    def test_negative_seed_or_worlds_names_the_flag(self, capsys, flag):
        rc = main(["verify", "--structure", "result1", flag, "-1"])
        assert rc == 2
        assert f"error: {flag} must be nonnegative" in capsys.readouterr().err


class TestRobustness:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--biases", "confounding", "--param", "RRAUc=inf"]
            + ["--param", "RRUcY=2"],
            ["evalue", "--biases", HIV, "--est", "inf"],
            ["evalue", "--biases", HIV, "--est", "nan"],
            ["curve", "--bias-sets", "confounding", "--rr-max", "inf"],
            ["grid", "--biases", "confounding", "--vary", "RRAUc=1:inf:1"]
            + ["--vary", "RRUcY=2"],
        ],
    )
    def test_non_finite_input_exits_2(self, argv, capsys):
        assert main(argv) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bias_sets", ["selection(general, increased_risk", "confounding), selection("]
    )
    def test_malformed_bias_sets_exit_2_with_one_error_line(self, bias_sets, capsys):
        assert main(["curve", "--bias-sets", bias_sets]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert f"--bias-sets {bias_sets!r}: " in err

    def test_clause_error_quotes_the_clause_as_written(self, capsys):
        assert main(["summary", "--biases", "confounding + selection(general"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: cannot parse bias clause 'selection(general'\n"

    def test_bound_json_stays_finite_and_strict(self, capsys):
        argv = ["bound", "--biases", "confounding", "--format", "json"]
        rc = main(argv + ["--param", "RRAUc=1e200", "--param", "RRUcY=1e200"])
        assert rc == 0
        payload = _strict_json(capsys.readouterr().out)
        assert payload["bound"] == pytest.approx(5e199, rel=1e-12)

    def test_huge_estimate_gets_a_finite_evalue(self, capsys):
        argv = ["evalue", "--biases", EIGHT_THREE, "--est", "1e300", "--format", "json"]
        assert main(argv) == 0
        assert _strict_json(capsys.readouterr().out)["evalue_point"] > 1e59

    @pytest.mark.parametrize(
        "argv",
        [
            ["curve", "--bias-sets", "confounding", "--points", "2000000000"],
            ["grid", "--biases", "confounding", "--vary", "RRAUc=1:1e12:1e-3"]
            + ["--vary", "RRUcY=2"],
            # a step count past the float range, not just over the cap
            ["grid", "--biases", "confounding", "--vary", "RRAUc=1:1e300:1e-300"]
            + ["--vary", "RRUcY=1:3:1"],
        ],
    )
    def test_oversized_sweep_exits_2_before_allocating(self, argv, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sweep values allocated before the size check")

        monkeypatch.setattr(np, "linspace", refuse)
        monkeypatch.setattr(np, "arange", refuse)
        assert main(argv) == 2
        assert "exceed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["--est", "1e-320"], "inverse"),
            (["--est", "1e-320", "--hi", "1e-310"], "inverse"),
            (["--est", "1e300", "--true", "1e-300"], "1e+300 / 1e-300"),
            (["--est", "1e-300", "--true", "1e-300"], "1e+300 / 1e-300"),
            (["--est", "1e308"], "E-value"),  # the root, about 2e308, overflows
        ],
    )
    def test_overflowing_evalue_target_is_named_not_inf(self, argv, named, capsys):
        assert main(["evalue", "--biases", "confounding", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "floating-point range" in err and named in err
        assert "inf" not in err

    def test_uninvertible_curve_ratio_exits_2_without_a_warning(self, capsys):
        argv = ["curve", "--bias-sets", "confounding", "--rr-min", "1e-320"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--rr-max", "2", "--points", "2"]) == 2
        assert "floating-point range" in capsys.readouterr().err

    def test_curve_step_overflowing_to_the_float_maximum_is_one_error_line(self):
        code, out, err = _run_strict(LINSPACE_OVERFLOW[0])
        assert (code, out) == (2, "")
        assert err == "error: an E-value exceeds the floating-point range\n"

    def test_curve_step_overflowing_before_a_finite_end_succeeds(self):
        code, out, err = _run_strict(LINSPACE_OVERFLOW[1] + ["--format", "json"])
        assert (code, err) == (0, "")
        rr = [p["rr"] for p in _strict_json(out)["points"]]
        assert len(rr) == 15 and rr[0] == 1e308 and rr[-1] == sys.float_info.max
        assert rr == sorted(rr)


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "bound" in capsys.readouterr().out

    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_a_plain_value_error_is_an_internal_error(self, capsys, monkeypatch):
        # only a BiasAnalysisError is the user's; any other exception is a fault
        # of the program, whatever its class
        def fault(text):
            raise ValueError("not a user error")

        monkeypatch.setattr("multibias.cli.parse_bias_string", fault)
        assert main(["summary", "--biases", "confounding"]) == 1
        assert capsys.readouterr().err == "internal error: not a user error\n"

    def test_closed_stdout_ends_quietly_with_the_sigpipe_status(self):
        # 2000 worlds fill far more than a pipe buffer, so the command is still
        # writing when the reader goes, whatever the timing
        argv = ["verify", "--structure", "result1", "--worlds", "2000"]
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        with subprocess.Popen(
            [sys.executable, "-m", "multibias.cli", *argv],
            env={**os.environ, "PYTHONPATH": path},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as proc:
            assert json.loads(proc.stdout.readline())["seed"] == 0
            proc.stdout.close()
            assert proc.wait(timeout=60) == 141
            assert proc.stderr.read() == b""


# the parameter names of each declaration, by label
PARAMETERS = {build_bias_set(d).label: build_bias_set(d).parameter_names() for d in DECLARATIONS}
EDGE_NUMBERS = ["nan", "inf", "-inf", "0", "-1", "5e-324", "1e308"]
EDGE_NUMBERS += ["1.7976931348623157e308", "", " "]
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
USAGE_ERROR = re.compile(r"usage: multibias .*\nmultibias[ a-z]*: error: [^\n]*\n", re.DOTALL)
RATIOS = st.floats(min_value=1.0, max_value=20.0)
ESTIMATES = st.floats(min_value=1e-3, max_value=1e3)
SPREADS = st.floats(min_value=0.5, max_value=4.0)  # below 1, a range upside down


def _number(draw, value: float) -> str:
    """repr(value), or one time in ten an edge case instead."""
    return repr(value) if draw(st.integers(0, 9)) else draw(st.sampled_from(EDGE_NUMBERS))


def _clause(draw) -> tuple[str, tuple[str, ...]]:
    """A declaration label, one time in four with one character edited, and
    the parameter names of the label as declared."""
    label = text = draw(st.sampled_from(list(PARAMETERS)))
    if not draw(st.integers(0, 3)):
        i = draw(st.integers(0, len(text) - 1))
        char = draw(st.sampled_from("(),+ _ae"))
        head, tail = text[:i], text[i + 1 :]
        # delete, insert before or replace the character at i
        text = draw(st.sampled_from([head + tail, head + char + text[i:], head + char + tail]))
    return text, PARAMETERS[label]


def _assignments(draw, names) -> list[str]:
    """--param NAME=VALUE for each name, one time in ten with one left out
    or a stray name added."""
    names = list(names)
    if names and not draw(st.integers(0, 9)):
        names.remove(draw(st.sampled_from(names)))
    if not draw(st.integers(0, 9)):
        names.append(draw(st.sampled_from(["RRAUc", "x", " "])))
    return [arg for name in names for arg in ("--param", f"{name}={_number(draw, draw(RATIOS))}")]


def _format(draw, *formats: str) -> list[str]:
    fmt = draw(st.sampled_from([None, *formats]))
    return [] if fmt is None else ["--format", fmt]


def _axis(draw) -> str:
    """A comma list or START:STOP:STEP range of at most five values, or one
    time in ten a range with an edge case in it."""
    if draw(st.booleans()):
        return ",".join(_number(draw, draw(RATIOS)) for _ in range(draw(st.integers(1, 4))))
    start = draw(RATIOS)
    step = draw(st.sampled_from([0.25, 1.0, 2.5]))
    bounds = [repr(start), repr(start + step * draw(st.integers(0, 4))), repr(step)]
    if not draw(st.integers(0, 9)):
        bounds[draw(st.integers(0, 2))] = draw(st.sampled_from(EDGE_NUMBERS))
    return ":".join(bounds)


def _curve(draw) -> list[str]:
    sets = ", ".join(_clause(draw)[0] for _ in range(draw(st.integers(1, 2))))
    argv = ["curve", "--bias-sets", sets]
    if draw(st.integers(0, 3)):
        low = draw(ESTIMATES)
        argv += ["--rr-min", _number(draw, low), "--rr-max", _number(draw, low * draw(SPREADS))]
    if draw(st.booleans()):
        argv += ["--points", draw(st.sampled_from(["-1", "0", "1", "2", "3", "50", "x"]))]
    return argv + _format(draw, "text", "csv", "json")


def _verify(draw) -> list[str]:
    structure = draw(st.sampled_from([*NAMED_BIAS_SETS, "result9"]))
    worlds = draw(st.sampled_from(["-1", "0", "1", "2", "3", "1.5"]))
    argv = ["verify", "--structure", structure, "--worlds", worlds]
    if draw(st.booleans()):
        argv += ["--seed", draw(st.sampled_from(["-1", "0", "7", str(2**64), "x"]))]
    if draw(st.booleans()):
        ceiling = draw(st.floats(min_value=1e-4, max_value=1.0))
        argv += ["--rare-ceiling", _number(draw, ceiling)]
    return argv


def _bound(draw) -> list[str]:
    text, names = _clause(draw)
    return ["bound", "--biases", text, *_assignments(draw, names), *_format(draw, "text", "json")]


def _evalue(draw) -> list[str]:
    text, _ = _clause(draw)
    est = draw(ESTIMATES)
    argv = ["evalue", "--biases", text, "--est", _number(draw, est)]
    for flag, value in [("--lo", est / draw(SPREADS)), ("--hi", est * draw(SPREADS))]:
        if draw(st.booleans()):
            argv += [flag, _number(draw, value)]
    if draw(st.booleans()):
        argv += ["--true", _number(draw, draw(ESTIMATES))]
    if draw(st.booleans()):
        argv += ["--measure", draw(st.sampled_from(["RR", "OR", "HR", "or"]))]
    if draw(st.booleans()):
        argv.append("--rare")
    return argv + _format(draw, "text", "json")


def _summary(draw) -> list[str]:
    latex = ["--latex"] if draw(st.booleans()) else []
    return ["summary", "--biases", _clause(draw)[0], *latex]


def _grid(draw) -> list[str]:
    text, names = _clause(draw)
    varied = list(draw(st.permutations(names)))[: draw(st.sampled_from([2, 2, 2, 1, 3]))]
    argv = ["grid", "--biases", text]
    for name in varied:
        argv += ["--vary", f"{name}={_axis(draw)}"]
    fixed = [name for name in names if name not in varied]
    return argv + _assignments(draw, fixed) + _format(draw, "text", "csv", "json")


COMMANDS = [_bound, _evalue, _summary, _grid, _curve, _verify]


@st.composite
def _argv(draw) -> list[str]:
    """An argv of any command and format: clauses from the declaration list,
    numbers from edge cases and ordinary ranges, sweeps of a few values."""
    return draw(st.sampled_from(COMMANDS))(draw)


class TestGeneratedArgv:
    @given(_argv())
    @example(LINSPACE_OVERFLOW[0])
    @example(LINSPACE_OVERFLOW[1])
    @settings(max_examples=250, derandomize=True, deadline=None)
    def test_exit_0_with_finite_output_or_exit_2_with_one_error(self, argv):
        code, out, err = _run_strict(argv)
        assert code in (0, 2), (code, err)
        if code == 2:
            assert re.fullmatch(r"error: [^\n]*\n", err) or USAGE_ERROR.fullmatch(err), err
            return
        assert err == ""
        assert not NON_FINITE.search(out), out
        if argv[0] == "verify" or argv[-2:] == ["--format", "json"]:
            for line in out.splitlines():
                _strict_json(line)
