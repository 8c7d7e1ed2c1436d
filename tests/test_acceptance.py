"""Acceptance suite: every shipped number and property, one test per criterion.

Run with `pytest -v` to get one pass/fail line per criterion. Tolerances are
stated inline; pinned values are frozen reference outputs.
"""

import itertools

import numpy as np
import pytest

from multibias import (
    EValuePolynomial,
    adjust_estimate,
    build_bias_set,
    confounding,
    evalue_polynomial,
    generate_world,
    grid_table,
    misclassification,
    multi_bound,
    multi_evalue,
    selection,
    solve_polynomial,
    verify_bound,
)
from multibias.evalues import odds_ratio, risk_ratio
from multibias.oracle import STRUCTURES
from roots import bisect_root

HIV = [confounding(), selection(risk_direction="increased")]
LEUK = [confounding(), misclassification("exposure", rare_outcome=True)]


def test_criterion_01_hiv_bound():
    bound = multi_bound(
        build_bias_set(HIV), {"RRAUc": 2.3, "RRUcY": 2.5, "RRUsYA1": 3, "RRSUsA1": 2}
    )
    assert bound == pytest.approx(2.269737, abs=1e-6)
    print("PASS: HIV bound 2.269737 within 1e-6")


def test_criterion_02_hiv_evalues():
    result = multi_evalue(
        build_bias_set(HIV), odds_ratio(6.75, 2.79, 16.31, rare_outcome=True)
    )
    assert result.evalue_point == pytest.approx(4.635703, abs=1e-4)
    assert result.evalue_lo == pytest.approx(2.728474, abs=1e-4)
    assert result.evalue_hi is None
    print("PASS: HIV E-values 4.635703 / 2.728474 within 1e-4")


def test_criterion_03_leukemia_bound_evalues_and_inversion():
    bias_set = build_bias_set(LEUK)
    bound = multi_bound(bias_set, {"RRAUc": 2, "RRUcY": 1.22, "ORYAa": 1.59})
    assert bound == pytest.approx(1.747568, abs=1e-6)

    forward = multi_evalue(bias_set, odds_ratio(0.51, 0.3, 0.89, rare_outcome=True))
    assert forward.evalue_point == pytest.approx(1.351985, abs=1e-4)
    assert forward.evalue_hi == pytest.approx(1.058404, abs=1e-4)
    assert forward.evalue_lo is None

    inverted = multi_evalue(
        bias_set, odds_ratio(1 / 0.51, 1 / 0.89, 1 / 0.3, rare_outcome=True)
    )
    assert inverted.evalue_point == forward.evalue_point
    assert inverted.evalue_lo == forward.evalue_hi
    print("PASS: leukemia bound 1.747568, E-values 1.351985 / 1.058404, inversion exact")


def test_criterion_04_nonnull_hiv_evalues():
    result = multi_evalue(
        build_bias_set(HIV),
        odds_ratio(6.75, 2.79, 16.31, rare_outcome=True),
        true_value=2.0,
    )
    assert result.evalue_point == pytest.approx(3.077243, abs=1e-4)
    assert result.evalue_lo == pytest.approx(1.643623, abs=1e-4)
    print("PASS: non-null HIV E-values 3.077243 / 1.643623 within 1e-4")


def test_criterion_05_polynomial_solves():
    assert solve_polynomial(EValuePolynomial(7, 3), 3.0) == pytest.approx(1.71, abs=0.005)
    assert solve_polynomial(EValuePolynomial(7, 3), 4.0) == pytest.approx(
        1.888478, abs=1e-4
    )
    assert solve_polynomial(EValuePolynomial(2, 1), 10.73) == pytest.approx(
        20.94777, abs=1e-4
    )
    assert solve_polynomial(EValuePolynomial(2, 1), 2.5 / 1.5) == pytest.approx(
        2.720763, abs=1e-4
    )
    print("PASS: polynomial solves (7,3) and (2,1) match pinned roots")


def test_criterion_06_single_bias_recreations():
    tol = 1e-4
    sel = build_bias_set([selection()])
    assert multi_bound(
        sel, {"RRUsYA1": 2, "RRSUsA1": 1.7, "RRUsYA0": 2, "RRSUsA0": 1.5}
    ) == pytest.approx(1.511111, abs=tol)

    result = multi_evalue(sel, odds_ratio(73.1, 13.0, rare_outcome=True))
    assert result.evalue_point == pytest.approx(16.58415, abs=tol)
    assert result.evalue_lo == pytest.approx(6.670587, abs=tol)

    su = build_bias_set([selection(risk_direction="increased", s_equals_u=True)])
    assert multi_evalue(su, odds_ratio(5.2, rare_outcome=True)).evalue_point == 5.2

    selected = build_bias_set([selection("selected")])
    result = multi_evalue(selected, odds_ratio(1.5, 1.22, rare_outcome=True))
    assert result.evalue_point == pytest.approx(2.366025, abs=tol)
    assert result.evalue_lo == pytest.approx(1.738081, abs=tol)

    rare = build_bias_set(
        [misclassification("exposure", rare_outcome=True, rare_exposure=True)]
    )
    result = multi_evalue(rare, odds_ratio(1.51, 1.03, rare_outcome=True))
    assert result.evalue_point == pytest.approx(1.51, abs=tol)
    assert result.evalue_lo == pytest.approx(1.03, abs=tol)
    print("PASS: single-bias recreations (selection, S=U, selected, rare exposure)")


GRID_8X8 = [
    [1.562500, 1.607143, 1.640625, 1.666667, 1.687500, 1.704545, 1.718750, 1.730769],
    [1.607143, 1.687500, 1.750000, 1.800000, 1.840909, 1.875000, 1.903846, 1.928571],
    [1.640625, 1.750000, 1.837500, 1.909091, 1.968750, 2.019231, 2.062500, 2.100000],
    [1.666667, 1.800000, 1.909091, 2.000000, 2.076923, 2.142857, 2.200000, 2.250000],
    [1.687500, 1.840909, 1.968750, 2.076923, 2.169643, 2.250000, 2.320312, 2.382353],
    [1.704545, 1.875000, 2.019231, 2.142857, 2.250000, 2.343750, 2.426471, 2.500000],
    [1.718750, 1.903846, 2.062500, 2.200000, 2.320312, 2.426471, 2.520833, 2.605263],
    [1.730769, 1.928571, 2.100000, 2.250000, 2.382353, 2.500000, 2.605263, 2.700000],
]

CONF_GRID_VALUES = [1.3, 1.5, 1.8, 2, 2.5, 3, 3.5, 4, 5, 6, 8, 10]
CONF_12X12 = [
    [1.06, 1.08, 1.11, 1.13, 1.16, 1.18, 1.20, 1.21, 1.23, 1.24, 1.25, 1.26],
    [1.08, 1.12, 1.17, 1.20, 1.25, 1.29, 1.31, 1.33, 1.36, 1.38, 1.41, 1.43],
    [1.11, 1.17, 1.25, 1.29, 1.36, 1.42, 1.47, 1.50, 1.55, 1.59, 1.64, 1.67],
    [1.13, 1.20, 1.29, 1.33, 1.43, 1.50, 1.56, 1.60, 1.67, 1.71, 1.78, 1.82],
    [1.16, 1.25, 1.36, 1.43, 1.56, 1.67, 1.75, 1.82, 1.92, 2.00, 2.11, 2.17],
    [1.18, 1.29, 1.42, 1.50, 1.67, 1.80, 1.91, 2.00, 2.14, 2.25, 2.40, 2.50],
    [1.20, 1.31, 1.47, 1.56, 1.75, 1.91, 2.04, 2.15, 2.33, 2.47, 2.67, 2.80],
    [1.21, 1.33, 1.50, 1.60, 1.82, 2.00, 2.15, 2.29, 2.50, 2.67, 2.91, 3.08],
    [1.23, 1.36, 1.55, 1.67, 1.92, 2.14, 2.33, 2.50, 2.78, 3.00, 3.33, 3.57],
    [1.24, 1.38, 1.59, 1.71, 2.00, 2.25, 2.47, 2.67, 3.00, 3.27, 3.69, 4.00],
    [1.25, 1.41, 1.64, 1.78, 2.11, 2.40, 2.67, 2.91, 3.33, 3.69, 4.27, 4.71],
    [1.26, 1.43, 1.67, 1.82, 2.17, 2.50, 2.80, 3.08, 3.57, 4.00, 4.71, 5.26],
]


def test_criterion_07_grid_fidelity():
    steps = [1.25 + 0.25 * i for i in range(8)]
    table = grid_table(
        build_bias_set(HIV),
        [("RRAUc", steps), ("RRUcY", steps)],
        {"RRUsYA1": 3, "RRSUsA1": 2},
    )
    # one cell (2.3203125) sits exactly on the 6-decimal rounding midpoint
    assert np.max(np.abs(table.values - np.array(GRID_8X8))) <= 5e-7 + 1e-12

    table12 = grid_table(
        build_bias_set([confounding()]),
        [("RRAUc", CONF_GRID_VALUES), ("RRUcY", CONF_GRID_VALUES)],
    )
    assert np.max(np.abs(table12.values - np.array(CONF_12X12))) <= 0.005 + 1e-12
    assert table12.values[0, 0] == pytest.approx(1.05625, abs=1e-9)
    assert table12.values[-1, -1] == pytest.approx(100 / 19, abs=1e-9)
    print("PASS: 8x8 grid within 5e-7 and 12x12 table within printed rounding")


def test_criterion_08_round_trip():
    bias_set = build_bias_set(
        [
            confounding(),
            selection(risk_direction="decreased"),
            misclassification("outcome"),
        ]
    )
    values = {name: 2.0 for name in bias_set.parameter_names()}
    bound = multi_bound(bias_set, values)
    assert bound == pytest.approx(32 / 9, abs=1e-5)
    back = multi_evalue(bias_set, risk_ratio(bound))
    assert back.evalue_point == pytest.approx(2.0, abs=1e-4)
    print("PASS: all-2 bound 3.555556 round-trips to E-value 2.0")


def test_criterion_09_estimate_shifting():
    shifted = adjust_estimate(
        build_bias_set(HIV),
        {"RRAUc": 2.3, "RRUcY": 2.5, "RRUsYA1": 3, "RRSUsA1": 2},
        point=6.75,
        lo=2.79,
        hi=16.31,
    )
    assert round(shifted.lo, 2) == 1.23

    shifted = adjust_estimate(
        build_bias_set(LEUK),
        {"RRAUc": 2, "RRUcY": 1.22, "ORYAa": 1.59},
        point=0.51,
        lo=0.3,
        hi=0.89,
    )
    assert round(shifted.point, 2) == 0.89
    assert round(shifted.lo, 2) == 0.52
    assert round(shifted.hi, 2) == 1.56
    print("PASS: shifted estimates round to 1.23 and 0.89 (0.52, 1.56)")


def test_criterion_10a_oracle_dominance():
    for structure, count in (("result1", 1000), ("result3", 1000)):
        config, bias_set = STRUCTURES[structure]
        for seed in range(count):
            report = verify_bound(generate_world(config, seed), bias_set)
            assert report.ratio <= report.bound + 1e-12, (structure, seed, report)

    # the rare-outcome exposure bound is approximate; hold it to the
    # empirical ceiling of 2% of the bound at prevalence <= 0.01
    config, bias_set = STRUCTURES["result2"]
    for seed in range(1000):
        report = verify_bound(generate_world(config, seed), bias_set)
        assert report.prevalence <= 0.01
        assert report.ratio <= 1.02 * report.bound, (seed, report)
    print("PASS: 1000+1000 exact worlds with zero violations; 1000 rare-outcome worlds within 2%")


def test_criterion_10b_bound_monotonicity():
    rng = np.random.default_rng(0)
    sets = [
        build_bias_set([confounding()]),
        build_bias_set([selection()]),
        build_bias_set([selection("selected")]),
        build_bias_set(HIV),
        build_bias_set([confounding(), selection(), misclassification("outcome")]),
        build_bias_set(
            [confounding(), selection(), misclassification("exposure", rare_outcome=True)]
        ),
    ]
    checks = 0
    while checks < 10_000:
        bias_set = sets[rng.integers(len(sets))]
        names = bias_set.parameter_names()
        values = {n: float(v) for n, v in zip(names, 1.0 + rng.gamma(2.0, 2.0, len(names)))}
        base = multi_bound(bias_set, values)
        bumped = dict(values)
        bumped[names[rng.integers(len(names))]] += float(rng.gamma(2.0, 2.0))
        assert multi_bound(bias_set, bumped) >= base * (1 - 1e-12)
        checks += 1
    print("PASS: bound nondecreasing over 10000 random coordinate bumps")


def test_criterion_10c_solver_residual():
    rng = np.random.default_rng(1)
    for _ in range(10_000):
        k = int(rng.integers(0, 7))
        n = 2 * k + int(rng.integers(0, 5)) if k else 1 + int(rng.integers(0, 8))
        poly = EValuePolynomial(n, k)
        target = float(np.exp(rng.uniform(0.0, np.log(1e6))))
        x = solve_polynomial(poly, target)
        assert abs(poly.value(x) - target) <= 1e-9 * target, (n, k, target)
    print("PASS: solver residual within 1e-9 relative on 10000 random targets")


def _all_constructible_sets():
    selections = [
        selection("selected"),
        *(
            selection(risk_direction=direction, s_equals_u=su)
            for direction in (None, "increased", "decreased")
            for su in (False, True)
        ),
    ]
    misclassifications = [
        misclassification("outcome"),
        misclassification("exposure", rare_outcome=True),
        misclassification("exposure", rare_outcome=True, rare_exposure=True),
    ]
    sets = [[confounding()]]
    sets += [[s] for s in selections]
    sets += [[m] for m in misclassifications]
    sets += [[confounding(), s] for s in selections]
    sets += [[confounding(), m] for m in misclassifications]
    for s, m in itertools.product(selections, misclassifications):
        sets.append([s, m])
        sets.append([m, s])
        sets.append([confounding(), s, m])
        sets.append([confounding(), m, s])
    return [build_bias_set(specs) for specs in sets]


def test_criterion_10d_no_bias_means_no_adjustment():
    sets = _all_constructible_sets()
    assert len(sets) == 105
    for bias_set in sets:
        poly = evalue_polynomial(bias_set)
        assert poly.value(1.0) == 1.0, bias_set.label
        ones = {name: 1.0 for name in bias_set.parameter_names()}
        assert multi_bound(bias_set, ones) == 1.0, bias_set.label
    print("PASS: f(1)=1 and bound(all ones)=1 for all 105 constructible sets")


def test_criterion_10e_closed_forms_match_bisection():
    rng = np.random.default_rng(2)
    targets = [1.0 + 1e-9, 1.0 + 1e-6, 2.0, 73.1, 1e6] + list(
        np.exp(rng.uniform(0.0, np.log(1e6), 200))
    )
    closed_forms = [(2, 1), (4, 2), (6, 3), (1, 0), (2, 0), (3, 0), (7, 0)]
    for target in targets:
        for n, k in closed_forms:
            closed = solve_polynomial(EValuePolynomial(n, k), float(target))
            assert abs(closed - bisect_root(n, k, float(target))) <= 1e-9 * closed
    print("PASS: closed forms agree with bisection within 1e-9")
