"""World generation, parameter extraction, and bound verification.

Extraction results are cross-checked against independent re-derivations that
enumerate the joint table with plain loops, so a shared bug in the library
code cannot hide. A world's tables are tuples, cells (c, u) in row order;
the tests reshape them into numpy arrays to build that joint table.
"""

import copy
import hashlib
import math
import pickle
import re
from dataclasses import FrozenInstanceError, fields, replace
from decimal import Decimal
from fractions import Fraction
from operator import is_

import numpy as np
import pytest

from declarations import DECLARATIONS
from multibias import (
    BiasSet,
    BoundReport,
    DegenerateStratum,
    InfeasibleConfig,
    ParseError,
    StructureMismatch,
    World,
    WorldConfig,
    build_bias_set,
    confounding,
    generate_world,
    misclassification,
    multi_bound,
    oracle,
    selection,
    verify_bound,
)
from multibias.biases import NAMED_BIAS_SETS, parse_bias_string
from multibias.oracle import STRUCTURES, _orient, _Tables
from records import assert_frozen_record


def world_of(structure, seed=0):
    config, bias_set = STRUCTURES[structure]
    return generate_world(config, seed), bias_set


def relabelled(structure, seed):
    """Every table of a generated world, its exposure labels swapped back."""
    world = world_of(structure, seed)[0]
    p_m = tuple(row[::-1] for row in world.p_m)
    if world.config.misclassification == "exposure":
        p_m = tuple(tuple(1.0 - x for x in row) for row in p_m)
    p_a, p_y, p_s = tuple(1.0 - x for x in world.p_a), world.p_y[::-1], world.p_s[::-1]
    return {"p_u": world.p_u, "p_a": p_a, "p_y": p_y, "p_s": p_s, "p_m": p_m}


def rates_swapped(structure, seed):
    """Every table of a generated world, the two arms' classification rates swapped."""
    world = world_of(structure, seed)[0]
    p_m = tuple(row[::-1] for row in world.p_m)
    return {"p_u": world.p_u, "p_a": world.p_a, "p_y": world.p_y, "p_s": world.p_s, "p_m": p_m}


def exact(table):
    """A table with each float entry replaced by the Fraction it equals."""
    if table is None:
        return None
    return tuple(exact(x) if type(x) is tuple else Fraction(x) for x in table)


def _masses(t):
    """The masses a _Tables holds, for comparing two builds."""
    return t.mass, t.sel, t.total, t.cases


def arrays(world):
    """The tables as arrays: p_u (c, u), p_a (c,), p_y (a, c, u), p_s (a, u), p_m (y, a)."""
    nc, ns = world.config.confounder_levels, world.config.selection_levels
    p_m = None if world.p_m is None else np.array(world.p_m)
    return (
        np.reshape(world.p_u, (nc, ns)),
        np.array(world.p_a),
        np.reshape(world.p_y, (2, nc, ns)),
        np.array(world.p_s),
        p_m,
    )


def joint(world):
    """Full table over (uc, us, a, y, s, m); m mirrors y when exact."""
    p_u, p_a, p_y, p_s, p_m = arrays(world)
    pa = np.stack([1.0 - p_a, p_a])  # (a, nc)
    py = np.stack([1.0 - p_y, p_y])  # (y, a, nc, ns)
    ps = np.stack([1.0 - p_s, p_s])  # (s, a, ns)
    if p_m is None:
        pm = np.zeros((2, 2, 2))  # (m, y, a)
        pm[1, 1, :] = 1.0
        pm[0, 0, :] = 1.0
    else:
        pm = np.stack([1.0 - p_m, p_m])  # (m, y, a)
    return np.einsum("cu,ac,yacu,sau,mya->cuaysm", p_u, pa, py, ps, pm)


CONFOUNDING = parse_bias_string("confounding")


class TestWorldConfig:
    @pytest.mark.parametrize(
        "bias_set",
        ["confounding", None, [confounding()], confounding(), NAMED_BIAS_SETS],
        ids=["str", "none", "list", "spec", "dict"],
    )
    def test_rejects_a_bias_set_that_is_no_bias_set(self, bias_set):
        with pytest.raises(ParseError, match="bias_set must be a BiasSet"):
            WorldConfig(bias_set)

    def test_init_fields_are_the_bias_set_levels_and_ceiling(self):
        init = [f.name for f in fields(WorldConfig) if f.init]
        assert init == ["bias_set", "confounder_levels", "selection_levels", "rare_outcome_ceiling"]
        with pytest.raises(TypeError):
            WorldConfig(CONFOUNDING, confounding=False)
        with pytest.raises(FrozenInstanceError):
            WorldConfig(CONFOUNDING).selection = True

    def test_repr_names_the_bias_set_by_its_label(self):
        # it embedded the whole BiasSet repr, 1,291 characters for result1
        config, bias_set = STRUCTURES["result1"]
        assert repr(config).startswith(f"WorldConfig(bias_set=<BiasSet {bias_set.label!r}>, ")
        assert len(repr(config)) < 300

    def test_rejects_bad_level_counts(self):
        with pytest.raises(InfeasibleConfig):
            WorldConfig(CONFOUNDING, confounder_levels=1)
        with pytest.raises(InfeasibleConfig):
            WorldConfig(CONFOUNDING, selection_levels=4)

    @pytest.mark.parametrize(
        "levels",
        [{"confounder_levels": 2.5}, {"selection_levels": 2.0}, {"selection_levels": True}],
    )
    def test_rejects_level_counts_that_are_not_ints(self, levels):
        with pytest.raises(InfeasibleConfig, match="2 or 3 levels"):
            WorldConfig(CONFOUNDING, **levels)

    @pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint8])
    def test_numpy_integer_level_counts_give_the_config_of_the_int(self, integer):
        # "2 or 3 levels, got np.int64(2)" was raised for a count of 2
        bias_set = parse_bias_string("confounding + selection")
        config = WorldConfig(bias_set, integer(2), integer(3))
        assert config == WorldConfig(bias_set, 2, 3)
        assert type(config.confounder_levels) is type(config.selection_levels) is int
        assert generate_world(config, 4) == generate_world(WorldConfig(bias_set, 2, 3), 4)

    def test_rejects_bad_ceiling(self):
        with pytest.raises(InfeasibleConfig):
            WorldConfig(CONFOUNDING, rare_outcome_ceiling=0.0)
        with pytest.raises(InfeasibleConfig):
            WorldConfig(CONFOUNDING, rare_outcome_ceiling=1.5)

    @pytest.mark.parametrize(
        "ceiling",
        ["0.5", b"0.5", [0.5], 0.5j, math.nan, 10**5000],
        ids=["str", "bytes", "list", "complex", "nan", "int_past_floats"],
    )
    def test_rejects_ceilings_that_are_no_numbers(self, ceiling):
        # text used to escape as a TypeError from the range comparison
        with pytest.raises(InfeasibleConfig, match="must be a number in"):
            WorldConfig(CONFOUNDING, rare_outcome_ceiling=ceiling)

    @pytest.mark.parametrize("ceiling", [Fraction(1, 2), Decimal("0.5"), np.float32(0.5), 0.5])
    def test_a_numeric_ceiling_is_held_as_a_float(self, ceiling):
        config = WorldConfig(CONFOUNDING, rare_outcome_ceiling=ceiling)
        assert type(config.rare_outcome_ceiling) is float
        assert config == WorldConfig(CONFOUNDING, rare_outcome_ceiling=0.5)
        expected = generate_world(WorldConfig(CONFOUNDING, rare_outcome_ceiling=0.5), 1)
        assert generate_world(config, 1) == expected

    def test_a_given_ceiling_replaces_the_derived_one(self):
        config, bias_set = STRUCTURES["result2"]
        assert WorldConfig(bias_set, rare_outcome_ceiling=0.5).rare_outcome_ceiling == 0.5
        assert replace(config, rare_outcome_ceiling=1).rare_outcome_ceiling == 1.0


# each structure's world mechanisms, written out as (confounding, selection,
# misclassification, rare_outcome_ceiling): equal mechanisms draw equal
# tables for every seed, so `verify` output stays the same
STRUCTURE_MECHANISMS = {
    "confounding": (True, False, None, 1.0),
    "selection": (False, True, None, 1.0),
    "selection_selected": (False, True, None, 1.0),
    "outcome_misclassification": (False, False, "outcome", 1.0),
    "result1": (True, True, "outcome", 1.0),
    "result2": (True, True, "exposure", 0.01),
    "result3": (True, True, "outcome", 1.0),
}


class TestStructures:
    def test_names(self):
        assert sorted(STRUCTURES) == sorted(STRUCTURE_MECHANISMS)

    @pytest.mark.parametrize("structure", sorted(STRUCTURE_MECHANISMS))
    def test_config_unchanged(self, structure):
        config, bias_set = STRUCTURES[structure]
        assert config.bias_set is bias_set
        assert (config.confounder_levels, config.selection_levels) == (2, 2)
        mechanisms = config.confounding, config.selection, config.misclassification
        assert (*mechanisms, config.rare_outcome_ceiling) == STRUCTURE_MECHANISMS[structure]
        assert type(config.rare_outcome_ceiling) is float

    def test_named_bias_sets_are_canonical_clauses_in_structure_order(self):
        assert all(parse_bias_string(v).label == v for v in NAMED_BIAS_SETS.values())
        assert list(STRUCTURES) == list(NAMED_BIAS_SETS)


class TestGeneration:
    def test_deterministic_per_seed(self):
        config = STRUCTURES["result1"][0]
        a = generate_world(config, 123)
        b = generate_world(config, 123)
        assert a == b
        assert a != generate_world(config, 124)

    # a bool is refused (True gave the world of seed 1)
    @pytest.mark.parametrize("seed", [-1, 1.5, True, False, np.int64(-1)])
    def test_seed_must_be_a_nonnegative_int(self, seed):
        with pytest.raises(InfeasibleConfig, match="seed must be a nonnegative int"):
            generate_world(STRUCTURES["confounding"][0], seed)

    @pytest.mark.parametrize("integer", [np.int64, np.uint32])
    def test_a_numpy_integer_seed_gives_the_world_of_the_int(self, integer):
        # it raised "seed must be a nonnegative int, got np.int64(3)"
        config = STRUCTURES["result2"][0]
        assert generate_world(config, integer(3)) == generate_world(config, 3)

    def test_tables_are_tuples_of_floats(self):
        for name in STRUCTURES:
            world = world_of(name, seed=3)[0]
            tables = (world.p_u, world.p_a, *world.p_y, *world.p_s, *(world.p_m or ()))
            for table in (world.p_y, world.p_s, world.p_m or (), *tables):
                assert type(table) is tuple, name
            assert all(type(x) is float for table in tables for x in table), name

    def test_structure_flags_honored(self):
        conf = world_of("confounding", seed=5)[0]
        assert len(set(conf.p_a)) > 1
        assert conf.p_s == ((1.0, 1.0), (1.0, 1.0))  # no selection: everyone selected
        assert conf.p_m is None

        sel = world_of("selection", seed=5)[0]
        assert len(set(sel.p_a)) == 1  # no confounding: A independent of Uc
        assert sel.p_s != ((1.0, 1.0), (1.0, 1.0))
        assert sel.p_m is None

    @pytest.mark.parametrize(
        "declared, reordered",
        [
            ("confounding + selection", "selection + confounding"),
            (NAMED_BIAS_SETS["result1"], "selection + confounding + misclassification(outcome)"),
        ],
    )
    def test_declaration_order_does_not_change_a_world(self, declared, reordered):
        config = WorldConfig(parse_bias_string(declared))
        other = WorldConfig(parse_bias_string(reordered))
        assert config != other
        for seed in range(5):
            world = generate_world(other, seed)
            assert replace(world, config=config) == generate_world(config, seed), seed

    def test_rare_ceiling_honored(self):
        config = WorldConfig(CONFOUNDING, rare_outcome_ceiling=0.01)
        for seed in range(20):
            world = generate_world(config, seed)
            assert max(map(max, world.p_y)) <= 0.01

    def test_joint_sums_to_one(self):
        for name in STRUCTURES:
            world = world_of(name, seed=3)[0]
            assert joint(world).sum() == pytest.approx(1.0, abs=1e-12)

    def test_three_level_supports(self):
        bias_set = parse_bias_string("confounding + selection")
        config = WorldConfig(bias_set, confounder_levels=3, selection_levels=3)
        world = generate_world(config, 11)
        assert len(world.p_u) == 9 and len(world.p_a) == 3
        assert [len(ys) for ys in world.p_y] == [9, 9]
        assert [len(ss) for ss in world.p_s] == [3, 3]
        assert joint(world).shape == (3, 3, 2, 2, 2, 2)
        assert joint(world).sum() == pytest.approx(1.0, abs=1e-12)

    def test_worlds_and_reports_of_larger_level_shapes_are_pinned(self):
        # every table and report of the seven structures at the level shapes
        # besides 2x2, which the CLI digest in test_cli.py covers; a change to
        # how a shape's cells are drawn or indexed must keep these bits
        digest = hashlib.md5()
        for _, bias_set in STRUCTURES.values():
            for levels in ((2, 3), (3, 2), (3, 3)):
                config = WorldConfig(bias_set, *levels)
                for seed in range(50):
                    world = generate_world(config, seed)
                    tables = (world.p_u, world.p_a, world.p_y, world.p_s, world.p_m)
                    digest.update(repr(tables).encode())
                    digest.update(repr(verify_bound(world, bias_set)).encode())
        assert list(STRUCTURES) == list(NAMED_BIAS_SETS)
        assert digest.hexdigest() == "73fa979e6ed4b35c87cf19cb19eb679c"

    def test_misclassified_worlds_oriented_toward_higher_selected_risk(self):
        config = STRUCTURES["result1"][0]
        for seed in range(30):
            p_u, p_a, p_y, p_s, _ = arrays(generate_world(config, seed))
            mass = p_u * p_a[:, None] * p_s[1]
            risk1 = (mass * p_y[1]).sum() / mass.sum()
            mass = p_u * (1 - p_a)[:, None] * p_s[0]
            risk0 = (mass * p_y[0]).sum() / mass.sum()
            assert risk1 >= risk0


class TestOrient:
    """A world whose selected risk is lower under A=1 gets its exposure relabelled."""

    @pytest.mark.parametrize(
        "kind, structure",
        [("outcome", "result1"), ("exposure", "result2")],
        ids=["outcome", "exposure"],
    )
    def test_relabelling_swaps_arms_and_rates(self, kind, structure):
        # tables, not a World: a World of them would break the orientation rule
        config, p_u = STRUCTURES[structure][0], (0.1, 0.2, 0.3, 0.4)
        tables = (
            (0.3, 0.6),
            ((0.5, 0.6, 0.7, 0.8), (0.1, 0.2, 0.3, 0.4)),
            ((0.4, 0.5), (0.6, 0.7)),
            ((0.1, 0.2), (0.7, 0.9)),
        )
        *relabelled_tables, t = _orient(config, p_u, *tables)
        p_a, p_y, p_s, p_m = relabelled_tables
        assert p_a == (1 - 0.3, 1 - 0.6)
        assert p_y == ((0.1, 0.2, 0.3, 0.4), (0.5, 0.6, 0.7, 0.8))
        assert p_s == ((0.6, 0.7), (0.4, 0.5))
        if kind == "outcome":
            # the copy is the outcome: only the arms, the p_m columns, swap
            assert p_m == ((0.2, 0.1), (0.9, 0.7))
        else:
            # the copy is the exposure, so its labels flip with the true ones
            assert p_m == ((1 - 0.2, 1 - 0.1), (1 - 0.9, 1 - 0.7))
        # the tables returned are those of the relabelled entries, built anew
        assert _masses(t) == _masses(_Tables(config, p_u, *relabelled_tables[:3]))
        # oriented tables come back as they are, with the one build they were decided on
        *same, t = _orient(config, p_u, *relabelled_tables)
        assert all(map(is_, same, relabelled_tables))
        assert _masses(t) == _masses(_Tables(config, p_u, *relabelled_tables[:3]))


class TestConditionalIndependence:
    """The factorization must imply the independences the bounds assume."""

    def joint(self, seed=9):
        return joint(world_of("result1", seed)[0])

    def test_exposure_independent_of_us_given_uc(self):
        j = self.joint()
        # P(a | uc, us) must not depend on us
        dist = j.sum(axis=(3, 4, 5))  # (uc, us, a)
        cond = dist / dist.sum(axis=2, keepdims=True)
        for c in range(cond.shape[0]):
            for u in range(1, cond.shape[1]):
                assert np.allclose(cond[c, u], cond[c, 0], atol=1e-12)

    def test_selection_independent_of_y_and_uc_given_a_us(self):
        j = self.joint()
        dist = j.sum(axis=5)  # (uc, us, a, y, s)
        cond = dist / dist.sum(axis=4, keepdims=True)
        for a in range(2):
            for u in range(2):
                ref = cond[0, u, a, 0]
                for c in range(2):
                    for y in range(2):
                        assert np.allclose(cond[c, u, a, y], ref, atol=1e-12)

    def test_recorded_copy_independent_of_factors_given_y_a(self):
        j = self.joint()
        dist = j.sum(axis=4)  # (uc, us, a, y, m); selection marginalized
        cond = dist / dist.sum(axis=4, keepdims=True)
        for a in range(2):
            for y in range(2):
                ref = cond[0, 0, a, y]
                for c in range(2):
                    for u in range(2):
                        assert np.allclose(cond[c, u, a, y], ref, atol=1e-12)


def brute_force_parameters(world):
    """Re-derive every extractable ratio by explicit loops over the tables."""
    nc, ns = world.config.confounder_levels, world.config.selection_levels
    p_a, p_s = world.p_a, world.p_s
    out = {}

    def p_u(c, u):
        return world.p_u[c * ns + u]

    def p_y(a, c, u):
        return world.p_y[a][c * ns + u]

    # confounder shift between exposure arms
    pc = np.zeros((2, nc))
    for a in (0, 1):
        for c in range(nc):
            w = p_a[c] if a == 1 else 1 - p_a[c]
            pc[a, c] = sum(p_u(c, u) for u in range(ns)) * w
        pc[a] /= pc[a].sum()
    out["RRAUc"] = max(pc[1, c] / pc[0, c] for c in range(nc))

    # confounder-outcome association within an exposure arm
    best = 1.0
    for a in (0, 1):
        risks = []
        for c in range(nc):
            total = sum(p_u(c, u) for u in range(ns))
            risks.append(sum(p_u(c, u) * p_y(a, c, u) for u in range(ns)) / total)
        best = max(best, max(risks) / min(risks))
    out["RRUcY"] = best

    # selection-factor ratios
    for a in (0, 1):
        w = [x if a == 1 else 1 - x for x in p_a]
        risks = []
        for u in range(ns):
            mass = sum(p_u(c, u) * w[c] for c in range(nc))
            risks.append(
                sum(p_u(c, u) * w[c] * p_y(a, c, u) for c in range(nc)) / mass
            )
        out[f"RRUsYA{a}"] = max(risks) / min(risks)
        if not world.config.selection:
            continue  # everyone is selected, so there is no S=0 stratum

        dist = {}
        for s in (0, 1):
            chance = [x if s == 1 else 1 - x for x in p_s[a]]
            column = [
                sum(p_u(c, u) * w[c] for c in range(nc)) * chance[u]
                for u in range(ns)
            ]
            total = sum(column)
            dist[s] = [x / total for x in column]
        num, den = (1, 0) if a == 1 else (0, 1)
        out[f"RRSUsA{a}"] = max(dist[num][u] / dist[den][u] for u in range(ns))

    # joint-factor ratios in the selected population
    sel = {}
    for a in (0, 1):
        w = [x if a == 1 else 1 - x for x in p_a]
        cells = np.array(
            [[p_u(c, u) * w[c] * p_s[a][u] for u in range(ns)] for c in range(nc)]
        )
        sel[a] = cells / cells.sum()
    out["RRAUscS"] = max(
        sel[1][c, u] / sel[0][c, u] for c in range(nc) for u in range(ns)
    )
    out["RRUscYS"] = max(max(ys) / min(ys) for ys in world.p_y)

    # classification error factors, from the rates indexed (true y, true a)
    m = world.p_m
    if world.config.misclassification == "outcome":
        factor = max(m[1][1] / m[1][0], m[0][1] / m[0][0])
        out["RRAYy"] = out["RRAYyS"] = factor
    elif world.config.misclassification == "exposure":
        s1, s0, f1, f0 = m[1][1], m[0][1], m[1][0], m[0][0]
        factor = max(
            (f1 / f0) / ((1 - f1) / (1 - f0)),
            (s1 / s0) / ((1 - s1) / (1 - s0)),
            (s1 / s0) / ((1 - f1) / (1 - f0)),
            (f1 / f0) / ((1 - s1) / (1 - s0)),
        )
        out["ORYAa"] = out["ORYAaS"] = factor
    return out


def derivable(declarations):
    """The bias sets WorldConfig accepts, with their configs; the rest it rejects."""
    derived = []
    for declared in declarations:
        bias_set = build_bias_set(declared)
        try:
            derived.append((bias_set, WorldConfig(bias_set)))
        except StructureMismatch:
            pass
    return derived


DERIVED = derivable(DECLARATIONS)


def kinds():
    """One (config, bias set) for each parameter set WorldConfig accepts.

    The seven named structures come under their names, the other term sets
    under the label of the first declaration that gives them.
    """
    found = {name: STRUCTURES[name] for name in sorted(STRUCTURES)}
    terms = {bias_set.terms for _, bias_set in found.values()}
    for bias_set, config in DERIVED:
        if bias_set.terms not in terms:
            terms.add(bias_set.terms)
            found[bias_set.label] = config, bias_set
    return found


KINDS = kinds()

# every kind on 2-level supports, and again on 3-level supports
WIDE = [(name, levels) for name in KINDS for levels in (2, 3)]
WIDE_SEEDS = range(50)


def wide_worlds(structure, levels):
    config, bias_set = KINDS[structure]
    config = replace(config, confounder_levels=levels, selection_levels=levels)
    for seed in WIDE_SEEDS:
        yield seed, generate_world(config, seed), bias_set


class TestExtraction:
    @pytest.mark.parametrize("structure, levels", WIDE)
    def test_matches_brute_force(self, structure, levels):
        for seed, world, bias_set in wide_worlds(structure, levels):
            expected = brute_force_parameters(world)
            got = verify_bound(world, bias_set).parameters
            assert tuple(got) == bias_set.parameter_names()
            for name, value in got.items():
                assert value == pytest.approx(expected[name], rel=1e-12), (seed, name)

    def test_matches_brute_force_result1(self):
        world, bias_set = world_of("result1", seed=17)
        expected = brute_force_parameters(world)
        got = verify_bound(world, bias_set).parameters
        for name in ("RRAUc", "RRUcY", "RRUsYA1", "RRSUsA1", "RRUsYA0", "RRSUsA0"):
            assert got[name] == pytest.approx(expected[name], rel=1e-10), name

    def test_matches_brute_force_result3(self):
        world, bias_set = world_of("result3", seed=21)
        expected = brute_force_parameters(world)
        got = verify_bound(world, bias_set).parameters
        assert got["RRAUscS"] == pytest.approx(expected["RRAUscS"], rel=1e-10)
        assert got["RRUscYS"] == pytest.approx(expected["RRUscYS"], rel=1e-10)

    def test_outcome_misclassification_factor(self):
        world, bias_set = world_of("result1", seed=4)
        m = world.p_m
        expected = max(m[1][1] / m[1][0], m[0][1] / m[0][0])
        assert verify_bound(world, bias_set).parameters["RRAYyS"] == pytest.approx(expected)

    def test_exposure_misclassification_factor(self):
        world, bias_set = world_of("result2", seed=4)
        m = world.p_m
        s1, s0, f1, f0 = m[1][1], m[0][1], m[1][0], m[0][0]
        expected = max(
            (f1 / f0) / ((1 - f1) / (1 - f0)),
            (s1 / s0) / ((1 - s1) / (1 - s0)),
            (s1 / s0) / ((1 - f1) / (1 - f0)),
            (f1 / f0) / ((1 - s1) / (1 - s0)),
        )
        assert verify_bound(world, bias_set).parameters["ORYAaS"] == pytest.approx(expected)

    def test_all_extracted_values_at_least_one(self):
        for name in STRUCTURES:
            config, bias_set = STRUCTURES[name]
            for seed in range(25):
                values = verify_bound(generate_world(config, seed), bias_set).parameters
                assert all(v >= 1.0 for v in values.values()), (name, seed)

    def test_extraction_invariant_to_level_relabeling(self):
        world, bias_set = world_of("result1", seed=8)
        # reversing the row-order cells reverses both factors' levels
        flipped = World(
            world.config,
            world.p_u[::-1],
            world.p_a[::-1],
            tuple(ys[::-1] for ys in world.p_y),
            tuple(ss[::-1] for ss in world.p_s),
            world.p_m,
        )
        a = verify_bound(world, bias_set).parameters
        b = verify_bound(flipped, bias_set).parameters
        for name, value in a.items():
            assert b[name] == pytest.approx(value, rel=1e-12), name


class TestObservedAndTrue:
    @pytest.mark.parametrize("structure, levels", WIDE)
    def test_dual_route(self, structure, levels):
        """Both risk ratios against sums over slices of the enumerated joint."""
        for seed, world, bias_set in wide_worlds(structure, levels):
            report = verify_bound(world, bias_set)
            j = joint(world)  # axes (uc, us, a, y, s, m)
            p_u, _, p_y, _, _ = arrays(world)
            risks = []
            for arm in (0, 1):
                if world.config.misclassification == "exposure":
                    # the recorded exposure is axis 5
                    num, den = j[..., 1, 1, arm].sum(), j[..., 1, arm].sum()
                elif world.config.misclassification == "outcome":
                    # the recorded outcome is axis 5
                    num, den = j[:, :, arm, :, 1, 1].sum(), j[:, :, arm, :, 1, :].sum()
                else:
                    num, den = j[:, :, arm, 1, 1, :].sum(), j[:, :, arm, :, 1, :].sum()
                risks.append(num / den)
            assert report.rr_obs == pytest.approx(risks[1] / risks[0], rel=1e-12), seed

            if any(bias.population == "selected" for bias in bias_set.biases):
                weights = j[:, :, :, :, 1, :].sum(axis=(2, 3, 4))
                weights = weights / weights.sum()
            else:
                weights = p_u
            truth = [(weights * p_y[arm]).sum() for arm in (0, 1)]
            assert report.rr_true == pytest.approx(truth[1] / truth[0], rel=1e-12), seed

    def test_dual_route_no_misclassification(self):
        world, bias_set = world_of("selection", seed=13)
        report = verify_bound(world, bias_set)

        j = joint(world)
        risks = []
        for a in (0, 1):
            num = j[:, :, a, 1, 1, :].sum()
            den = j[:, :, a, :, 1, :].sum()
            risks.append(num / den)
        assert report.rr_obs == pytest.approx(risks[1] / risks[0], rel=1e-12)

        p_u, _, p_y, _, _ = arrays(world)
        truth = [(p_u * p_y[a]).sum() for a in (0, 1)]
        assert report.rr_true == pytest.approx(truth[1] / truth[0], rel=1e-12)

    def test_dual_route_outcome_misclassification(self):
        world, bias_set = world_of("result1", seed=29)
        rr_obs = verify_bound(world, bias_set).rr_obs
        j = joint(world)
        risks = []
        for a in (0, 1):
            # the recorded outcome is axis 5
            risks.append(j[:, :, a, :, 1, 1].sum() / j[:, :, a, :, 1, :].sum())
        assert rr_obs == pytest.approx(risks[1] / risks[0], rel=1e-12)

    def test_dual_route_exposure_misclassification(self):
        world, bias_set = world_of("result2", seed=29)
        rr_obs = verify_bound(world, bias_set).rr_obs
        j = joint(world)
        risks = []
        for m in (0, 1):
            # the recorded exposure is axis 5
            risks.append(j[:, :, :, 1, 1, m].sum() / j[:, :, :, :, 1, m].sum())
        assert rr_obs == pytest.approx(risks[1] / risks[0], rel=1e-12)

    def test_selected_population_truth_reweights(self):
        world, bias_set = world_of("result3", seed=6)
        rr_true = verify_bound(world, bias_set).rr_true
        j = joint(world)
        weights = j[:, :, :, :, 1, :].sum(axis=(2, 3, 4))
        weights = weights / weights.sum()
        p_y = arrays(world)[2]
        expected = (weights * p_y[1]).sum() / (weights * p_y[0]).sum()
        assert rr_true == pytest.approx(expected, rel=1e-12)

    def test_everyone_selected_means_no_selection_bias(self):
        bias_set = build_bias_set([confounding()])
        world = generate_world(WorldConfig(bias_set), 31)
        report = verify_bound(world, bias_set)
        assert report.rr_obs / report.rr_true <= multi_bound(bias_set, report.parameters) + 1e-12


class TestHandBuiltWorlds:
    def test_null_world_has_no_bias(self):
        bias_set = build_bias_set([confounding()])
        world = World(
            WorldConfig(bias_set),
            (0.25,) * 4,
            (0.5, 0.5),
            ((0.3,) * 4,) * 2,
            ((1.0, 1.0),) * 2,
            None,
        )
        report = verify_bound(world, bias_set)
        assert report.rr_obs == pytest.approx(1.0, abs=1e-12)
        assert report.rr_true == pytest.approx(1.0, abs=1e-12)
        assert report.holds
        assert report.ratio == pytest.approx(report.bound, abs=1e-9)

    def test_a_confounding_world_comes_within_1_percent_of_its_bound(self):
        # The generated worlds sit far below their bounds, so a bound shrunk
        # 10% toward 1 passes every one; this world does not let it. Found
        # offline by a hill climb over 14 reals (a softmax gives p_u, a
        # logistic p_a and p_y) from random.Random(1): a Gaussian start, each
        # coordinate moved by N(0, 0.3) with chance 0.3, a move kept when
        # ratio / bound rose with the bound at least 3; it reached 0.9963
        # after 560 steps, and the entries are rounded to 3 digits. It is
        # near sharp as Ding and VanderWeele's binary confounder is: nearly
        # every exposed unit has Uc = 1, where the outcome risk is high
        config, bias_set = STRUCTURES["confounding"]
        world = World(
            config,
            (0.0374, 0.365, 0.58, 0.0176),
            (0.009, 0.884),
            ((0.134, 0.0805, 0.427, 0.678), (0.213, 0.0979, 0.542, 0.76)),
            ((1.0, 1.0),) * 2,
            None,
        )
        report = verify_bound(world, bias_set)
        assert report.holds and report.bound >= 3
        # 0.9964 of the bound; below 0.9999, so rounding cannot break it
        assert 0.99 * report.bound <= report.ratio < 0.9999 * report.bound

    def test_empty_unselected_stratum_raises(self):
        bias_set = build_bias_set([selection()])
        world = generate_world(WorldConfig(bias_set), 2)
        everyone = World(
            world.config,
            world.p_u,
            world.p_a,
            world.p_y,
            ((1.0, 1.0),) * 2,
            None,
        )
        with pytest.raises(DegenerateStratum):
            verify_bound(everyone, bias_set)

    def test_a_small_stratum_above_the_mass_floor_is_kept(self):
        # the unselected strata hold about 1e-6 of each arm: a world the
        # oracle must check, which a floor of 1e-4 would reject as degenerate
        config, bias_set = STRUCTURES["selection"]
        w = generate_world(config, 3)
        world = World(config, w.p_u, w.p_a, w.p_y, ((1 - 1e-6,) * 2,) * 2, None)
        assert verify_bound(world, bias_set).holds

    @pytest.mark.parametrize("structure", sorted(STRUCTURES))
    def test_fraction_tables_verify(self, structure):
        # each entry the Fraction its float equals, which the world keeps exact
        world, bias_set = world_of(structure)
        fractions = World(world.config, *(exact(getattr(world, f.name)) for f in fields(World)[1:]))
        assert all(type(x) is Fraction for x in fractions.p_u + fractions.p_a)
        report = verify_bound(fractions, bias_set)
        assert report.ratio == pytest.approx(verify_bound(world, bias_set).ratio, rel=1e-12)

    def test_analysis_cell_without_mass_raises(self):
        # the exposed arm is too small to observe, yet large enough for the
        # confounding extractor's ratios, which run first
        world, bias_set = world_of("confounding")
        starved = replace(world, p_a=(1e-300, 2e-300))
        with pytest.raises(DegenerateStratum, match="analysis cell"):
            verify_bound(starved, bias_set)


class TestWorldShapeChecks:
    @pytest.mark.parametrize("drawn, declared", [(2, 3), (3, 2)])
    def test_tables_of_other_levels_than_the_config_are_rejected(self, drawn, declared):
        # unchecked, 2-level selection tables read as 3-level ones gave a bound
        # of 1.925 for the 1.517 of seed 0, and 3-level ones read as 2-level a
        # ZeroDivisionError
        config, bias_set = STRUCTURES["selection"]
        world = generate_world(replace(config, selection_levels=drawn), 0)
        with pytest.raises(InfeasibleConfig, match="table lengths"):
            replace(world, config=replace(config, selection_levels=declared))

    def test_rates_must_be_given_exactly_with_misclassification(self):
        world = world_of("result1")[0]
        with pytest.raises(InfeasibleConfig, match="p_m must be given"):
            replace(world, p_m=None)
        plain = world_of("selection")[0]
        with pytest.raises(InfeasibleConfig, match="p_m must be given"):
            replace(plain, p_m=world.p_m)

    @pytest.mark.parametrize(
        "change",
        [
            lambda w: {"p_u": w.p_u[1:]},
            lambda w: {"p_a": w.p_a + (0.5,)},
            lambda w: {"p_y": (w.p_y[0], w.p_y[1][1:])},
            lambda w: {"p_s": w.p_s + (w.p_s[0],)},
            lambda w: {"p_m": w.p_m[:1]},
        ],
        ids=["p_u", "p_a", "p_y", "p_s", "p_m"],
    )
    def test_each_table_is_checked(self, change):
        world = world_of("result1")[0]
        with pytest.raises(InfeasibleConfig, match="table lengths"):
            replace(world, **change(world))

    @pytest.mark.parametrize(
        "structure, change, named",
        [
            # unchecked, this selection under a config without it read as a
            # violation: ratio 1.42 against bound 1.03
            ("confounding", {"p_s": ((0.2, 0.9), (0.9, 0.2))}, "p_s"),
            # and this confounding, under a config without it, was accepted
            ("selection", {"p_a": (0.1, 0.9)}, "p_a"),
            # entries outside their probability range: unchecked, the huge
            # p_u read as ratio 1.0 against bound 1.0, zeros raised a
            # ZeroDivisionError, p_a above 1 a DegenerateStratum, the NaN a
            # DomainError that blamed RRAUc, and most others were accepted
            ("confounding", {"p_u": (1e308, 1e308, 0.1, 0.1)}, "p_u"),
            ("confounding", {"p_u": (0.5, 0.5, 0.0, 0.0)}, "p_u"),
            ("confounding", {"p_u": (0.4, 0.4, 0.4, 0.4)}, "p_u"),
            ("confounding", {"p_u": (float("nan"), 0.4, 0.3, 0.3)}, "p_u"),
            ("confounding", {"p_a": (1.5, 0.2)}, "p_a"),
            ("confounding", {"p_y": ((0.0,) * 4, (0.3,) * 4)}, "p_y"),
            ("result2", {"p_y": ((0.005,) * 4, (0.5,) * 4)}, "p_y"),
            ("selection", {"p_s": ((0.0, 0.5), (0.5, 0.5))}, "p_s"),
            ("selection", {"p_s": ((float("inf"), 0.5), (0.5, 0.5))}, "p_s"),
            ("result1", {"p_m": ((0.1, 0.2), (0.9, 1.0))}, "p_m"),
            # misclassification worlds on the side the one-sided bound does not
            # cover: unchecked, the first read as a violation (ratio 2.29
            # against bound 1.10), the second and third raised a DomainError
            # blaming RRAYy or ORYAaS, and the last was accepted
            (
                "outcome_misclassification",
                relabelled("outcome_misclassification", 4),
                "outcome risk",
            ),
            (
                "outcome_misclassification",
                rates_swapped("outcome_misclassification", 3),
                "factor of p_m",
            ),
            ("result2", relabelled("result2", 0), "outcome risk"),
            ("result2", relabelled("result2", 1), "outcome risk"),
            # a rate that makes the differential factor overflow: unchecked, it
            # raised a DomainError that blamed RRAYyS
            (
                "result1",
                {"p_m": ((5e-324, 0.5), world_of("result1")[0].p_m[1])},
                "factor of p_m must be a finite number at least 1, got inf",
            ),
            # a caller's tables are tuples of real numbers: unchecked, text and
            # None raised a TypeError from the range rule, and a scalar table
            # one from len(); a list changed after a first check went unseen by
            # later checks
            ("result1", {"p_u": ("a",) * 4}, "every p_u entry must be a real number, got a"),
            ("result1", {"p_a": (None, 0.5)}, "every p_a entry must be a real number"),
            ("result1", {"p_y": ((0.5, 2j, 0.5, 0.5), (0.5,) * 4)}, "p_y entry must be a real"),
            ("result1", {"p_u": 0.038}, "p_u and each of its rows must be a tuple, got 0.038"),
            ("confounding", {"p_a": [0.3, 0.4]}, "p_a and each of its rows must be a tuple"),
            ("result1", {"p_s": ([0.5, 0.6], (0.5, 0.6))}, "p_s and each"),
            ("result1", {"p_m": [(0.1, 0.6), (0.7, 0.9)]}, "p_m and each"),
            ("result1", {"p_y": None}, "p_y and each of its rows must be a tuple, got None"),
            # an exact entry is kept, and quoted by its size past str()'s digit limit
            ("result1", {"p_a": (Fraction(10**5000), 0.5)}, "got a Fraction too long to show"),
        ],
        ids=[
            "p_s",
            "p_a",
            "p_u_huge",
            "p_u_zero",
            "p_u_sum",
            "p_u_nan",
            "p_a_above_one",
            "p_y_zero",
            "p_y_above_ceiling",
            "p_s_zero",
            "p_s_inf",
            "p_m_one",
            "relabelled_outcome_misclassification",
            "rates_swapped_outcome_misclassification",
            "relabelled_result2_seed0",
            "relabelled_result2_seed1",
            "p_m_factor_overflow",
            "p_u_text",
            "p_a_none",
            "p_y_complex",
            "p_u_scalar",
            "p_a_list",
            "p_s_list_row",
            "p_m_list",
            "p_y_none",
            "p_a_huge_fraction",
        ],
    )
    def test_tables_holding_a_mechanism_the_config_denies_are_rejected(
        self, structure, change, named
    ):
        world = world_of(structure)[0]
        with pytest.raises(InfeasibleConfig, match=named):
            replace(world, **change)

    def test_a_world_built_by_hand_meets_the_rules_when_built(self):
        world = world_of("confounding")[0]
        with pytest.raises(InfeasibleConfig, match="p_a and each of its rows must be a tuple"):
            World(world.config, world.p_u, list(world.p_a), world.p_y, world.p_s, None)
        # a config that is no WorldConfig is a wrong-type argument, as in generate_world
        with pytest.raises(ParseError, match="config must be a WorldConfig"):
            World(None, world.p_u, world.p_a, world.p_y, world.p_s, None)
        with pytest.raises(InfeasibleConfig, match="every p_a entry must lie in"):
            World(world.config, world.p_u, (0.9, 1.5), world.p_y, world.p_s, None)

    def test_entries_are_held_as_floats_but_ints_and_fractions_stay_exact(self):
        world, bias_set = world_of("selection")
        report = verify_bound(world, bias_set)
        # a numpy scalar or a Decimal is read as its float, as at every entry point
        for kind in (np.float64, Decimal):
            other_entries = replace(world, p_a=tuple(map(kind, world.p_a)))
            assert all(type(x) is float for x in other_entries.p_a)
            assert verify_bound(other_entries, bias_set) == report
        kept = replace(world, p_s=((1, Fraction(1, 2)), world.p_s[1]))
        assert list(map(type, kept.p_s[0])) == [int, Fraction]


class TestStructureChecks:
    def test_misdeclared_confounding_rejected(self):
        world = world_of("selection", seed=1)[0]
        bias_set = build_bias_set([confounding(), selection()])
        named = "'selection(general)' worlds do not fit 'confounding + selection(general)'"
        with pytest.raises(StructureMismatch, match=re.escape(named)):
            verify_bound(world, bias_set)

    def test_misdeclared_selection_rejected(self):
        config = WorldConfig(build_bias_set([selection(), misclassification("outcome")]))
        world = generate_world(config, 1)
        with pytest.raises(StructureMismatch):
            verify_bound(world, build_bias_set([misclassification("outcome")]))

    def test_wrong_misclassified_variable_rejected(self):
        world = world_of("outcome_misclassification", seed=1)[0]
        bias_set = build_bias_set([misclassification("exposure", rare_outcome=True)])
        with pytest.raises(StructureMismatch):
            verify_bound(world, bias_set)

    def test_direction_simplifications_not_generated(self):
        world = world_of("selection", seed=1)[0]
        bias_set = build_bias_set([selection(risk_direction="increased")])
        with pytest.raises(StructureMismatch):
            verify_bound(world, bias_set)

    def test_misclassification_before_selection_not_generated(self):
        config = WorldConfig(build_bias_set([selection(), misclassification("outcome")]))
        bias_set = build_bias_set([misclassification("outcome"), selection()])
        with pytest.raises(StructureMismatch):
            verify_bound(generate_world(config, 1), bias_set)

    def test_selected_population_accepts_worlds_with_confounding(self):
        config = WorldConfig(build_bias_set([confounding(), selection()]))
        bias_set = build_bias_set([selection("selected")])
        report = verify_bound(generate_world(config, 14), bias_set)
        assert report.holds


class TestWorldConfigDerivation:
    def test_counts(self):
        assert len(DECLARATIONS) == 376
        assert len(DERIVED) == 82
        assert len({bias_set.terms for bias_set, _ in DERIVED}) == 14
        assert len(KINDS) == 14

    @pytest.mark.parametrize(
        "clauses, named",
        [
            # misclassification declared before general-population selection
            ("misclassification(outcome) + selection", "RR_UsY*|A=1"),
            ("misclassification(exposure, rare_outcome) + selection", "RR_UsY|A*=1"),
            ("selection(s_equals_u)", "RR_SY|A=1"),
            ("misclassification(exposure, rare_outcome, rare_exposure)", "RR_YA*|a"),
            # one-armed selection names the arm it leaves out
            ("selection(increased_risk)", "A=0 arm"),
            ("selection(decreased_risk)", "A=1 arm"),
        ],
    )
    def test_rejection_names_what_no_world_measures(self, clauses, named):
        with pytest.raises(StructureMismatch, match=re.escape(named)):
            WorldConfig(parse_bias_string(clauses))

    def test_rejections_raise_structure_mismatch(self):
        accepted = {bias_set.biases for bias_set, _ in DERIVED}
        rejected = [d for d in DECLARATIONS if d not in accepted]
        assert len(rejected) == 294
        for declared in rejected:
            with pytest.raises(StructureMismatch):
                WorldConfig(build_bias_set(declared))

    @pytest.mark.parametrize(
        "bias_set, config", DERIVED, ids=[bias_set.label for bias_set, _ in DERIVED]
    )
    def test_bound_holds_on_derived_worlds(self, bias_set, config):
        # the exposure misclassification bound is approximate: it assumes
        # rare outcomes, so its worlds keep every stratum risk within the
        # derived ceiling, and it is held to the 2% allowance of the
        # rare-outcome structure
        approximate = config.misclassification == "exposure"
        if approximate:
            assert config.rare_outcome_ceiling == 0.01
        for levels in (2, 3):
            wide = replace(config, confounder_levels=levels, selection_levels=levels)
            for seed in range(200):
                report = verify_bound(generate_world(wide, seed), bias_set)
                if approximate:
                    assert report.prevalence <= 0.01, (levels, seed, report)
                    assert report.ratio <= 1.02 * report.bound, (levels, seed, report)
                else:
                    assert report.ratio <= report.bound + 1e-12, (levels, seed, report)


class TestVerify:
    @pytest.mark.parametrize("structure", sorted(STRUCTURES))
    def test_bound_holds_on_sample(self, structure):
        config, bias_set = STRUCTURES[structure]
        for seed in range(40):
            report = verify_bound(generate_world(config, seed), bias_set)
            assert report.holds, (structure, seed, report)

    @pytest.mark.parametrize("structure", ["result1", "result2"])
    def test_each_world_is_built_once_and_its_factor_derived_once(self, structure, monkeypatch):
        config, bias_set = STRUCTURES[structure]
        built, factors, draws = [], [], []
        derive, draw, record = oracle._differential_factor, oracle._draw_rates, oracle._record

        class Counted(World):
            def __init__(self, *tables):
                super().__init__(*tables)
                built.append(self)

        def recorded(cls, **values):
            built.append(record(cls, **values))
            return built[-1]

        def counted(kind, rates):
            factors.append(rates)
            return derive(kind, rates)

        def drawn(rng, kind):
            draws.append(kind)
            return draw(rng, kind)

        monkeypatch.setattr(oracle, "World", Counted)
        monkeypatch.setattr(oracle, "_record", recorded)
        monkeypatch.setattr(oracle, "_differential_factor", counted)
        monkeypatch.setattr(oracle, "_draw_rates", drawn)
        for seed in range(20):
            # generation and verification together: one World, and one factor
            # for each draw of the rates, the last of which the report uses
            world = generate_world(config, seed)
            report = verify_bound(world, bias_set)
            assert len(built) == 1 and built[0] is world
            assert len(factors) == len(draws) >= 1
            factor = derive(config.misclassification, world.p_m)
            assert report.parameters[bias_set.parameters[-1].name] == factor
            # a hand-built world of the same tables derives its factor once,
            # when it is built, and gives the same report; it is built as the
            # patched World, which verify_bound now takes its worlds to be
            factors.clear()
            twin = oracle.World(config, world.p_u, world.p_a, world.p_y, world.p_s, world.p_m)
            assert len(factors) == 1
            assert verify_bound(twin, bias_set) == report and len(factors) == 1
            assert verify_bound(twin, bias_set) == report and len(factors) == 1
            for log in (built, factors, draws):
                log.clear()

    def test_tables_are_built_once_a_world_and_again_when_relabelled(self, monkeypatch):
        # a relabelled world's tables are built anew: its p_a holds 1 - x, and
        # 1 - (1 - x) is not always x, so a swap of the first build's arms
        # would not be the tables verify_bound computes on
        builds, relabelled = [], []
        oriented = oracle._oriented

        class Counted(oracle._Tables):
            __slots__ = ()

            def __init__(self, *args):
                super().__init__(*args)
                builds.append(self)

        def counted(t):
            relabelled.append(not oriented(t))
            return not relabelled[-1]

        monkeypatch.setattr(oracle, "_Tables", Counted)
        monkeypatch.setattr(oracle, "_oriented", counted)
        worlds = 0
        for config, bias_set in STRUCTURES.values():
            for seed in range(400):
                verify_bound(generate_world(config, seed), bias_set)
                worlds += 1
        assert (worlds, sum(relabelled), len(builds)) == (2800, 797, 3597)

    def test_a_config_verifies_its_own_bias_set_without_deriving_it(self, monkeypatch):
        config, bias_set = STRUCTURES["result1"]
        world = generate_world(config, 0)
        derived = []
        mechanisms = oracle._mechanisms

        def counted(bs):
            derived.append(bs)
            return mechanisms(bs)

        monkeypatch.setattr(oracle, "_mechanisms", counted)
        report = verify_bound(world, bias_set)
        assert derived == []
        # an equal set that is another object is derived and fitted as any other
        twin = BiasSet(bias_set.biases, bias_set.parameters, bias_set.terms, bias_set.polynomial)
        assert verify_bound(world, twin) == report and derived == [twin]

    def test_stored_tables_stay_out_of_the_record(self):
        config, bias_set = STRUCTURES["result1"]
        world = generate_world(config, 0)
        twin = World(config, world.p_u, world.p_a, world.p_y, world.p_s, world.p_m)
        verify_bound(world, bias_set)
        assert [f.name for f in fields(World)] == ["config", "p_u", "p_a", "p_y", "p_s", "p_m"]
        assert "_extractors" not in {f.name for f in fields(WorldConfig)}
        assert world == twin and hash(world) == hash(twin) and repr(world) == repr(twin)
        assert replace(config) == config and repr(replace(config)) == repr(config)
        # a replaced world derives its own tables, from its own entries, when built
        other = replace(world)
        assert other._tables is not world._tables
        assert _masses(other._tables) == _masses(world._tables)
        assert verify_bound(other, bias_set) == verify_bound(world, bias_set)

    def test_verification_sets_nothing_on_the_world(self):
        world, bias_set = world_of("result1")
        hand_built = World(world.config, world.p_u, world.p_a, world.p_y, world.p_s, world.p_m)
        for checked in (world, hand_built, replace(world)):
            before = dict(vars(checked))
            verify_bound(checked, bias_set)
            assert vars(checked) == before and vars(checked)["_tables"] is before["_tables"]

    @pytest.mark.parametrize("structure", sorted(STRUCTURES))
    def test_a_world_pickles_and_copies_with_its_tables(self, structure):
        world, bias_set = world_of(structure)
        report = verify_bound(world, bias_set)
        for copied in (pickle.loads(pickle.dumps(world)), copy.copy(world), copy.deepcopy(world)):
            assert type(copied) is World and copied == world and repr(copied) == repr(world)
            assert _masses(copied._tables) == _masses(world._tables)
            assert copied._tables.factor == world._tables.factor
            assert verify_bound(copied, bias_set) == report

    @pytest.mark.parametrize("structure", sorted(STRUCTURES))
    def test_report_pickles_copies_replaces_and_stays_frozen(self, structure):
        for seed in range(3):
            world, bias_set = world_of(structure, seed)
            assert_frozen_record(verify_bound(world, bias_set))

    def test_report_fields(self):
        config, bias_set = STRUCTURES["result1"]
        report = verify_bound(generate_world(config, 0), bias_set)
        assert report.slack == pytest.approx(report.bound - report.ratio)
        assert 0.0 < report.prevalence <= 1.0
        # a report rebuilt from a verify record carries its first five fields only
        rebuilt = BoundReport(report.ratio, report.bound, True, report.slack, report.prevalence)
        assert (rebuilt.parameters, rebuilt.rr_obs, rebuilt.rr_true) == (None, None, None)

    def test_equal_reports_hash_equal(self):
        config, bias_set = STRUCTURES["result1"]
        world = generate_world(config, 0)
        report, again = verify_bound(world, bias_set), verify_bound(world, bias_set)
        assert report == again and report is not again and hash(report) == hash(again)
        assert {report, again} == {report}

    @pytest.mark.parametrize("structure, levels", WIDE)
    def test_report_assembles_its_parts(self, structure, levels):
        for seed, world, bias_set in wide_worlds(structure, levels):
            report = verify_bound(world, bias_set)
            bound = multi_bound(bias_set, report.parameters)
            assert report.ratio == pytest.approx(report.rr_obs / report.rr_true, rel=1e-12), seed
            assert report.bound == pytest.approx(bound, rel=1e-12), seed
            assert report.slack == report.bound - report.ratio, seed
            assert report.prevalence == max(map(max, world.p_y)), seed
