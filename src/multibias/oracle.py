"""Exact finite worlds for stress-testing the bounds against ground truth.

A world is a small discrete joint distribution over a confounding factor, a
selection factor, exposure, outcome, selection, and optionally a recorded
(possibly misclassified) copy of the outcome or exposure. Its factorization
makes the structural assumptions behind the bounds hold exactly, so observed
and counterfactual risk ratios are computable exactly and the bounds become
falsifiable: for exact structures the realized bias must never exceed the
bound, while the exposure misclassification structure is only approximate
and its violation should shrink as the outcome gets rarer.

A drawn world keeps its factor tables as tuples of Python floats, from one
``random.Random`` stream per seed, and parameters and risk ratios are
computed straight from them: with at most 18 cells a table, array calls
would cost more than their arithmetic. The tests enumerate the full joint
table from these tuples as their reference. Each number drawn is one call of
the stream's ``random()``: a Dirichlet cell is ``-log(1 - random())``, the
formula of CPython's ``expovariate(1.0)``, and a uniform entry is
``lo + (hi - lo) * random()``. A config derives the cells of its level
shape once (each cell's confounding level, and the cells of each
confounding and selection level), so no world rebuilds them.

One function, ``_checked``, holds the table rules, and every world meets
them once, when it is built: World's __post_init__ applies them to the
tables it reads, and generate_world to each world it draws. The world keeps
the tables they were checked on (the masses every result shares, and the
differential factor), outside its fields, and verify_bound only reads them;
a config keeps the extractors of the bias set it was derived from. A world
whose exposure is relabelled builds its tables twice, since relabelling
writes 1 - x into p_a and 1 - (1 - x) is not always x.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from math import fsum, inf, log
from operator import add, mul, truediv
from random import Random
from typing import Callable, Iterable

from .biases import NAMED_BIAS_SETS, BiasKind, BiasSet, _require_bias_set, parse_bias_string
from .bounds import multi_bound
from .errors import DegenerateStratum, InfeasibleConfig, StructureMismatch, _as_float, _as_int
from .errors import _record, _shown, _type_error

_MIN_MASS = 1e-9  # strata below this mass are resampled or rejected
_SLACK = 1e-12  # absolute tolerance when checking dominance
_MAX_REDRAWS = 1000
_RARE_OUTCOME_CEILING = 0.01  # stratum risk limit where the bound assumes rare outcomes


@dataclass(frozen=True)
class WorldConfig:
    """The worlds a bias set's bound must hold in.

    The set's declarations give the read-only mechanism fields, the
    misclassified variable being "outcome", "exposure" or None. A ceiling of
    None becomes 0.01 for exposure misclassification, whose bound assumes
    rare outcomes, and 1 otherwise. Raises StructureMismatch for the
    declarations no world satisfies: those with a parameter no extractor
    measures (starred selection symbols, ``RR_SY...``, ``RR_YA*|a...``), and
    those that bound selection in one exposure arm only.
    """

    bias_set: BiasSet
    confounder_levels: int = 2
    selection_levels: int = 2
    rare_outcome_ceiling: float | None = None  # upper limit for every stratum risk
    confounding: bool = field(init=False)
    selection: bool = field(init=False)
    misclassification: str | None = field(init=False)

    def __post_init__(self) -> None:
        _require_bias_set(self.bias_set)
        # _extractors is no field: it stays out of equality, hashing and repr
        derived = ("confounding", "selection", "misclassification", "_extractors")
        for name, value in zip(derived, _mechanisms(self.bias_set)):
            object.__setattr__(self, name, value)
        for name in ("confounder_levels", "selection_levels"):
            levels = getattr(self, name)
            count = _as_int(levels)
            if count not in (2, 3):
                raise InfeasibleConfig(f"factor supports must have 2 or 3 levels, got {levels!r}")
            object.__setattr__(self, name, count)
        # like _extractors, no field: the cells of the level shape, derived once;
        # BENCH_ablation.json: cells derived per world raise oracle_verify's latency_p90 6.2%
        object.__setattr__(self, "_cells", _cells(self.confounder_levels, self.selection_levels))
        ceiling = self.rare_outcome_ceiling
        if ceiling is None:
            ceiling = _RARE_OUTCOME_CEILING if self.misclassification == "exposure" else 1.0
        # a number is held as a float; text and other non-numbers read as nan
        ceiling = _as_float(ceiling)
        if not 1e-6 <= ceiling <= 1.0:
            raise InfeasibleConfig(
                "rare_outcome_ceiling must be a number in [1e-6, 1] to keep outcome "
                "probabilities positive at machine precision"
            )
        object.__setattr__(self, "rare_outcome_ceiling", ceiling)


@dataclass(frozen=True)
class World:
    """A finite joint distribution satisfying the declared structure exactly.

    Factorization: P(uc, us) * P(a | uc) * P(y | a, uc, us) * P(s | a, us),
    with the recorded copy drawn from P(m | y, a). This yields
    exchangeability given the confounding factor, selection independent of
    the outcome given exposure and the selection factor, and classification
    errors that may depend on the true exposure and outcome but nothing else.

    Tables are tuples of real numbers, held as floats but for exact ints
    and Fractions, that meet the table rules or raise InfeasibleConfig; a
    cell is a pair (c, u) of confounding and selection levels, in row order
    (index ``c * selection_levels + u``).
    """

    config: WorldConfig
    p_u: tuple  # [cell]: joint mass of the latent factors
    p_a: tuple  # [c]: chance of exposure given the confounding factor
    p_y: tuple  # [a][cell]: outcome risk given exposure and factors
    p_s: tuple  # [a][u]: selection chance given exposure and factor
    p_m: tuple | None  # [true y][true a]: chance the copy is 1

    def __post_init__(self) -> None:
        if not isinstance(self.config, WorldConfig):
            raise _type_error(self.config, WorldConfig, "config")
        for name in ("p_u", "p_a", "p_y", "p_s", "p_m"):
            table = getattr(self, name)
            if table is not None or name != "p_m":
                object.__setattr__(self, name, _read(table, name, name not in ("p_u", "p_a")))
        _checked(self)


def _read(table, name: str, nested: bool) -> tuple:
    """A caller's table: a tuple of real numbers, or of rows of them, each entry held.

    An int or a Fraction is kept exact and any other entry is read by
    errors._as_float; one it reads as NaN (text, None, a complex number or a
    NaN) is no real number.
    """
    from fractions import Fraction  # imported here, so no drawn world's CLI call loads it

    if type(table) is not tuple:
        raise InfeasibleConfig(f"{name} and each of its rows must be a tuple, got {_shown(table)}")
    if nested:
        return tuple([_read(row, name, False) for row in table])
    entries = [x if type(x) in (int, Fraction) else _as_float(x) for x in table]
    for x, entry in zip(table, entries):
        if entry != entry:
            raise InfeasibleConfig(f"every {name} entry must be a real number, got {_shown(x)}")
    return tuple(entries)


def generate_world(config: WorldConfig, seed: int) -> World:
    """Draw a random world with the configured mechanisms active.

    Each seed, a nonnegative integer other than a bool, names one
    ``random.Random`` stream, a numpy integer that of the equal int. With
    misclassification, the tables are drawn, exposure is relabelled so the
    outcome risk among the selected runs in the causative direction, the
    classification rates are redrawn until the differential factor is at
    least 1, and only then is the one World built: the misclassification
    part of the bound is one-sided, and this pure relabeling and these
    redraws put the world on the side it covers, keeping every assumption.
    """
    if not isinstance(config, WorldConfig):
        raise _type_error(config, WorldConfig, "config")
    stream = _as_int(seed)
    if stream is None or stream < 0:
        raise InfeasibleConfig(f"seed must be a nonnegative int, got {seed!r}")
    random = Random(stream).random
    nc, ns = config.confounder_levels, config.selection_levels

    for _ in range(_MAX_REDRAWS):  # Dirichlet(1, ..., 1) over the cells
        # each cell is expovariate(1.0), drawn as CPython's random module draws it
        draws = [-log(1.0 - random()) for _ in range(nc * ns)]
        total = fsum(draws)
        p_u = tuple([x / total for x in draws])
        if min(p_u) >= _MIN_MASS:
            break
    else:
        raise DegenerateStratum("could not draw latent factors with enough mass")

    if config.confounding:
        p_a = _uniform(random, 0.05, 0.95, nc)
    else:
        p_a = _uniform(random, 0.05, 0.95, 1) * nc

    ceiling = config.rare_outcome_ceiling
    low = 0.001 * ceiling
    p_y = (_uniform(random, low, ceiling, nc * ns), _uniform(random, low, ceiling, nc * ns))

    if config.selection:
        p_s = (_uniform(random, 0.05, 0.95, ns), _uniform(random, 0.05, 0.95, ns))
    else:
        p_s = ((1.0,) * ns,) * 2

    p_m = _draw_rates(random, config.misclassification)
    if p_m is None:
        t = _Tables(config, p_u, p_a, p_y, p_s)
    else:
        p_a, p_y, p_s, p_m, t = _orient(config, p_u, p_a, p_y, p_s, p_m)
        for _ in range(_MAX_REDRAWS):
            t.factor = _differential_factor(config.misclassification, p_m)
            if t.factor >= 1.0:
                break
            p_m = _draw_rates(random, config.misclassification)
        else:  # pragma: no cover - each redraw succeeds with fair probability
            raise InfeasibleConfig("could not draw classification rates")
    # its tables are tuples of floats, so it skips World's read but not the rules
    world = _record(World, config=config, p_u=p_u, p_a=p_a, p_y=p_y, p_s=p_s, p_m=p_m)
    _checked(world, t)
    return world


def _uniform(random: Callable[[], float], lo: float, hi: float, n: int) -> tuple:
    """n independent draws from U(lo, hi), each from one call of a stream's random()."""
    span = hi - lo
    return tuple([lo + span * random() for _ in range(n)])


def _draw_rates(random: Callable[[], float], kind: str | None) -> tuple | None:
    if kind is None:
        return None
    high, low = _uniform(random, 0.5, 0.99, 2), _uniform(random, 0.01, 0.5, 2)
    if kind == "outcome":
        return low, high  # rows y = 0, 1: false positives, sensitivities by arm
    return tuple(zip(low, high))  # row y: P(A*=1 | A=0), P(A*=1 | A=1)


def _orient(config: WorldConfig, p_u, p_a, p_y, p_s, p_m) -> tuple:
    """p_a, p_y, p_s, p_m and their tables, relabelled so the selected risk is higher under A=1.

    Relabelled tables are built anew (see the module docstring).
    """
    t = _Tables(config, p_u, p_a, p_y, p_s)
    if _oriented(t):
        return p_a, p_y, p_s, p_m, t
    p_m = tuple(row[::-1] for row in p_m)
    if config.misclassification == "exposure":
        # the recorded copy's labels flip with the true ones
        p_m = tuple(tuple([1 - x for x in row]) for row in p_m)
    p_a, p_y, p_s = tuple([1 - x for x in p_a]), p_y[::-1], p_s[::-1]
    return p_a, p_y, p_s, p_m, _Tables(config, p_u, p_a, p_y, p_s)


def _oriented(t: _Tables) -> bool:
    """Whether the selected outcome risk is at least as high under A=1 as under A=0."""
    return t.cases[1] / t.total[1] >= t.cases[0] / t.total[0]


def _differential_factor(kind: str, rates: tuple) -> float:
    """The misclassification bounding factor implied by the error rates of a kind's copy."""
    if kind == "outcome":
        return max(rates[1][1] / rates[1][0], rates[0][1] / rates[0][0])
    s1, s0 = rates[1][1], rates[0][1]  # P(A*=1 | Y=y, A=1) for y = 1, 0
    f1, f0 = rates[1][0], rates[0][0]  # P(A*=1 | Y=y, A=0) for y = 1, 0
    false_positive = (f1 / f0) / ((1 - f1) / (1 - f0))
    sensitivity = (s1 / s0) / ((1 - s1) / (1 - s0))
    correct = (s1 / s0) / ((1 - f1) / (1 - f0))
    incorrect = (f1 / f0) / ((1 - s1) / (1 - s0))
    return max(false_positive, sensitivity, correct, incorrect)


def _cells(nc: int, ns: int) -> tuple[tuple, tuple, tuple]:
    """A level shape's cells in row order, which each WorldConfig derives once.

    They are each cell's confounding level (its index into p_a), and the
    slices of the cells at each confounding level (the rows) and at each
    selection level (the columns).
    """
    return (
        tuple([c for c in range(nc) for _ in range(ns)]),
        tuple([slice(i, i + ns) for i in range(0, nc * ns, ns)]),
        tuple([slice(u, None, ns) for u in range(ns)]),
    )


class _Tables:
    """A world's tables, with the masses and the factor all results share.

    Masses are lists per exposure arm a over the world's cells: ``mass[a]``
    is P(A=a, Uc, Us), ``sel[a]`` its selected part (S=1), ``total[a]`` is
    P(A=a, S=1) and ``cases[a]`` is P(A=a, Y=1, S=1). ``factor`` is the
    differential factor of the world's classification rates, which its
    deriver sets, or None without them. ``rows`` and ``columns`` are the
    config's slices of the cells by level (see _cells).
    """

    def __init__(self, config: WorldConfig, p_u, p_a, p_y, p_s) -> None:
        level, self.rows, self.columns = config._cells
        self.mis = config.misclassification
        self.p_u, self.p_y, self.p_s, self.factor = p_u, p_y, p_s, None
        exposed = [p_a[c] for c in level]  # P(A=1 | Uc)
        unexposed = [1 - x for x in exposed]
        nc = config.confounder_levels
        self.mass = mass = [list(map(mul, p_u, unexposed)), list(map(mul, p_u, exposed))]
        self.sel = sel = [
            list(map(mul, mass[0], p_s[0] * nc)), list(map(mul, mass[1], p_s[1] * nc))
        ]
        self.total = [fsum(sel[0]), fsum(sel[1])]
        self.cases = [fsum(map(mul, sel[0], p_y[0])), fsum(map(mul, sel[1], p_y[1]))]


def _dot(x: Iterable[float], y: Iterable[float]) -> float:
    return fsum(map(mul, x, y))


def _normalized(mass: list, a: int, s: int) -> list:
    """P(factor level | A=a, S=s) from the stratum's masses."""
    total = fsum(mass)
    if total < _MIN_MASS:
        raise DegenerateStratum(f"stratum A={a}, S={s} has no mass")
    return [m / total for m in mass]


def _levels(arm: list, ys: tuple, cells: tuple[slice, ...]) -> tuple[list, float]:
    """Each level's mass in one arm, and the spread of the levels' outcome risks."""
    mass = [fsum(arm[c]) for c in cells]
    risk = [fsum(map(mul, arm[c], ys[c])) / n for c, n in zip(cells, mass)]
    return mass, max(risk) / min(risk)


def _confounding(t: _Tables) -> dict[str, float]:
    level0, spread0 = _levels(t.mass[0], t.p_y[0], t.rows)  # by Uc level
    level1, spread1 = _levels(t.mass[1], t.p_y[1], t.rows)
    total0, total1 = fsum(level0), fsum(level1)
    shift = max([(n1 / total1) / (n0 / total0) for n0, n1 in zip(level0, level1)])
    return {"RR_AUc": shift, "RR_UcY": max(1.0, spread0, spread1)}


def _selection(t: _Tables, a: int) -> dict[str, float]:
    p_s = t.p_s[a]
    by_level, spread = _levels(t.mass[a], t.p_y[a], t.columns)  # by Us level
    kept = _normalized(list(map(mul, by_level, p_s)), a, 1)
    dropped = _normalized([m * (1 - s) for m, s in zip(by_level, p_s)], a, 0)
    # the reweighting runs toward S=1 in the exposed arm, S=0 in the unexposed
    num, den = (kept, dropped) if a == 1 else (dropped, kept)
    spread_key, shift_key = _SELECTION_KEYS[a]
    return {spread_key: spread, shift_key: max(map(truediv, num, den))}


_EXPOSED = partial(_selection, a=1)
_UNEXPOSED = partial(_selection, a=0)


def _selected_population(t: _Tables) -> dict[str, float]:
    shift = max(map(truediv, *(_normalized(t.sel[a], a, 1) for a in (1, 0))))
    spread = max(max(ys) / min(ys) for ys in t.p_y)
    return {"RR_AUsc|S": shift, "RR_UscY|S": spread}


def _misclassification(t: _Tables) -> dict[str, float]:
    return dict.fromkeys(_MISCLASSIFIED, t.factor)


_SELECTION_KEYS = (("RR_UsY|A=0", "RR_SUs|A=0"), ("RR_UsY|A=1", "RR_SUs|A=1"))  # by arm
_MISCLASSIFIED = ("RR_AY*|y", "RR_AY*|y,S", "OR_YA*|a", "OR_YA*|a,S")
# the parameters a generated world measures, by display symbol: each one's
# extractor, which also yields the parameters derived alongside it
_EXTRACTORS: dict[str, Callable[[_Tables], dict[str, float]]] = {
    **dict.fromkeys(("RR_AUc", "RR_UcY"), _confounding),
    **dict.fromkeys(("RR_UsY|A=1", "RR_SUs|A=1"), _EXPOSED),
    **dict.fromkeys(("RR_UsY|A=0", "RR_SUs|A=0"), _UNEXPOSED),
    **dict.fromkeys(("RR_AUsc|S", "RR_UscY|S"), _selected_population),
    **dict.fromkeys(_MISCLASSIFIED, _misclassification),
}


def _mechanisms(bias_set: BiasSet) -> tuple[bool, bool, str | None, dict]:
    """A bias set's confounding, selection, misclassified variable and parameter extractors."""
    extractors = {}
    try:
        for p in bias_set.parameters:
            extractors[_EXTRACTORS[p.display]] = None
    except KeyError as missing:
        raise StructureMismatch(
            f"no generated world measures {missing.args[0]}, a parameter of {bias_set.label!r}"
        ) from None
    conf = sel = False
    mis = None
    for spec in bias_set.biases:
        if spec.kind is BiasKind.CONFOUNDING:
            conf = True
        elif spec.kind is BiasKind.SELECTION:
            sel = True
        else:
            mis = spec.variable
    if sel and (_EXPOSED in extractors) != (_UNEXPOSED in extractors):
        arm = int(_UNEXPOSED in extractors)  # the arm with no parameters
        raise StructureMismatch(f"{bias_set.label!r} bounds no selection in the A={arm} arm")
    return conf, sel, mis, extractors


def _extractors(config: WorldConfig, bias_set: BiasSet) -> dict:
    """The bias set's extractors, once the config's worlds are found to fit it."""
    # BENCH_ablation.json: _mechanisms on every call read 8.5% slower on oracle_verify; a test pins this
    if bias_set is config.bias_set:  # the set the config was derived from
        return config._extractors
    _require_bias_set(bias_set)
    conf, sel, mis, extractors = _mechanisms(bias_set)
    # a selected-population set covers confounding whether or not it is
    # present, since its parameters range over the joint factor
    if config.selection != sel or config.misclassification != mis or (
        config.confounding != conf and _selected_population not in extractors
    ):
        raise StructureMismatch(f"{config.bias_set.label!r} worlds do not fit {bias_set.label!r}")
    return extractors


def _checked(world: World, t: _Tables | None = None) -> None:
    """Store the world's tables with it once it meets every table rule.

    generate_world gives t, built from the world's entries, with its factor.
    """
    config = world.config
    # the tables must have the lengths the config gives (p_u, p_a, p_y, p_s,
    # their rows, p_m and its rows) and must not hold a mechanism it denies
    p_y, p_s, p_m = world.p_y, world.p_s, world.p_m
    if (p_m is None) != (config.misclassification is None):
        raise InfeasibleConfig("p_m must be given exactly when the config has misclassification")
    nc, ns = config.confounder_levels, config.selection_levels
    found = (len(world.p_u), len(world.p_a), len(p_y), len(p_s), *map(len, (*p_y, *p_s)))
    want = (nc * ns, nc, 2, 2, nc * ns, nc * ns, ns, ns)
    if p_m is not None:
        found, want = found + (len(p_m), *map(len, p_m)), want + (2, 2, 2)
    if found != want:
        raise InfeasibleConfig(f"table lengths {found} do not fit the config, which gives {want}")
    if not config.confounding and len(set(world.p_a)) > 1:
        raise InfeasibleConfig("p_a must be constant, since the config has no confounding")
    if not config.selection and {*p_s[0], *p_s[1]} != {1.0}:
        raise InfeasibleConfig("every p_s entry must be 1, since the config has no selection")
    # every entry is a probability in its range, which NaN and inf are not
    bad = [
        f"every {name} entry must lie in (0, {top:g}{']' if closed else ')'}, got {_shown(x)}"
        for name, rows, top, closed in (
            ("p_u", (world.p_u,), 1.0, True),
            ("p_a", (world.p_a,), 1.0, False),
            ("p_y", p_y, config.rare_outcome_ceiling, True),
            ("p_s", p_s, 1.0, True),
            ("p_m", p_m or (), 1.0, False),
        )
        for row in rows
        for x in row
        if not (0.0 < x < top or closed and x == top)
    ]
    if bad:
        raise InfeasibleConfig(bad[0])
    if abs(fsum(world.p_u) - 1.0) > 1e-9:
        raise InfeasibleConfig(f"p_u must sum to 1, got {fsum(world.p_u)!r}")
    if t is None:
        t = _Tables(config, world.p_u, world.p_a, p_y, p_s)
        if p_m is not None:
            t.factor = _differential_factor(config.misclassification, p_m)
    # the misclassification bound is one-sided: a world must lie on the side it
    # covers, where generate_world puts it (_orient and the redraw)
    if p_m is not None and not _oriented(t):
        r0, r1 = map(truediv, t.cases, t.total)
        raise InfeasibleConfig(f"selected outcome risk {r1!r} at A=1 is below {r0!r} at A=0")
    if p_m is not None and not 1.0 <= t.factor < inf:
        raise InfeasibleConfig(
            f"differential factor of p_m must be a finite number at least 1, got {t.factor!r}"
        )
    object.__setattr__(world, "_tables", t)


def _risk_ratios(t: _Tables, rates: tuple | None, selected: bool) -> tuple[float, float]:
    num, den = t.cases, t.total
    if rates is not None:  # P(copy=1 | y, a), indexed [y][a]
        controls = [_dot(sel, [1 - y for y in ys]) for sel, ys in zip(t.sel, t.p_y)]
        if t.mis == "outcome":
            num = [num[a] * rates[1][a] + controls[a] * rates[0][a] for a in (0, 1)]
        else:
            # the recorded copy is the exposure; chance[m][y][a] is P(A*=m | y, a)
            chance = ([[1 - r for r in row] for row in rates], rates)
            num = [_dot(t.cases, chance[m][1]) for m in (0, 1)]
            den = [n + _dot(controls, c[0]) for n, c in zip(num, chance)]
    if min(den) < _MIN_MASS or min(num) <= 0.0:
        raise DegenerateStratum("an analysis cell has (almost) no mass")
    rr_obs = (num[1] / den[1]) / (num[0] / den[0])

    # P(Uc, Us), or P(Uc, Us, S=1) among the selected, whose total cancels
    weights = list(map(add, *t.sel)) if selected else t.p_u
    return rr_obs, _dot(weights, t.p_y[1]) / _dot(weights, t.p_y[0])


@dataclass(frozen=True)
class BoundReport:
    """Outcome of checking one world against the bound."""

    ratio: float  # realized observed-to-true risk ratio
    bound: float  # bound evaluated at the world's exact parameters
    holds: bool  # ratio <= bound + 1e-12
    slack: float  # bound - ratio; negative means the bound was violated
    prevalence: float  # largest stratum outcome risk (how rare the outcome is)
    # exact values, by argument name; left out of the hash, since a dict has none
    parameters: dict[str, float] | None = field(default=None, hash=False)
    rr_obs: float | None = None  # observable risk ratio
    rr_true: float | None = None  # causal risk ratio it may distort


def verify_bound(world: World, bias_set: BiasSet) -> BoundReport:
    """Compare the bias realized in a world against the bound's promise.

    The report's parameters are extremes over the latent factor levels.
    rr_obs is taken among the selected and from the recorded copy, where the
    structure has them; rr_true standardizes the potential-outcome risks over
    the latent factors, in the population the bias set targets. It reads
    the tables the world was built with, and sets nothing on it.
    """
    if not isinstance(world, World):
        raise _type_error(world, World, "world", "as generate_world returns")
    extractors = _extractors(world.config, bias_set)
    t = world._tables
    values: dict[str, float] = {}
    try:
        for extractor in extractors:
            values.update(extractor(t))
    except ZeroDivisionError:  # a level's mass underflowed to 0
        raise DegenerateStratum("a factor level of a stratum has no mass") from None
    params = {p.name: values[p.display] for p in bias_set.parameters}
    rr_obs, rr_true = _risk_ratios(t, world.p_m, _selected_population in extractors)
    bound = multi_bound(bias_set, params)
    ratio = rr_obs / rr_true
    prevalence = float(max(map(max, t.p_y)))
    return BoundReport(
        ratio, bound, ratio <= bound + _SLACK, bound - ratio, prevalence, params, rr_obs, rr_true
    )


STRUCTURES: dict[str, tuple[WorldConfig, BiasSet]] = {
    name: (WorldConfig(bias_set), bias_set)
    for name, bias_set in zip(NAMED_BIAS_SETS, map(parse_bias_string, NAMED_BIAS_SETS.values()))
}
