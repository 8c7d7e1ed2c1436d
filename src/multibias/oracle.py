"""Exact finite worlds for stress-testing the bounds against ground truth.

A world is a small discrete joint distribution over a confounding factor, a
selection factor, exposure, outcome, selection, and optionally a recorded
(possibly misclassified) copy of the outcome or exposure. Its factorization
makes the structural assumptions behind the bounds hold exactly, so observed
and counterfactual risk ratios are computable exactly and the bounds become
falsifiable: for exact structures the realized bias must never exceed the
bound, while the exposure misclassification structure is only approximate
and its violation should shrink as the outcome gets rarer.

A world keeps its factor tables as tuples of Python floats, drawn from one
``random.Random`` stream per seed, and parameters and risk ratios are
computed straight from them: with at most 18 cells a table, array calls
would cost more than their arithmetic. The tests enumerate the full joint
table from these tuples as their reference.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from math import fsum
from operator import add, mul, truediv
from random import Random
from typing import Callable, Iterable

from .biases import NAMED_BIAS_SETS, BiasKind, BiasSet, parse_bias_string
from .bounds import multi_bound
from .errors import DegenerateStratum, InfeasibleConfig, StructureMismatch

_MIN_MASS = 1e-9  # strata below this mass are resampled or rejected
_SLACK = 1e-12  # absolute tolerance when checking dominance
_MAX_REDRAWS = 1000
_ONE = 1.0  # map(_ONE.__sub__, xs) yields 1 - x for each x
_RARE_OUTCOME_CEILING = 0.01  # stratum risk limit where the bound assumes rare outcomes
_CONFOUNDING, _SELECTION = BiasKind.CONFOUNDING, BiasKind.SELECTION  # enum lookups are slow


@dataclass(frozen=True)
class WorldConfig:
    """Which bias mechanisms a generated world contains; see :func:`world_config`."""

    confounding: bool = False
    selection: bool = False
    misclassification: str | None = None  # "outcome" or "exposure"
    confounder_levels: int = 2
    selection_levels: int = 2
    rare_outcome_ceiling: float | None = None  # upper limit for every stratum risk

    def __post_init__(self) -> None:
        if self.misclassification not in (None, "outcome", "exposure"):
            raise InfeasibleConfig(
                f"misclassification must be None, 'outcome' or 'exposure', "
                f"got {self.misclassification!r}"
            )
        for levels in (self.confounder_levels, self.selection_levels):
            if not (isinstance(levels, int) and levels in (2, 3)):
                raise InfeasibleConfig(f"factor supports must have 2 or 3 levels, got {levels!r}")
        if self.rare_outcome_ceiling is not None and not (
            1e-6 <= self.rare_outcome_ceiling <= 1.0
        ):
            raise InfeasibleConfig(
                "rare_outcome_ceiling must lie in [1e-6, 1] to keep outcome "
                "probabilities positive at machine precision"
            )


@dataclass(frozen=True)
class World:
    """A finite joint distribution satisfying the declared structure exactly.

    Factorization: P(uc, us) * P(a | uc) * P(y | a, uc, us) * P(s | a, us),
    with the recorded copy drawn from P(m | y, a). This yields
    exchangeability given the confounding factor, selection independent of
    the outcome given exposure and the selection factor, and classification
    errors that may depend on the true exposure and outcome but nothing else.

    Tables are tuples of floats; a cell is a pair (c, u) of confounding and
    selection levels, in row order (index ``c * selection_levels + u``).
    """

    config: WorldConfig
    p_u: tuple  # [cell]: joint mass of the latent factors
    p_a: tuple  # [c]: chance of exposure given the confounding factor
    p_y: tuple  # [a][cell]: outcome risk given exposure and factors
    p_s: tuple  # [a][u]: selection chance given exposure and factor
    p_m: tuple | None  # [true y][true a]: chance the copy is 1


def generate_world(config: WorldConfig, seed: int) -> World:
    """Draw a random world with the configured mechanisms active.

    Each seed, a nonnegative int, names one ``random.Random`` stream. When
    misclassification is active the exposure labels are chosen so the
    outcome risk comparison among the selected runs in the causative
    direction, and classification rates are redrawn until the differential
    factor is at least 1: the misclassification part of the bound is
    one-sided, and these pure relabelings/redraws put the world on the side
    it covers without touching any structural assumption.
    """
    if not isinstance(seed, int) or seed < 0:
        raise InfeasibleConfig(f"seed must be a nonnegative int, got {seed!r}")
    rng = Random(seed)
    nc, ns = config.confounder_levels, config.selection_levels

    for _ in range(_MAX_REDRAWS):  # Dirichlet(1, ..., 1) over the cells
        draws = [rng.expovariate(1.0) for _ in range(nc * ns)]
        total = fsum(draws)
        p_u = tuple([x / total for x in draws])
        if min(p_u) >= _MIN_MASS:
            break
    else:
        raise DegenerateStratum("could not draw latent factors with enough mass")

    if config.confounding:
        p_a = _uniform(rng, 0.05, 0.95, nc)
    else:
        p_a = _uniform(rng, 0.05, 0.95, 1) * nc

    ceiling = config.rare_outcome_ceiling or 1.0
    p_y = tuple(_uniform(rng, 0.001 * ceiling, ceiling, nc * ns) for _ in (0, 1))

    if config.selection:
        p_s = tuple(_uniform(rng, 0.05, 0.95, ns) for _ in (0, 1))
    else:
        p_s = ((1.0,) * ns,) * 2

    world = World(config, p_u, p_a, p_y, p_s, _draw_rates(rng, config.misclassification))
    if config.misclassification is not None:
        world = _orient(world)
        for _ in range(_MAX_REDRAWS):
            if _differential_factor(world) >= 1.0:
                break
            world = replace(world, p_m=_draw_rates(rng, config.misclassification))
        else:  # pragma: no cover - each redraw succeeds with fair probability
            raise InfeasibleConfig("could not draw classification rates")
    return world


def _uniform(rng: Random, lo: float, hi: float, n: int) -> tuple:
    """n independent draws from U(lo, hi)."""
    return tuple([lo + (hi - lo) * rng.random() for _ in range(n)])


def _draw_rates(rng: Random, kind: str | None) -> tuple | None:
    if kind is None:
        return None
    high, low = _uniform(rng, 0.5, 0.99, 2), _uniform(rng, 0.01, 0.5, 2)
    if kind == "outcome":
        return low, high  # rows y = 0, 1: false positives, sensitivities by arm
    return tuple(zip(low, high))  # row y: P(A*=1 | A=0), P(A*=1 | A=1)


def _orient(world: World) -> World:
    """Relabel exposure so the selected outcome risk is higher under A=1."""
    if _oriented(_Tables(world)):
        return world
    p_m = world.p_m
    if p_m is not None:
        p_m = tuple(row[::-1] for row in p_m)
        if world.config.misclassification == "exposure":
            # the recorded copy's labels flip with the true ones
            p_m = tuple(tuple(map(_ONE.__sub__, row)) for row in p_m)
    p_a = tuple(map(_ONE.__sub__, world.p_a))
    return World(world.config, world.p_u, p_a, world.p_y[::-1], world.p_s[::-1], p_m)


def _oriented(t: _Tables) -> bool:
    """Whether the selected outcome risk is at least as high under A=1 as under A=0."""
    return t.cases[1] / t.total[1] >= t.cases[0] / t.total[0]


def _differential_factor(world: World) -> float:
    """The misclassification bounding factor implied by the error rates."""
    rates = world.p_m
    if world.config.misclassification == "outcome":
        return max(rates[1][1] / rates[1][0], rates[0][1] / rates[0][0])
    s1, s0 = rates[1][1], rates[0][1]  # P(A*=1 | Y=y, A=1) for y = 1, 0
    f1, f0 = rates[1][0], rates[0][0]  # P(A*=1 | Y=y, A=0) for y = 1, 0
    false_positive = (f1 / f0) / ((1.0 - f1) / (1.0 - f0))
    sensitivity = (s1 / s0) / ((1.0 - s1) / (1.0 - s0))
    correct = (s1 / s0) / ((1.0 - f1) / (1.0 - f0))
    incorrect = (f1 / f0) / ((1.0 - s1) / (1.0 - s0))
    return max(false_positive, sensitivity, correct, incorrect)


class _Tables:
    """A world's tables, with the masses all results share.

    Masses are lists per exposure arm a over the world's cells: ``mass[a]``
    is P(A=a, Uc, Us), ``sel[a]`` its selected part (S=1), ``total[a]`` is
    P(A=a, S=1) and ``cases[a]`` is P(A=a, Y=1, S=1).
    """

    __slots__ = ("world", "ns", "p_u", "p_y", "p_s", "mass", "sel", "total", "cases")

    def __init__(self, world: World) -> None:
        nc, self.ns = world.config.confounder_levels, world.config.selection_levels
        self.world = world
        self.p_u = p_u = world.p_u
        self.p_y = p_y = world.p_y
        self.p_s = p_s = world.p_s
        exposed = [x for x in world.p_a for _ in range(self.ns)]  # P(A=1 | Uc)
        unexposed = list(map(_ONE.__sub__, exposed))
        self.mass = mass = [list(map(mul, p_u, w)) for w in (unexposed, exposed)]
        self.sel = sel = [list(map(mul, m, chance * nc)) for m, chance in zip(mass, p_s)]
        self.total = list(map(fsum, sel))
        self.cases = list(map(_dot, sel, p_y))


def _dot(x: Iterable[float], y: Iterable[float]) -> float:
    return fsum(map(mul, x, y))


def _normalized(mass: list, a: int, s: int) -> list:
    """P(factor level | A=a, S=s) from the stratum's masses."""
    total = fsum(mass)
    if total < _MIN_MASS:
        raise DegenerateStratum(f"stratum A={a}, S={s} has no mass")
    return [m / total for m in mass]


def _levels(arm: list, ys: list, cells: list[slice]) -> tuple[list, float]:
    """Each level's mass in one arm, and the spread of the levels' outcome risks."""
    mass = [fsum(arm[c]) for c in cells]
    risk = [_dot(arm[c], ys[c]) / n for c, n in zip(cells, mass)]
    return mass, max(risk) / min(risk)


def _confounding(t: _Tables) -> dict[str, float]:
    rows = [slice(i, i + t.ns) for i in range(0, len(t.p_u), t.ns)]  # Uc levels
    (level0, spread0), (level1, spread1) = (_levels(*arm, rows) for arm in zip(t.mass, t.p_y))
    total0, total1 = fsum(level0), fsum(level1)
    shift = max((n1 / total1) / (n0 / total0) for n0, n1 in zip(level0, level1))
    return {"RR_AUc": shift, "RR_UcY": max(1.0, spread0, spread1)}


def _selection(t: _Tables, a: int) -> dict[str, float]:
    columns = [slice(u, None, t.ns) for u in range(t.ns)]  # Us levels
    by_level, spread = _levels(t.mass[a], t.p_y[a], columns)
    kept = _normalized(list(map(mul, by_level, t.p_s[a])), a, 1)
    dropped = _normalized(list(map(mul, by_level, map(_ONE.__sub__, t.p_s[a]))), a, 0)
    # the reweighting runs toward S=1 in the exposed arm, S=0 in the unexposed
    num, den = (kept, dropped) if a == 1 else (dropped, kept)
    return {f"RR_UsY|A={a}": spread, f"RR_SUs|A={a}": max(map(truediv, num, den))}


def _selected_population(t: _Tables) -> dict[str, float]:
    shift = max(map(truediv, *(_normalized(t.sel[a], a, 1) for a in (1, 0))))
    spread = max(max(ys) / min(ys) for ys in t.p_y)
    return {"RR_AUsc|S": shift, "RR_UscY|S": spread}


def _misclassification(t: _Tables) -> dict[str, float]:
    return dict.fromkeys(_MISCLASSIFIED, _differential_factor(t.world))


_EXPOSED, _UNEXPOSED = partial(_selection, a=1), partial(_selection, a=0)
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
        if spec.kind is _CONFOUNDING:
            conf = True
        elif spec.kind is _SELECTION:
            sel = True
        else:
            mis = spec.variable
    if sel and (_EXPOSED in extractors) != (_UNEXPOSED in extractors):
        arm = int(_UNEXPOSED in extractors)  # the arm with no parameters
        raise StructureMismatch(f"{bias_set.label!r} bounds no selection in the A={arm} arm")
    return conf, sel, mis, extractors


def world_config(bias_set: BiasSet) -> WorldConfig:
    """The mechanisms of the worlds a bias set's bound must hold in.

    Exposure misclassification worlds get rare outcomes, as its bound
    assumes. Raises StructureMismatch for the declarations no generated
    world satisfies: those with a parameter no extractor measures (starred
    selection symbols, ``RR_SY...`` and ``RR_YA*|a...``), and those that
    bound selection in one exposure arm only.
    """
    conf, sel, mis, _ = _mechanisms(bias_set)
    ceiling = _RARE_OUTCOME_CEILING if mis == "exposure" else None
    return WorldConfig(conf, sel, mis, rare_outcome_ceiling=ceiling)


def _check_structure(world: World, bias_set: BiasSet) -> tuple[_Tables, dict]:
    """The world's tables and the bias set's extractors, once the world is found to fit it."""
    conf, sel, mis, extractors = _mechanisms(bias_set)
    config = world.config
    # a selected-population set covers confounding whether or not it is
    # present, since its parameters range over the joint factor
    if config.selection != sel or config.misclassification != mis or (
        config.confounding != conf and _selected_population not in extractors
    ):
        raise StructureMismatch(f"{config} does not fit the bias set {bias_set.label!r}")
    # the tables must have the lengths the config gives (p_u, p_a, p_y, p_s,
    # their rows, p_m and its rows) and must not hold a mechanism it denies
    p_y, p_s, p_m = world.p_y, world.p_s, world.p_m
    if (p_m is None) != (config.misclassification is None):
        raise InfeasibleConfig(f"p_m must be given exactly when {config} has misclassification")
    nc, ns = config.confounder_levels, config.selection_levels
    found = (len(world.p_u), len(world.p_a), len(p_y), len(p_s), *map(len, (*p_y, *p_s)))
    want = (nc * ns, nc, 2, 2, nc * ns, nc * ns, ns, ns)
    if p_m is not None:
        found, want = found + (len(p_m), *map(len, p_m)), want + (2, 2, 2)
    if found != want:
        raise InfeasibleConfig(f"table lengths {found} do not fit {config}, which gives {want}")
    if not config.confounding and len(set(world.p_a)) > 1:
        raise InfeasibleConfig(f"p_a must be constant, since {config} has no confounding")
    if not config.selection and {*p_s[0], *p_s[1]} != {1.0}:
        raise InfeasibleConfig(f"every p_s entry must be 1, since {config} has no selection")
    # every entry is a probability in its range, which NaN and inf are not
    bad = [
        f"every {name} entry must lie in (0, {top:g}{']' if closed else ')'}, got {x!r}"
        for name, rows, top, closed in (
            ("p_u", (world.p_u,), 1.0, True),
            ("p_a", (world.p_a,), 1.0, False),
            ("p_y", p_y, config.rare_outcome_ceiling or 1.0, True),
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
    t = _Tables(world)
    # the misclassification bound is one-sided: a world must lie on the side it
    # covers, where generate_world puts it (_orient and the redraw)
    if p_m is not None and not _oriented(t):
        r0, r1 = map(truediv, t.cases, t.total)
        raise InfeasibleConfig(f"selected outcome risk {r1!r} at A=1 is below {r0!r} at A=0")
    if p_m is not None and (factor := _differential_factor(world)) < 1.0:
        raise InfeasibleConfig(f"differential factor of p_m must be at least 1, got {factor!r}")
    return t, extractors


def _risk_ratios(t: _Tables, selected: bool) -> tuple[float, float]:
    mis = t.world.config.misclassification
    num, den = t.cases, t.total
    if mis is not None:
        rates = t.world.p_m  # P(copy=1 | y, a), indexed [y][a]
        controls = [_dot(sel, map(_ONE.__sub__, ys)) for sel, ys in zip(t.sel, t.p_y)]
        if mis == "outcome":
            num = [num[a] * rates[1][a] + controls[a] * rates[0][a] for a in (0, 1)]
        else:
            # the recorded copy is the exposure; chance[m][y][a] is P(A*=m | y, a)
            chance = ([[1.0 - r for r in row] for row in rates], rates)
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
    parameters: dict[str, float] | None = None  # exact values, by argument name
    rr_obs: float | None = None  # observable risk ratio
    rr_true: float | None = None  # causal risk ratio it may distort


def verify_bound(world: World, bias_set: BiasSet) -> BoundReport:
    """Compare the bias realized in a world against the bound's promise.

    The report's parameters are extremes over the latent factor levels.
    rr_obs is taken among the selected and from the recorded copy, where the
    structure has them; rr_true standardizes the potential-outcome risks over
    the latent factors, in the population the bias set targets.
    """
    t, extractors = _check_structure(world, bias_set)
    values: dict[str, float] = {}
    for extractor in extractors:
        values.update(extractor(t))
    params = {p.name: values[p.display] for p in bias_set.parameters}
    rr_obs, rr_true = _risk_ratios(t, _selected_population in extractors)
    bound = multi_bound(bias_set, params)
    ratio = rr_obs / rr_true
    prevalence = max(map(max, t.p_y))
    return BoundReport(
        ratio, bound, ratio <= bound + _SLACK, bound - ratio, prevalence, params, rr_obs, rr_true
    )


STRUCTURES: dict[str, tuple[WorldConfig, BiasSet]] = {
    name: (world_config(bias_set), bias_set)
    for name, bias_set in zip(NAMED_BIAS_SETS, map(parse_bias_string, NAMED_BIAS_SETS.values()))
}
