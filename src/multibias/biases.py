"""Declaring bias structures and deriving their sensitivity parameters.

A bias set is an ordered collection of declarations: unmeasured confounding,
selection bias, differential misclassification. Building the set derives the
sensitivity parameters of the corresponding bound and how they pair up into
joint bounding factors. Each declaration sequence is derived once:
:func:`build_bias_set` returns one shared, immutable :class:`BiasSet` per
sequence, at most 376 of them, so equal declarations give the same object.
A set also holds, computed once, the names its E-values are reported under;
:mod:`multibias.evalues` shares one polynomial object per ``(n, k)``.

Each parameter is declared once, by its display symbol, e.g. ``RR_SUs|A=1``.
Its argument name is the symbol without ``_|=,*`` (``RRSUsA1``), its scale is
the symbol's first two letters (``RR`` or ``OR``), and its LaTeX form is
rendered from the symbol. Names drop ``*`` yet stay unique within a set, which
:func:`multi_bound` needs: no set holds both a symbol and its starred twin.

Declaration order matters when both selection and misclassification are
present. Selection declared first means classification errors happen within
the selected sample, so the misclassification parameters are conditioned on
selection. Misclassification declared first means selection may depend on
the misclassified value, so the selection parameters refer to the starred
(recorded) variable instead.

Declarations are also written as '+'-joined clauses, e.g.
"confounding + selection(general, increased_risk)";
:meth:`BiasSpec.describe` prints that syntax and :func:`parse_bias_string`
reads it, both from the same option table.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, fields
from functools import cache, cached_property
from typing import Iterable

from .errors import DuplicateBias, ParseError, RareOutcomeRequired, SelectedPopulationConflict
from .errors import _shown, _type_error

_UNNAMED = str.maketrans("", "", "_|=,*")  # display characters a name drops
_LATEX = str.maketrans({"|": r" \mid ", ",": ", ", "=": " = ", "*": "^*"})
_LATENT = re.compile(r"U([a-z]+)")  # a latent factor and its subscript
_SELECTED = re.compile(r"(?<=[|,])S$")  # conditioning on selection, S = 1


class BiasKind(enum.Enum):
    CONFOUNDING = "confounding"
    SELECTION = "selection"
    MISCLASSIFICATION = "misclassification"

    # members are singletons compared by identity, and pickle and copy to
    # themselves; the C hash spares build_bias_set's memo lookup a Python call.
    # BENCH_ablation.json: the final run without it read library_scalar 1.7% slower
    __hash__ = object.__hash__


class Scale(enum.Enum):
    """Scale a ratio is measured on."""

    RISK_RATIO = "RR"
    ODDS_RATIO = "OR"


# each clause option, per kind, and the BiasSpec field value it stands for
_OPTIONS: dict[BiasKind, dict[str, tuple[str, object]]] = {
    BiasKind.CONFOUNDING: {},
    BiasKind.SELECTION: {
        "general": ("population", "general"),
        "selected": ("population", "selected"),
        "increased_risk": ("risk_direction", "increased"),
        "decreased_risk": ("risk_direction", "decreased"),
        "s_equals_u": ("s_equals_u", True),
    },
    BiasKind.MISCLASSIFICATION: {
        "outcome": ("variable", "outcome"),
        "exposure": ("variable", "exposure"),
        "rare_outcome": ("rare_outcome", True),
        "rare_exposure": ("rare_exposure", True),
    },
}


@dataclass(frozen=True)
class BiasSpec:
    """One declared source of bias.

    Only the fields matching ``kind`` may differ from their defaults, and
    only to a value one of its clause options stands for. Use the
    :func:`confounding`, :func:`selection` and :func:`misclassification`
    helpers instead of constructing instances directly.
    """

    kind: BiasKind
    population: str = "general"  # selection: "general" or "selected"
    risk_direction: str | None = None  # selection: "increased" or "decreased"
    s_equals_u: bool = False  # selection: selection is itself the latent factor
    variable: str | None = None  # misclassification: "outcome" or "exposure"
    rare_outcome: bool = False  # misclassification
    rare_exposure: bool = False  # misclassification

    def __post_init__(self) -> None:
        if not isinstance(self.kind, BiasKind):
            raise _type_error(self.kind, BiasKind, "kind", "such as BiasKind.CONFOUNDING")
        options = _OPTIONS[self.kind].values()
        for field in fields(self)[1:]:
            value = getattr(self, field.name)
            if value != field.default and (field.name, value) not in options:
                raise ParseError(
                    f"{self.kind.value} does not take {field.name}={value!r}"
                )
        if self.kind is BiasKind.MISCLASSIFICATION and self.variable is None:
            raise ParseError(
                "misclassification needs a variable: 'outcome' or 'exposure'"
            )

    def describe(self) -> str:
        """Canonical clause text; :func:`parse_bias_string` reads it back."""
        options = ", ".join(
            token
            for token, (field, value) in _OPTIONS[self.kind].items()
            if getattr(self, field) == value
        )
        return f"{self.kind.value}({options})" if options else self.kind.value


def confounding() -> BiasSpec:
    """Declare bias from an unmeasured confounder."""
    return BiasSpec(BiasKind.CONFOUNDING)


def selection(
    population: str = "general",
    *,
    risk_direction: str | None = None,
    s_equals_u: bool = False,
) -> BiasSpec:
    """Declare selection bias.

    population: "general" targets the effect in the whole population,
        "selected" the effect among those selected (which folds any declared
        confounding into one joint pair of parameters).
    risk_direction: "increased" or "decreased" if selection is known to go
        with higher or lower outcome risk in both exposure groups; this
        halves the number of parameters.
    s_equals_u: selection is itself the factor responsible for the bias,
        which turns each remaining joint factor into a single parameter.
    """
    return BiasSpec(
        BiasKind.SELECTION,
        population=population,
        risk_direction=risk_direction,
        s_equals_u=s_equals_u,
    )


def misclassification(
    variable: str,
    *,
    rare_outcome: bool = False,
    rare_exposure: bool = False,
) -> BiasSpec:
    """Declare differential misclassification of the outcome or the exposure.

    The exposure variant is available only with rare_outcome=True, because
    its bound is derived for odds ratios and needs the rare-outcome
    approximation to speak about risk ratios. rare_exposure additionally
    lets the odds-ratio parameter act directly as a risk ratio.
    """
    return BiasSpec(
        BiasKind.MISCLASSIFICATION,
        variable=variable,
        rare_outcome=rare_outcome,
        rare_exposure=rare_exposure,
    )


@dataclass(frozen=True)
class Parameter:
    """One sensitivity parameter of a bound, named after its display symbol."""

    name: str  # argument name, e.g. "RRSUsA1"
    display: str  # display symbol, e.g. "RR_SUs|A=1"
    bias: str  # label of the bias the parameter belongs to

    @property
    def scale(self) -> Scale:
        return Scale(self.display[:2])

    @property
    def degree(self) -> int:
        """Power contributed to the E-value polynomial numerator.

        An odds ratio enters the E-value through its square root, so it
        counts twice. Reads the scale's prefix directly: ``Scale(...)`` costs
        more than the rest of a parameter's derivation.
        """
        return 2 if self.display.startswith("OR") else 1

    @property
    def latex(self) -> str:
        """The display symbol in LaTeX, e.g. ``\\mathrm{RR}_{SU_s \\mid A = 1}``."""
        scale, _, symbol = self.display.partition("_")
        symbol = _SELECTED.sub("S=1", symbol)
        symbol = _LATENT.sub(
            lambda m: f"U_{{{m[1]}}}" if len(m[1]) > 1 else f"U_{m[1]}", symbol
        )
        return rf"\mathrm{{{scale}}}_{{{symbol.translate(_LATEX)}}}"

    @property
    def evalue_name(self) -> str:
        """Name under which the parameter is reported in E-value output.

        Odds-ratio parameters enter the E-value through their square root,
        so they are reported under the matching risk-ratio name.
        """
        return "RR" + self.name[2:]


@dataclass(frozen=True, repr=False)
class BiasSet:
    """An ordered, validated set of bias declarations with derived parameters.

    The bound is the product over ``terms`` of one factor each: a lone
    parameter's value, or g of a pair of parameters. Setting every parameter
    to x turns that product into x**n / (2x - 1)**k with
    ``(n, k) = polynomial``. The repr names the set by its label, which
    :func:`parse_bias_string` reads back; equality and hashing go by the
    fields.
    """

    biases: tuple[BiasSpec, ...]
    parameters: tuple[Parameter, ...]
    terms: tuple[tuple[str, ...], ...]  # parameter names, one or two per factor
    polynomial: tuple[int, int]

    # BENCH_ablation.json: as plain properties the three lose library_scalar 11.4% throughput
    @cached_property
    def label(self) -> str:
        return " + ".join(b.describe() for b in self.biases)

    def __repr__(self) -> str:
        return f"<BiasSet {self.label!r}>"

    @cached_property
    def _names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.parameters)

    def parameter_names(self) -> tuple[str, ...]:
        return self._names

    @cached_property
    def _evalue_names(self) -> tuple[str, ...]:
        """The names the set's E-values are reported under, in parameter order."""
        return tuple(p.evalue_name for p in self.parameters)


def _require_bias_set(value, name: str = "bias_set") -> None:
    """ParseError naming value unless it is a BiasSet."""
    if not isinstance(value, BiasSet):
        raise _type_error(value, BiasSet, name, "as build_bias_set and parse_bias_string return")


def _require_bias_sets(value) -> None:
    """ParseError unless value is a sequence of BiasSets, as evalue_curve takes them."""
    # a str is a sequence of characters; a BiasSet and an iterator have no len()
    if isinstance(value, str) or not hasattr(type(value), "__len__"):
        raise ParseError(f"bias_sets must be a sequence of BiasSets, got {_shown(value)}")
    for bias_set in value:
        _require_bias_set(bias_set, "each of bias_sets")


def build_bias_set(biases: BiasSpec | Iterable[BiasSpec]) -> BiasSet:
    """Validate a sequence of declarations and derive the bound's parameters.

    Parameters are listed in a fixed reading order (confounding, selection,
    misclassification) regardless of declaration order; declaration order
    only decides the conditioning described in the module docstring.

    Equal declaration sequences give the same, shared :class:`BiasSet`.
    """
    if isinstance(biases, BiasSpec):
        return _derive((biases,))
    try:
        if not isinstance(biases, str):  # a str is iterable, but of characters
            return _derive(tuple(biases))
    except TypeError:  # no iterable, or one holding an unhashable entry, which no BiasSpec is
        pass
    raise _type_error(biases, BiasSpec, "biases", "or an iterable of them")


# a rejected sequence raises and is not stored, so the memo holds at most the
# grammar's 376 valid declaration sequences and needs no bound
@cache
def _derive(specs: tuple[BiasSpec, ...]) -> BiasSet:
    if not specs:
        raise ParseError("at least one bias must be declared")

    by_kind: dict[BiasKind, tuple[int, BiasSpec]] = {}
    for position, spec in enumerate(specs):
        if not isinstance(spec, BiasSpec):
            raise _type_error(spec, BiasSpec, "each of biases", "such as confounding()")
        if spec.kind in by_kind:
            raise DuplicateBias(f"{spec.kind.value} is declared more than once")
        by_kind[spec.kind] = (position, spec)

    conf = by_kind.get(BiasKind.CONFOUNDING)
    sel = by_kind.get(BiasKind.SELECTION)
    mis = by_kind.get(BiasKind.MISCLASSIFICATION)

    if mis is not None and mis[1].variable == "exposure" and not mis[1].rare_outcome:
        raise RareOutcomeRequired(
            "the exposure misclassification bound needs the rare-outcome "
            "approximation; declare it with rare_outcome=True"
        )
    if (
        sel is not None
        and sel[1].population == "selected"
        and (sel[1].risk_direction is not None or sel[1].s_equals_u)
    ):
        raise SelectedPopulationConflict(
            "risk_direction and s_equals_u simplify the general-population "
            "bound and cannot be combined with the selected population"
        )

    selected = sel is not None and sel[1].population == "selected"
    sel_before_mis = sel is not None and mis is not None and sel[0] < mis[0]
    params: list[Parameter] = []
    terms: list[tuple[str, ...]] = []

    def factor(bias: str, *displays: str) -> None:
        """Add one bounding factor: a lone parameter, or a pair joined by g."""
        names = tuple([display.translate(_UNNAMED) for display in displays])
        params.extend(
            [Parameter(name, display, bias) for name, display in zip(names, displays)]
        )
        terms.append(names)

    if selected:
        bias = "confounding and selection" if conf is not None else "selection"
        factor(bias, "RR_AUsc|S", "RR_UscY|S")
    else:
        if conf is not None:
            factor("confounding", "RR_AUc", "RR_UcY")
        if sel is not None:
            spec = sel[1]
            # a starred mark means the parameter refers to the recorded value
            a_mark, y_mark = "A", "Y"
            if mis is not None and not sel_before_mis:
                if mis[1].variable == "exposure":
                    a_mark = "A*"
                else:
                    y_mark = "Y*"
            # a known risk direction keeps only the exposed or the unexposed arm
            arms = {"increased": "1", "decreased": "0"}.get(spec.risk_direction, "10")
            for arm in arms:
                if spec.s_equals_u:
                    factor("selection", f"RR_S{y_mark}|{a_mark}={arm}")
                else:
                    factor(
                        "selection",
                        f"RR_Us{y_mark}|{a_mark}={arm}",
                        f"RR_SUs|{a_mark}={arm}",
                    )

    if mis is not None:
        spec = mis[1]
        conditioned = sel is not None and (selected or sel_before_mis)
        cond = ",S" if conditioned else ""
        if spec.variable == "outcome":
            factor("outcome misclassification", f"RR_AY*|y{cond}")
        else:
            # without the rare-exposure approximation the parameter is an odds ratio
            scale = "RR" if spec.rare_exposure else "OR"
            factor("exposure misclassification", f"{scale}_YA*|a{cond}")

    # each joint factor g(x, x) = x**2 / (2x - 1) adds one to k, and each
    # pair has one parameter more than its single term
    n = sum([p.degree for p in params])
    k = len(params) - len(terms)
    return BiasSet(specs, tuple(params), tuple(terms), (n, k))


def parameter_summary(
    bias_set: BiasSet, include_latex: bool = False
) -> list[tuple[str, ...]]:
    """Rows of (bias label, display symbol, argument name[, latex])."""
    _require_bias_set(bias_set)
    rows: list[tuple[str, ...]] = []
    for p in bias_set.parameters:
        row: tuple[str, ...] = (p.bias, p.display, p.name)
        if include_latex:
            row += (p.latex,)
        rows.append(row)
    return rows


# a name and at most one option list; no option holds "(", ")" or "+", so a
# bias string splits into clauses at every "+"
_CLAUSE = re.compile(r"([a-z_]+)\s*(?:\(([^()]*)\))?")


def _parse_clause(clause: str) -> BiasSpec:
    """One stripped clause, read with the option table :meth:`BiasSpec.describe` prints."""
    match = _CLAUSE.fullmatch(clause)
    if match is None:
        raise ParseError(f"cannot parse bias clause {clause!r}")
    name, options_text = match.groups()
    try:
        kind = BiasKind(name)
    except ValueError:
        raise ParseError(f"unknown bias {name!r}") from None
    options = _OPTIONS[kind]
    given: dict[str, object] = {}
    for token in (options_text or "").split(","):
        token = token.strip()
        if not token:
            continue
        if token not in options:
            raise ParseError(f"unknown {name} option {token!r}")
        field, value = options[token]
        if field in given:
            raise ParseError(f"{field} is given more than once in {clause!r}")
        given[field] = value
    return BiasSpec(kind, **given)


def parse_bias_string(text: str) -> BiasSet:
    """Build a bias set from a '+'-joined clause string."""
    if not isinstance(text, str):
        raise _type_error(text, str, "text")
    clauses = [c.strip() for c in text.split("+")]
    if not any(clauses):
        raise ParseError("empty bias string")
    return build_bias_set([_parse_clause(c) for c in clauses])


# the paper's bias sets, each bias alone and then jointly (its Results 1-3), as labels
NAMED_BIAS_SETS = {
    "confounding": "confounding",
    "selection": "selection(general)",
    "selection_selected": "selection(selected)",
    "outcome_misclassification": "misclassification(outcome)",
    "result1": "confounding + selection(general) + misclassification(outcome)",
    "result2": "confounding + selection(general) + misclassification(exposure, rare_outcome)",
    "result3": "confounding + selection(selected) + misclassification(outcome)",
}
