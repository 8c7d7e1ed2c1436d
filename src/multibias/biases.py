"""Declaring bias structures and deriving their sensitivity parameters.

A bias set is an ordered collection of declarations: unmeasured confounding,
selection bias, differential misclassification. Building the set derives the
sensitivity parameters of the corresponding bound: argument names, display
symbols, scales, and how parameters pair up into joint bounding factors.

Declaration order matters when both selection and misclassification are
present. Selection declared first means classification errors happen within
the selected sample, so the misclassification parameters are conditioned on
selection. Misclassification declared first means selection may depend on
the misclassified value, so the selection parameters refer to the starred
(recorded) variable instead.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

from .errors import (
    DuplicateBias,
    RareOutcomeRequired,
    SelectedPopulationConflict,
)

_POPULATIONS = ("general", "selected")
_DIRECTIONS = ("increased", "decreased")
_VARIABLES = ("outcome", "exposure")


class BiasKind(enum.Enum):
    CONFOUNDING = "confounding"
    SELECTION = "selection"
    MISCLASSIFICATION = "misclassification"


class Scale(enum.Enum):
    """Scale a ratio is measured on."""

    RISK_RATIO = "RR"
    ODDS_RATIO = "OR"


@dataclass(frozen=True)
class BiasSpec:
    """One declared source of bias.

    Only the fields matching ``kind`` may differ from their defaults. Use
    the :func:`confounding`, :func:`selection` and :func:`misclassification`
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
        if self.kind is not BiasKind.SELECTION and (
            self.population != "general"
            or self.risk_direction is not None
            or self.s_equals_u
        ):
            raise ValueError(f"selection options are not valid for {self.kind.value}")
        if self.kind is not BiasKind.MISCLASSIFICATION and (
            self.variable is not None or self.rare_outcome or self.rare_exposure
        ):
            raise ValueError(
                f"misclassification options are not valid for {self.kind.value}"
            )
        if self.kind is BiasKind.SELECTION:
            if self.population not in _POPULATIONS:
                raise ValueError(
                    f"population must be one of {_POPULATIONS}, got {self.population!r}"
                )
            if self.risk_direction is not None and self.risk_direction not in _DIRECTIONS:
                raise ValueError(
                    f"risk_direction must be one of {_DIRECTIONS}, got {self.risk_direction!r}"
                )
        if self.kind is BiasKind.MISCLASSIFICATION and self.variable not in _VARIABLES:
            raise ValueError(
                f"misclassified variable must be one of {_VARIABLES}, got {self.variable!r}"
            )

    def describe(self) -> str:
        """Canonical clause text; the CLI accepts the same syntax."""
        if self.kind is BiasKind.CONFOUNDING:
            return "confounding"
        if self.kind is BiasKind.SELECTION:
            opts = [self.population]
            if self.risk_direction is not None:
                opts.append(f"{self.risk_direction}_risk")
            if self.s_equals_u:
                opts.append("s_equals_u")
            return f"selection({', '.join(opts)})"
        opts = [self.variable or ""]
        if self.rare_outcome:
            opts.append("rare_outcome")
        if self.rare_exposure:
            opts.append("rare_exposure")
        return f"misclassification({', '.join(opts)})"


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
    """One sensitivity parameter of a bound."""

    name: str  # argument name, e.g. "RRSUsA1"
    display: str  # display symbol, e.g. "RR_SUs|A=1"
    latex: str
    scale: Scale
    degree: int  # power contributed to the E-value polynomial numerator
    bias: str  # label of the bias the parameter belongs to

    @property
    def evalue_name(self) -> str:
        """Name under which the parameter is reported in E-value output.

        Odds-ratio parameters enter the E-value through their square root,
        so they are reported under the matching risk-ratio name.
        """
        if self.scale is Scale.ODDS_RATIO:
            return self.name.replace("OR", "RR", 1)
        return self.name


@dataclass(frozen=True)
class BiasSet:
    """An ordered, validated set of bias declarations with derived parameters.

    The bound is the product over ``terms`` of one factor each: a lone
    parameter's value, or g of a pair of parameters. Setting every parameter
    to x turns that product into x**n / (2x - 1)**k with
    ``(n, k) = polynomial``.
    """

    biases: tuple[BiasSpec, ...]
    parameters: tuple[Parameter, ...]
    terms: tuple[tuple[str, ...], ...]  # parameter names, one or two per factor
    polynomial: tuple[int, int]

    @property
    def label(self) -> str:
        return " + ".join(b.describe() for b in self.biases)

    def parameter_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.parameters)


def build_bias_set(biases: BiasSpec | Iterable[BiasSpec]) -> BiasSet:
    """Validate a sequence of declarations and derive the bound's parameters.

    Parameters are listed in a fixed reading order (confounding, selection,
    misclassification) regardless of declaration order; declaration order
    only decides the conditioning described in the module docstring.
    """
    if isinstance(biases, BiasSpec):
        biases = (biases,)
    specs = tuple(biases)
    if not specs:
        raise ValueError("at least one bias must be declared")

    by_kind: dict[BiasKind, tuple[int, BiasSpec]] = {}
    for position, spec in enumerate(specs):
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

    def factor(
        bias: str, *entries: tuple[str, str, str], scale: Scale = Scale.RISK_RATIO
    ) -> None:
        """Add one bounding factor: a lone parameter, or a pair joined by g.

        Each entry is (argument name, display symbol, latex).
        """
        degree = 2 if scale is Scale.ODDS_RATIO else 1
        for name, display, latex in entries:
            params.append(Parameter(name, display, latex, scale, degree, bias))
        terms.append(tuple([entry[0] for entry in entries]))

    if selected:
        factor(
            "confounding and selection" if conf is not None else "selection",
            ("RRAUscS", "RR_AUsc|S", r"\mathrm{RR}_{AU_{sc} \mid S = 1}"),
            ("RRUscYS", "RR_UscY|S", r"\mathrm{RR}_{U_{sc}Y \mid S = 1}"),
        )
    else:
        if conf is not None:
            factor(
                "confounding",
                ("RRAUc", "RR_AUc", r"\mathrm{RR}_{AU_c}"),
                ("RRUcY", "RR_UcY", r"\mathrm{RR}_{U_cY}"),
            )
        if sel is not None:
            spec = sel[1]
            # a starred mark means the parameter refers to the recorded value
            a_mark = "A"
            y_mark = "Y"
            if mis is not None and not sel_before_mis:
                if mis[1].variable == "exposure":
                    a_mark = "A*"
                else:
                    y_mark = "Y*"
            a_tex = a_mark.replace("A*", "A^*")
            y_tex = y_mark.replace("Y*", "Y^*")
            if spec.risk_direction == "increased":
                arms = ("1",)
            elif spec.risk_direction == "decreased":
                arms = ("0",)
            else:
                arms = ("1", "0")
            for arm in arms:
                cond = f"{a_mark}={arm}"
                cond_tex = f"{a_tex} = {arm}"
                if spec.s_equals_u:
                    factor(
                        "selection",
                        (
                            f"RRSYA{arm}",
                            f"RR_S{y_mark}|{cond}",
                            rf"\mathrm{{RR}}_{{S{y_tex} \mid {cond_tex}}}",
                        ),
                    )
                else:
                    factor(
                        "selection",
                        (
                            f"RRUsYA{arm}",
                            f"RR_Us{y_mark}|{cond}",
                            rf"\mathrm{{RR}}_{{U_s{y_tex} \mid {cond_tex}}}",
                        ),
                        (
                            f"RRSUsA{arm}",
                            f"RR_SUs|{cond}",
                            rf"\mathrm{{RR}}_{{SU_s \mid {cond_tex}}}",
                        ),
                    )

    if mis is not None:
        spec = mis[1]
        conditioned = sel is not None and (selected or sel_before_mis)
        suffix = "S" if conditioned else ""
        cond = ",S" if conditioned else ""
        cond_tex = ", S = 1" if conditioned else ""
        if spec.variable == "outcome":
            factor(
                "outcome misclassification",
                (
                    f"RRAYy{suffix}",
                    f"RR_AY*|y{cond}",
                    rf"\mathrm{{RR}}_{{AY^* \mid y{cond_tex}}}",
                ),
            )
        elif spec.rare_exposure:
            factor(
                "exposure misclassification",
                (
                    f"RRYAa{suffix}",
                    f"RR_YA*|a{cond}",
                    rf"\mathrm{{RR}}_{{YA^* \mid a{cond_tex}}}",
                ),
            )
        else:
            factor(
                "exposure misclassification",
                (
                    f"ORYAa{suffix}",
                    f"OR_YA*|a{cond}",
                    rf"\mathrm{{OR}}_{{YA^* \mid a{cond_tex}}}",
                ),
                scale=Scale.ODDS_RATIO,
            )

    # each joint factor g(x, x) = x**2 / (2x - 1) adds one to k, and each
    # pair has one parameter more than its single term
    n = sum([p.degree for p in params])
    k = len(params) - len(terms)
    return BiasSet(specs, tuple(params), tuple(terms), (n, k))


def parameter_summary(
    bias_set: BiasSet, include_latex: bool = False
) -> list[tuple[str, ...]]:
    """Rows of (bias label, display symbol, argument name[, latex])."""
    rows: list[tuple[str, ...]] = []
    for p in bias_set.parameters:
        row: tuple[str, ...] = (p.bias, p.display, p.name)
        if include_latex:
            row += (p.latex,)
        rows.append(row)
    return rows
