"""Sensitivity bounds and E-values for risk ratios under multiple biases.

The package bounds how far an observed risk ratio can sit from the causal
one when unmeasured confounding, selection, and differential
misclassification act together, and converts those bounds into multi-bias
E-values: the joint parameter magnitude needed to fully explain an estimate
away. A companion oracle enumerates small exact worlds to stress-test the
bounds against ground truth.

``import multibias`` loads only the exception types, which the CLI's ``main``
catches. Every other public name is resolved by the module ``__getattr__``
(PEP 562): the first use of a name imports its submodule and binds all of
that submodule's names here. Without cached bytecode each submodule costs a
one-shot CLI call milliseconds to compile, so a command loads only those it
uses. Only the grid and the curve need numpy, so it is loaded on first use.
"""

from importlib import import_module as _import_module

# each submodule's public names, bound in the package together
_PUBLIC = {
    "errors": (
        "BiasAnalysisError",
        "DegenerateStratum",
        "DomainError",
        "DuplicateBias",
        "InfeasibleConfig",
        "MissingParameter",
        "ParseError",
        "RareOutcomeRequired",
        "SelectedPopulationConflict",
        "SizeLimitExceeded",
        "StructureMismatch",
        "UnknownParameter",
    ),
    "biases": (
        "BiasKind",
        "BiasSet",
        "BiasSpec",
        "Parameter",
        "Scale",
        "build_bias_set",
        "confounding",
        "misclassification",
        "parameter_summary",
        "selection",
    ),
    "bounds": (
        "GridTable",
        "ShiftedEstimate",
        "adjust_estimate",
        "g",
        "grid_table",
        "multi_bound",
    ),
    "evalues": (
        "CurvePoint",
        "EffectEstimate",
        "EValuePolynomial",
        "EValueResult",
        "evalue_curve",
        "evalue_polynomial",
        "multi_evalue",
        "odds_ratio",
        "risk_ratio",
        "solve_polynomial",
        "to_risk_ratio",
    ),
    "oracle": (
        "STRUCTURES",
        "BoundReport",
        "World",
        "WorldConfig",
        "generate_world",
        "verify_bound",
    ),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}


def _bind(module: str) -> None:
    """Import a submodule and bind all of its public names in the package."""
    source = _import_module(f".{module}", __name__)
    globals().update({name: getattr(source, name) for name in _PUBLIC[module]})


def __getattr__(name: str):
    """Bind the names of a submodule on first access to one of them (PEP 562).

    Later accesses are plain lookups.
    """
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_MODULE_OF[name])
    return globals()[name]


def __dir__() -> list[str]:
    """The bound names and every public one, bound or not."""
    return sorted({*globals(), *__all__})


_bind("errors")  # eager: the CLI's main catches these classes

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)
