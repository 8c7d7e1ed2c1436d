"""Sensitivity bounds and E-values for risk ratios under multiple biases.

The package bounds how far an observed risk ratio can sit from the causal
one when unmeasured confounding, selection, and differential
misclassification act together, and converts those bounds into multi-bias
E-values: the joint parameter magnitude needed to fully explain an estimate
away. A companion oracle enumerates small exact worlds to stress-test the
bounds against ground truth.

Only the grid and the curve need numpy, so it is loaded on first use. The
oracle is too: its names below are resolved by the module ``__getattr__``,
since compiling and running ``oracle.py`` costs 9-13 ms a process without
cached bytecode (4-5 ms with it), up to a tenth of a one-shot ``bound``.
"""

from .biases import (
    BiasKind,
    BiasSet,
    BiasSpec,
    Parameter,
    Scale,
    build_bias_set,
    confounding,
    misclassification,
    parameter_summary,
    selection,
)
from .bounds import (
    GridTable,
    ShiftedEstimate,
    adjust_estimate,
    g,
    grid_table,
    multi_bound,
)
from .errors import (
    BiasAnalysisError,
    DegenerateStratum,
    DomainError,
    DuplicateBias,
    InfeasibleConfig,
    MissingParameter,
    ParseError,
    RareOutcomeRequired,
    SelectedPopulationConflict,
    SizeLimitExceeded,
    StructureMismatch,
    UnknownParameter,
)
from .evalues import (
    CurvePoint,
    EffectEstimate,
    EValuePolynomial,
    EValueResult,
    evalue_curve,
    evalue_polynomial,
    multi_evalue,
    odds_ratio,
    risk_ratio,
    solve_polynomial,
    to_risk_ratio,
)

_ORACLE_NAMES = (
    "STRUCTURES",
    "BoundReport",
    "World",
    "WorldConfig",
    "extract_parameters",
    "generate_world",
    "observed_and_true_rr",
    "verify_bound",
    "world_config",
)


def __getattr__(name: str):
    """Import the oracle on first access to one of its names (PEP 562).

    All nine are then bound here, so later accesses are plain lookups.
    """
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle

    globals().update({n: getattr(oracle, n) for n in _ORACLE_NAMES})
    return globals()[name]


__version__ = "0.1.0"

__all__ = [
    "BiasAnalysisError",
    "BiasKind",
    "BiasSet",
    "BiasSpec",
    "BoundReport",
    "CurvePoint",
    "DegenerateStratum",
    "DomainError",
    "DuplicateBias",
    "EffectEstimate",
    "EValuePolynomial",
    "EValueResult",
    "GridTable",
    "InfeasibleConfig",
    "MissingParameter",
    "Parameter",
    "ParseError",
    "RareOutcomeRequired",
    "STRUCTURES",
    "Scale",
    "SelectedPopulationConflict",
    "ShiftedEstimate",
    "SizeLimitExceeded",
    "StructureMismatch",
    "UnknownParameter",
    "World",
    "WorldConfig",
    "adjust_estimate",
    "build_bias_set",
    "confounding",
    "evalue_curve",
    "evalue_polynomial",
    "extract_parameters",
    "g",
    "generate_world",
    "grid_table",
    "misclassification",
    "multi_bound",
    "multi_evalue",
    "observed_and_true_rr",
    "odds_ratio",
    "parameter_summary",
    "risk_ratio",
    "selection",
    "solve_polynomial",
    "to_risk_ratio",
    "verify_bound",
    "world_config",
]
