"""Exception types shared across the package, and reading numbers for their messages."""

import math
import sys

# range checks compare with this, not with inf, so that an int beyond the
# float range fails them instead of overflowing when first used as a float
_FLOAT_MAX = sys.float_info.max


class BiasAnalysisError(Exception):
    """Base class for every error this package raises on bad input."""


class DomainError(BiasAnalysisError, ValueError):
    """A numeric input lies outside the domain where the result is defined."""


class DuplicateBias(BiasAnalysisError, ValueError):
    """The same kind of bias was declared more than once."""


class RareOutcomeRequired(BiasAnalysisError, ValueError):
    """Exposure misclassification was declared without the rare-outcome option."""


class SelectedPopulationConflict(BiasAnalysisError, ValueError):
    """A selected-population bound was combined with a general-population simplification."""


class MissingParameter(BiasAnalysisError, ValueError):
    """A required sensitivity parameter was not given a value."""


class UnknownParameter(BiasAnalysisError, ValueError):
    """A value was supplied for a parameter the bias set does not use."""


class ParseError(BiasAnalysisError, ValueError):
    """A bias declaration, a CLI value or the shape of an argument is malformed."""


class InfeasibleConfig(BiasAnalysisError, ValueError):
    """A world configuration cannot be generated as requested."""


class StructureMismatch(BiasAnalysisError, ValueError):
    """A world does not cover the assumptions of the given bias set."""


class DegenerateStratum(BiasAnalysisError, ValueError):
    """A stratum needed for a conditional probability has (almost) no mass."""


class SizeLimitExceeded(BiasAnalysisError, ValueError):
    """A grid or curve asks for more cells or points than are evaluated at once."""


def _read_floats(values):
    """values as a float array, and the array an error message quotes from.

    The two are one array unless numpy reads some value as no number. Then
    that value is nan in the first, so a range check flags it, and kept as
    given in the second, so the message names it.
    """
    import numpy as np

    try:
        floats = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        given = np.asarray(values, dtype=object)
        floats = np.array([_float_or_nan(v) for v in given.flat]).reshape(given.shape)
        return floats, given
    return floats, floats


def _float_or_nan(value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan
