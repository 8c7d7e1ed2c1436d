"""Exception types shared across the package."""


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
