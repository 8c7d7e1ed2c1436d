"""Exception types shared across the package, the one reader of numeric input,
the one int rule (seeds, level counts and polynomial degrees), the one error
for an argument of the wrong type, and the one way the library builds a frozen
record without its __init__.

A frozen dataclass's generated __init__ stores each field through
object.__setattr__, a measurable share of a scalar call's work. _record
fills a new instance's __dict__ instead. The library uses it for records it
fills from values it has already checked: the EValueResult of multi_evalue,
the ShiftedEstimate of adjust_estimate, and the risk-ratio view
to_risk_ratio makes of an odds ratio, whose fields are copies or square
roots of an estimate that passed every rule; and generate_world's World,
which then meets the table rules. Such a record holds the same __dict__ that
__init__ would store, so equality, hashing, repr, pickling, copying,
dataclasses.replace and the frozen __setattr__ all treat it as one built by
__init__. GridTable, BoundReport and every constructor a user calls still
run __init__, and __post_init__ where the class has one.
"""

import math
from operator import index


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


def _as_float(value) -> float:
    """value as float() converts it, or nan: text, None, complex and containers are no number.

    A number's type has __float__ or __index__ and is no str or bytes, as numpy's
    str_ and bytes_ are; float() parses bytearray, memoryview and array.array as text.
    """
    kind = type(value)
    number = hasattr(kind, "__float__") or hasattr(kind, "__index__")
    if not number or issubclass(kind, (str, bytes)):
        return math.nan
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def _as_int(value) -> int | None:
    """value as the int operator.index reads, as from a numpy integer; None for a bool."""
    if isinstance(value, bool):
        return None
    try:
        return index(value)  # an int of exact type int, from Python 3.10
    except TypeError:
        return None


def _read_float(value, name: str, positive: bool = False) -> float:
    """value as a finite float at least 1, or only positive; else a DomainError quoting it."""
    v = _as_float(value)
    if (0.0 < v if positive else 1.0 <= v) and v < math.inf:
        return v
    raise _domain_error(value, name, positive)


def _domain_error(value, name: str, positive: bool = False) -> DomainError:
    """The error for a value of that name outside the range _read_float reads."""
    rule = "positive and finite" if positive else "a finite number at least 1"
    return DomainError(f"{name} must be {rule}, got {_shown(value)}")


def _type_error(value, kind: type, name: str, makers: str = "") -> ParseError:
    """The error for an argument of that name that is no instance of kind; makers say what is."""
    article = "an" if kind.__name__[0] in "AEIOU" else "a"
    made = f", {makers}" if makers else ""
    return ParseError(f"{name} must be {article} {kind.__name__}{made}; got {_shown(value)}")


def _count(n) -> str:
    """A count in full below 1e15, else to 6 digits as %g shows them, as 1e+300, even past 1e308."""
    if n < 1e15 or n == math.inf:
        return str(n)
    from decimal import Context

    return format(Context(prec=6).create_decimal(n).normalize(), "g")


def _shown(value) -> str:
    """str(value), or its type and size where str() refuses an int past its digit limit."""
    try:
        return str(value)
    except ValueError:  # an int, or a container or Fraction of one
        if isinstance(value, int):
            return f"an int of {value.bit_length()} bits"
        return f"a {type(value).__name__} too long to show"


# BENCH_ablation.json: constructors in its place lose library_scalar 8.2% throughput at the
# three scalar sites, and oracle_verify 36.6% at generate_world's, which then reads and checks twice
def _record(cls, /, **fields):
    """A new instance of the frozen dataclass cls whose fields hold fields; no __init__ runs."""
    record = object.__new__(cls)
    vars(record).update(fields)
    return record


def _numpy():
    """numpy, which only grid_table and evalue_curve need, or an ImportError naming its extra."""
    try:
        import numpy
    except ImportError:
        raise ImportError("grid_table and evalue_curve need numpy (multibias[arrays])") from None
    return numpy


def _read_floats(values):
    """values as a float array, and the array an error message quotes from.

    The two are one array when numpy reads every value as a number. Else
    each value is read by _as_float into the first, so a range check flags
    nan, and kept as given in the second, so the message names it.
    """
    import array

    np = _numpy()
    bytes_like = (bytearray, memoryview, array.array)  # numpy reads each as a row of its bytes
    try:
        floats = np.asarray(values)
    except ValueError:  # a ragged sequence
        floats = np.asarray(values, dtype=object)
    if floats.dtype.kind not in "biuf":
        given = np.asarray(values, dtype=object)
    elif floats.ndim < 2 or not any(isinstance(v, bytes_like) for v in values):
        floats = floats.astype(float, copy=False)
        return floats, floats
    else:  # each bytes-like value is one value, which _as_float reads as text
        given = np.fromiter(values, dtype=object, count=len(values))
    return np.array([_as_float(v) for v in given.flat]).reshape(given.shape), given
