"""An independent restatement of the bound's structure, used to check outputs.

A declaration is a tuple of clauses, each a plain tuple:

    ("confounding",)
    ("selection", population, risk_direction, s_equals_u)
    ("misclassification", variable, rare_outcome, rare_exposure)

From a declaration this module derives, without calling the library, the
parameter names of its bound grouped into factors (a pair enters through
g(a, b) = ab / (a + b - 1), a single name directly), the bound at given
values, and the E-value polynomial x**n / (2x - 1)**k.
"""

from __future__ import annotations

import math
from itertools import product

CONFOUNDING = ("confounding",)
SELECTIONS = [("selection", "selected", None, False)] + [
    ("selection", "general", direction, s_equals_u)
    for direction in (None, "increased", "decreased")
    for s_equals_u in (False, True)
]
MISCLASSIFICATIONS = [
    ("misclassification", "outcome", False, False),
    ("misclassification", "exposure", True, False),
    ("misclassification", "exposure", True, True),
]


def _declarations() -> list[tuple]:
    out = [(CONFOUNDING,)] + [(s,) for s in SELECTIONS] + [(m,) for m in MISCLASSIFICATIONS]
    out += [(CONFOUNDING, s) for s in SELECTIONS]
    out += [(CONFOUNDING, m) for m in MISCLASSIFICATIONS]
    for s, m in product(SELECTIONS, MISCLASSIFICATIONS):
        out += [(s, m), (m, s), (CONFOUNDING, s, m), (CONFOUNDING, m, s)]
    return out


# every valid declaration up to where confounding sits: all selection and
# misclassification options, in both declaration orders
DECLARATIONS = _declarations()


def terms(decl: tuple) -> list[tuple[str, ...]]:
    """Parameter names of the bound, one tuple per bounding factor, in reading order."""
    kinds = [c[0] for c in decl]
    sel = next((c for c in decl if c[0] == "selection"), None)
    mis = next((c for c in decl if c[0] == "misclassification"), None)
    selected = sel is not None and sel[1] == "selected"
    out: list[tuple[str, ...]] = []
    if selected:
        # the selected-population factor absorbs any declared confounding
        out.append(("RRAUscS", "RRUscYS"))
    else:
        if "confounding" in kinds:
            out.append(("RRAUc", "RRUcY"))
        if sel is not None:
            _, _, direction, s_equals_u = sel
            for arm in {"increased": "1", "decreased": "0", None: "10"}[direction]:
                out.append((f"RRSYA{arm}",) if s_equals_u else (f"RRUsYA{arm}", f"RRSUsA{arm}"))
    if mis is not None:
        _, variable, _, rare_exposure = mis
        name = "RRAYy" if variable == "outcome" else "RRYAa" if rare_exposure else "ORYAa"
        # errors within the selected sample condition the parameter on S = 1
        conditioned = sel is not None and (
            selected or kinds.index("selection") < kinds.index("misclassification")
        )
        out.append((name + "S" * conditioned,))
    return out


def names(decl: tuple) -> list[str]:
    return [name for term in terms(decl) for name in term]


def polynomial(decl: tuple) -> tuple[int, int]:
    """(n, k) of x**n / (2x - 1)**k, the bound with every parameter at x.

    An odds-ratio parameter enters through its square root, so it adds 2 to n.
    """
    ts = terms(decl)
    n = sum(2 if len(t) == 2 or t[0].startswith("OR") else 1 for t in ts)
    return n, sum(len(t) == 2 for t in ts)


def is_closed_form(nk: tuple[int, int]) -> bool:
    return nk[1] == 0 or nk == (2, 1)


def g(a: float, b: float) -> float:
    return a * b / (a + b - 1.0)


def bound(decl: tuple, values: dict[str, float]) -> float:
    out = 1.0
    for t in terms(decl):
        out *= g(values[t[0]], values[t[1]]) if len(t) == 2 else values[t[0]]
    return out


def poly_value(nk: tuple[int, int], x: float) -> float:
    n, k = nk
    return x**n / (2.0 * x - 1.0) ** k


def evalue_error(
    nk: tuple[int, int], ratio: float | None, evalue: float | None, rel: float = 1e-9
) -> str | None:
    """Why ``evalue`` is not the E-value of a bias ratio, or None if it is.

    No ratio (no confidence limit) has no E-value. A ratio at or below 1
    needs no bias (E-value exactly 1); otherwise the polynomial at the
    E-value must reach the ratio within ``rel`` relative.
    """
    if ratio is None:
        return None if evalue is None else f"E-value {evalue!r} without a limit"
    if evalue is None or not math.isfinite(evalue):
        return f"E-value {evalue!r} for ratio {ratio!r}"
    if ratio <= 1.0:
        return None if evalue == 1.0 else f"E-value {evalue!r} for ratio {ratio!r} <= 1"
    if evalue < 1.0:
        return f"E-value {evalue!r} below 1 for ratio {ratio!r}"
    residual = abs(poly_value(nk, evalue) - ratio)
    if residual > rel * ratio:
        return f"residual {residual:.3g} of E-value {evalue!r} for ratio {ratio!r}, (n, k) = {nk}"
    return None


def risk_ratio_scale(scale: str, rare: bool, *values: float | None) -> list[float | None]:
    """Estimate limits on the risk ratio scale: a common odds ratio by its square root."""
    if scale == "OR" and not rare:
        return [None if v is None else math.sqrt(v) for v in values]
    return list(values)


def evalue_targets(
    point: float, lo: float | None, hi: float | None, true_value: float
) -> tuple[float, float | None, bool]:
    """(point ratio, near-limit ratio, inverted) the E-values must solve for."""
    if point < 1.0:
        return 1.0 / point / true_value, None if hi is None else 1.0 / hi / true_value, True
    return point / true_value, None if lo is None else lo / true_value, False


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)
