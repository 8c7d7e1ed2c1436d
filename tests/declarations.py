"""Every valid declaration list of the bias grammar, for property tests."""

from itertools import permutations

from multibias import confounding, misclassification, selection

SELECTIONS = [
    selection(population, risk_direction=direction, s_equals_u=s_equals_u)
    for population in ("general", "selected")
    for direction in (None, "increased", "decreased")
    for s_equals_u in (False, True)
    if population == "general" or (direction is None and not s_equals_u)
]
MISCLASSIFICATIONS = [
    misclassification(variable, rare_outcome=rare_outcome, rare_exposure=rare_exposure)
    for variable in ("outcome", "exposure")
    for rare_outcome in (False, True)
    for rare_exposure in (False, True)
    if variable == "outcome" or rare_outcome
]

# each combination of at most one bias of each kind, in every declaration order
DECLARATIONS = [
    order
    for conf in (None, confounding())
    for sel in (None, *SELECTIONS)
    for mis in (None, *MISCLASSIFICATIONS)
    for order in permutations([b for b in (conf, sel, mis) if b is not None])
    if order
]
