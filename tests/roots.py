"""Reference roots of x**n / (2x - 1)**k == target, independent of the library.

bisect_root is a plain float bisection run to machine precision;
decimal_root bisects in 60-digit decimal arithmetic, so its root is exact to
far beyond double precision.
"""

import decimal
import math


def bisect_root(n: int, k: int, target: float) -> float:
    """The root x >= 1 for a finite target > 1, bisected to machine precision."""
    # compared in log space, so that x**n is never formed and cannot overflow
    log_target = math.log2(target)
    lo, hi = 1.0, 2.0
    while n * math.log2(hi) - k * math.log2(2.0 * hi - 1.0) < log_target:
        lo, hi = hi, hi * 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if n * math.log2(mid) - k * math.log2(2.0 * mid - 1.0) < log_target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def decimal_root(n: int, k: int, target: float) -> decimal.Decimal:
    """The root x >= 1 for a finite target > 1, to about 40 significant digits."""
    with decimal.localcontext(decimal.Context(prec=60)):
        t = decimal.Decimal(target)  # the float's exact value

        def below(x):
            return x**n < t * (2 * x - 1) ** k

        lo, hi = decimal.Decimal(1), decimal.Decimal(2)
        while below(hi):
            lo, hi = hi, hi * 2
        # hi <= 2 lo from here on, so 140 halvings leave a relative width
        # below 2**-140, about 1e-42
        for _ in range(140):
            mid = (lo + hi) / 2
            if below(mid):
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2
