"""The gap integral at m = 2 in closed form, for tests.

Over the ball |x'| < r0 the integral of 1/(eps + c|x'|^2) is
2/sqrt(eps*c) * atan(r0*sqrt(c/eps)) in dimension 2 and
(pi/c) * log(1 + c*r0**2/eps) in dimension 3.  Both are evaluated through
logarithms, since eps*c and c/eps under- or overflow across the admitted
range.
"""

import math


def exact_gap_integral_m2(n: int, c: float, eps: float, r0: float) -> float:
    lc, le, lr = math.log(c), math.log(eps), math.log(r0)
    if n == 2:
        x = lr + 0.5 * (lc - le)  # log(r0*sqrt(c/eps)); atan(e**x) = e**x to 1e-26 below -30
        if x < -30.0:
            return 2.0 * math.exp(x - 0.5 * (le + lc))
        return 2.0 * math.exp(-0.5 * (le + lc)) * math.atan(math.exp(min(x, 700.0)))
    y = lc + 2.0 * lr - le  # log(c*r0**2/eps); log1p(e**y) = e**y to 1e-13 below -30
    if y < -30.0:
        return math.pi * math.exp(2.0 * lr - le)
    return math.pi * math.exp(-lc) * (y + math.log1p(math.exp(-y)) if y > 0.0 else math.log1p(math.exp(y)))
