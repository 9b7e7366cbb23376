"""The QPoly-object form of series_exp, as a reference.

series.series_exp runs the common-denominator recurrence over QPoly
coefficients on packed integers.  This is the form it replaced: A_j and
G_m as integer-coefficient QPolys, m QPoly products and m sums per step,
and each division checked coefficient by coefficient.
"""

import math
from fractions import Fraction
from operator import mul

from fqtcount.qpoly import QPoly


def qpoly_exact_quotient(x, d: int):
    """x / d for an int or integer-coefficient QPoly x, checked to be exact."""
    if isinstance(x, QPoly):
        return QPoly(tuple(qpoly_exact_quotient(c, d) for c in x.coeffs))
    quotient, remainder = divmod(x, d)
    if remainder:
        raise ArithmeticError(f"exp recurrence: {d} does not divide {x}")
    return quotient


def qpoly_exp(coeffs) -> tuple:
    """exp of the series with these coefficients (constant term 0) by
    G_m = sum_j A_j G_(m-j) / (D m) on QPoly objects."""
    n = len(coeffs) - 1
    da = [j * c for j, c in enumerate(coeffs)]
    D = math.lcm(*(c.denominator for c in da))
    A = [D // c.denominator * c.numerator for c in da]
    scale = math.factorial(n) * D**n
    G = [scale] + [0] * n
    for m in range(1, n + 1):
        G[m] = qpoly_exact_quotient(sum(map(mul, A[1:m + 1], G[m - 1::-1])), D * m)
    return tuple(g / scale if isinstance(g, QPoly) else Fraction(g, scale) for g in G)
