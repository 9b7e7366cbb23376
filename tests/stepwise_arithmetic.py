"""Step-by-step references for certify's exact arithmetic.

The package forms a falling factorial as one integer product over one
denominator, and the Euler log sums and artanh sums of constants by
running quotients.
These are the direct forms they replace, one Fraction multiply per
factor and one big division per term; the tests assert that both give
equal values, floors and ledgers.
"""

from fractions import Fraction

import mpmath

from fqtcount.asymptotics import GUARD_BITS


def stepwise_falling_factorials(x: Fraction, J: int) -> list[Fraction]:
    """(x)_j for j = 0..J, each as the running product x (x-1) ... (x-j+1)."""
    out = [Fraction(1)]
    for t in range(J):
        out.append(out[-1] * (x - t))
    return out


def direct_euler_log_sum(q: int, weights) -> tuple[Fraction, Fraction]:
    """constants._euler_log_sum with each term the direct floor
    (w_d << P) // (k q^(2dk)), stopping at the first zero term."""
    P = mpmath.mp.prec + GUARD_BITS
    total = ulps = 0
    for d, w in weights:
        if w == 0:
            continue
        y = q ** (2 * d)
        k, y_k = 1, y
        while term := (w << P) // (k * y_k):
            total += term
            k, y_k = k + 1, y_k * y
        ulps += k + 1
    return Fraction(total, 1 << (P + 1)), Fraction(ulps, 1 << (P + 1))


def direct_artanh_sum(y: int) -> tuple[int, int]:
    """constants._artanh_sum with each term the direct floor
    2^P // (j y^j) over odd j, stopping at the first zero term."""
    P = mpmath.mp.prec + GUARD_BITS
    total, j = 0, 1
    while term := (1 << P) // (j * y**j):
        total += term
        j += 2
    return total, (j - 1) // 2 + 2
