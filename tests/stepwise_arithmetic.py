"""Step-by-step references for certify's exact arithmetic.

The package forms a falling factorial as one integer product over one
denominator, and the Euler log sums and artanh sums of constants by
running quotients; Moebius inversion is one in-place pass.
These are the direct forms they replace, one Fraction multiply per
factor, one big division per term and one mu-weighted term per pair
(d, k); the tests assert that both give equal values, floors and
ledgers.
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


def sieved_mobius(N: int) -> list[int]:
    """mu(0..N) by a sieve over the primes (mu(0) = 0 is a placeholder)."""
    mu = [1] * (N + 1)
    mu[0] = 0
    composite = bytearray(N + 1)
    for p in range(2, N + 1):
        if composite[p]:
            continue
        composite[2 * p::p] = b"\x01" * len(range(2 * p, N + 1, p))
        for k in range(p, N + 1, p):
            mu[k] = -mu[k]
        for k in range(p * p, N + 1, p * p):
            mu[k] = 0
    return mu


def mobius_weighted_sums(psi: dict, N: int) -> list:
    """sum_{d | n} mu(n/d) psi(d) for n = 0..N (entry 0 is unused), one
    mu-weighted multiply-add per d and multiple d k."""
    mu = sieved_mobius(N)
    sums = [0] * (N + 1)
    for d in range(1, N + 1):
        value = psi.get(d, 0)
        for k in range(1, N // d + 1):
            if mu[k]:
                sums[d * k] += mu[k] * value
    return sums
