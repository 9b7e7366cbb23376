"""The power-of-2 product decomposition and its exact verifier.

A series A(x) = prod_k B(x^(2^k))^(2^-k) has log-coefficients b_n =
a_n - a_(n/2) for even n; the acceptance tests check that decomposition
of the paper's products with these helpers.
"""

from fractions import Fraction

from fqtcount.errors import TruncationMismatch
from fqtcount.series import TruncatedSeries, series_log


def power2_transform(a_exponents: dict[int, Fraction], N: int) -> dict[int, Fraction]:
    """b_n = a_n - a_{n/2} for even n, a_n for odd n (n = 1..N)."""
    out = {}
    for n in range(1, N + 1):
        a_n = a_exponents.get(n, 0)
        if n % 2 == 0:
            out[n] = a_n - a_exponents.get(n // 2, 0)
        else:
            out[n] = a_n
    return out


def verify_power2_product(A: TruncatedSeries, B: TruncatedSeries, N: int) -> bool:
    """Check A(x) = prod_{k: 2^k <= N} B(x^{2^k})^(2^-k) exactly to order N.

    Both sides are compared through their logarithms, so A and B must
    have constant term 1; powers of series are exact rational ops.
    """
    log_a = series_log(A.truncate(N) if A.order > N else A)
    log_b = series_log(B.truncate(N) if B.order > N else B)
    if log_a.order != N or log_b.order != N:
        raise TruncationMismatch("series shorter than the requested check order")
    rhs = TruncatedSeries.from_coeffs((0,), N)
    k = 0
    while 2**k <= N:
        rhs = rhs + log_b.compose_xpow(2**k).scale(Fraction(1, 2**k))
        k += 1
    return all(x == y for x, y in zip(log_a.coeffs, rhs.coeffs))
