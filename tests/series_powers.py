"""Rational powers of series and the generalized binomial series.

Both are built from the package's exact exp and log; the tests check
them against sympy and use them to build reference products.
"""

from fractions import Fraction

from fqtcount.series import TruncatedSeries, series_exp, series_log


def series_pow(a: TruncatedSeries, exponent: Fraction) -> TruncatedSeries:
    """Rational power of a series with constant term 1, via exp(r*log)."""
    return series_exp(series_log(a).scale(Fraction(exponent)))


def binomial_series(beta_inv, c1: Fraction, order: int) -> TruncatedSeries:
    """(1 - x/beta)^(-c1) with beta_inv = 1/beta: coefficients binom(n+c1-1, n) * beta_inv^n.

    beta_inv may be an exact rational or a QPoly (symbolic q).
    """
    c1 = Fraction(c1)
    if c1 == 0:
        raise ValueError("binomial exponent c1 must be nonzero")
    coeffs = [Fraction(1)]
    current = Fraction(1)
    for n in range(1, order + 1):
        current = current * (Fraction(n - 1) + c1) / n * beta_inv
        coeffs.append(current)
    return TruncatedSeries(tuple(coeffs))
