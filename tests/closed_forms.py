"""The closed forms of the landau and s1-s3 log-coefficients, as references.

The families module computes these four from two constructions: the
norm family's J recursion (landau, s1) and the place counts of the
projective line (s2, s3).  These are the forms each family was once
written in by hand, kept for the tests to compare against.  Every form
takes power(k) = q^k, which may return ints or QPoly monomials, so the
same lines give q-symbolic values.
"""

from fractions import Fraction

from fqtcount.primecounts import pi_q
from fqtcount.qpoly import QPoly


def twice_e(power, n: int):
    """2 e_n = 1 + sum_{i=1..v2(n)} (q^(n >> i) - 1)."""
    v2 = (n & -n).bit_length() - 1
    return 1 + sum(power(n >> i) - 1 for i in range(1, v2 + 1))


def twice_f(power, n: int):
    """2 f_n = q^m, m the odd part of n."""
    return power(n >> ((n & -n).bit_length() - 1))


def twice_psi(name: str, power, n: int):
    """2 psi_n of landau, s1, s2 or s3 at table index n."""
    if name == "landau":
        return power(n) + twice_e(power, n)
    top = power(2 * n)
    if name == "s1":
        return top + twice_f(power, n)
    if name == "s2":
        return top - twice_f(power, n)
    if n % 2:
        return top - power(n)
    return top - 2 * power(n) + twice_f(power, n)


def e_n(q: int, n: int) -> Fraction:
    """Fluctuation of the landau log-coefficients around q^n/2."""
    return Fraction(twice_e(q.__pow__, n), 2)


def f_n(q: int, n: int) -> Fraction:
    """Fluctuation of the s1 log-coefficients around q^{2n}/2."""
    return Fraction(twice_f(q.__pow__, n), 2)


def e_n_poly(n: int) -> QPoly:
    """e_n with q left symbolic."""
    return (QPoly.from_const(0) + twice_e(QPoly.q_power, n)) / 2


def s3_alternating_psi(q: int, n: int) -> int:
    """psi_n of s3 as the squarefree product's alternating divisor sum
    sum_{d | n} (-1)^(n/d - 1) d pi_q(2d) over the primes of degree 2d."""
    return sum((-1) ** (n // d - 1) * d * pi_q(q, 2 * d)
               for d in range(1, n + 1) if n % d == 0)
