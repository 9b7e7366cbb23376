"""Trial-division references for monic primes and factorizations.

ffield.factor splits one polynomial by distinct degree and then by
Cantor-Zassenhaus, and the enumeration sieve factors whole degrees;
these loops divide by one candidate at a time, and are kept as the
reference that both are checked against.  Progression counts past the
character table's limits read the sieve's primes and their residues
from one batched digit product; scalar_class_count reduces each prime
by one scalar division instead.
"""

from functools import lru_cache

from fqtcount import ffield, universe
from fqtcount.ffield import Factorization, MonicPoly
from fqtcount.primecounts import _residue_code


@lru_cache(maxsize=None)
def trial_division_primes(field, n):
    """All monic irreducibles of degree n, by trial division by every monic of degree <= n/2."""
    out = []
    for f in ffield.enumerate_monic(field, n):
        divisible = False
        for d in range(1, n // 2 + 1):
            for g in ffield.enumerate_monic(field, d):
                if ffield.poly_mod_general(field, f.coeffs, g.coeffs) == ():
                    divisible = True
                    break
            if divisible:
                break
        if not divisible:
            out.append(f)
    return tuple(out)


def trial_division_factor(field, f):
    """Canonical factorization of a monic f of degree >= 1: divide out each
    prime of degree <= (degree of the rest)/2 while it divides."""
    rest = f.coeffs
    found = []
    d = 1
    while 2 * d <= len(rest) - 1:
        for prime in trial_division_primes(field, d):
            if 2 * d > len(rest) - 1:
                break
            mult = 0
            while True:
                quot, rem = ffield.poly_divmod(field, rest, prime.coeffs)
                if rem:
                    break
                rest = quot
                mult += 1
            if mult:
                found.append((prime, mult))
        d += 1
    if len(rest) > 1:
        found.append((MonicPoly(rest), 1))
    found.sort(key=lambda pm: (pm[0].degree, pm[0].coeffs))
    return Factorization(tuple(found))


def scalar_class_count(field, n, a_code, m):
    """pi(n; a): the degree-n primes of the sieve in class a mod m, each
    reduced by a scalar division."""
    primes = universe.get_universe(field, n).primes_of_degree(n)
    return sum(_residue_code(field, ffield.coeffs_of_code(field, code), m) == a_code
               for code in primes.tolist())
