"""Divisors, Moebius, primality and the prime sieve, against sympy."""

import pytest
import sympy

from fqtcount.errors import NonPrime
from fqtcount.ffield import build_field
from fqtcount.numtheory import MR_LIMIT, divisors, is_prime, mobius, primes_between


def test_divisors_and_mobius_match_sympy():
    for n in range(1, 5001):
        assert divisors(n) == sympy.divisors(n)
        assert mobius(n) == sympy.mobius(n)


def test_factoring_needs_a_positive_integer():
    for n in (0, -6):
        with pytest.raises(ValueError):
            divisors(n)
        with pytest.raises(ValueError):
            mobius(n)


# Carmichael numbers; strong pseudoprimes to the prime bases up to 2, 7, 23
# and 37 (the last fools every base below 41); Mersenne primes; numbers
# around 2^64 and just below the Miller-Rabin limit
_BOUNDARY = (
    561, 1105, 1729, 2047, 3215031751, 3825123056546413051,
    318665857834031151167461, 2**61 - 1, 2**89 - 1, 2**64 - 59, 2**64 + 13,
    MR_LIMIT - 1, MR_LIMIT - 3,
)


def test_miller_rabin_matches_sympy():
    for n in [*range(-3, 3000), *_BOUNDARY, *(b + d for b in _BOUNDARY for d in (-2, 2))]:
        if n < MR_LIMIT:
            assert is_prime(n) == sympy.isprime(n), n
    assert not is_prime(318665857834031151167461)
    top = sympy.prevprime(MR_LIMIT)
    assert is_prime(top) and not any(is_prime(n) for n in range(top + 1, MR_LIMIT))


def test_miller_rabin_rejects_the_undecided_range():
    # MR_LIMIT is itself a strong pseudoprime to every base 2..41
    with pytest.raises(ValueError, match="not decided"):
        is_prime(MR_LIMIT)
    with pytest.raises(ValueError, match="not decided"):
        build_field(MR_LIMIT + 2)
    with pytest.raises(NonPrime):
        build_field(561)


@pytest.mark.parametrize("lo, hi", [(0, 2), (0, 3), (0, 1000), (90, 1000), (7919, 7920),
                                    (2**19, 2**19 + 5000), (2**20 - 3000, 2**20)])
def test_primes_between_matches_sympy(lo, hi):
    primes = primes_between(lo, hi)
    assert primes == list(sympy.primerange(lo, hi))
    assert all(type(p) is int for p in primes)  # products of them must not wrap
