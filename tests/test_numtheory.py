"""Divisors, Moebius, primality and the prime sieve, against sympy."""

import math
import random

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


def loop_primes_between(lo, hi):
    """primes_between with the small primes found by a Python loop over
    every integer up to sqrt(hi), each marking the window as it is found."""
    lo = max(lo, 2)
    if hi <= lo:
        return []
    root = math.isqrt(hi - 1)
    small = bytearray([1]) * (root + 1)
    small[:2] = b"\x00\x00"
    segment = bytearray([1]) * (hi - lo)
    for p in range(2, root + 1):
        if not small[p]:
            continue
        small[p * p::p] = bytes(len(range(p * p, root + 1, p)))
        start = max(p * p, -(-lo // p) * p)
        segment[start - lo::p] = bytes(len(range(start, hi, p)))
    return [lo + i for i, v in enumerate(segment) if v]


def test_primes_between_matches_the_loop_sieve():
    # empty and tiny ranges, windows at and around squares of primes, and
    # 8192-wide windows below 2^20 and 2^26
    ranges = [(0, 0), (5, 3), (-7, 2), (-7, 3), (2, 3), (3, 4), (4, 5), (0, 10), (24, 29),
              (25, 26), (48, 50), (120, 122), (121, 122), (168, 170), (169, 170),
              (1, 100), (997, 1010), (9409, 9410), (10**4, 10**4 + 1),
              (2**16 - 100, 2**16 + 100), (2**20 - 8192, 2**20), (2**26 - 8192, 2**26),
              (2**26 - 2 * 8192, 2**26 - 8192), (2**26 - 1, 2**26), (2**26 - 5, 2**26 + 5)]
    rng = random.Random(9)
    ranges += [(lo, lo + rng.randint(0, 3000)) for lo in rng.sample(range(2**26), 15)]
    for lo, hi in ranges:
        assert primes_between(lo, hi) == loop_primes_between(lo, hi), (lo, hi)
