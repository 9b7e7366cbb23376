"""Small integer helpers: divisors, the Moebius function, primality.

Divisors and Moebius values are taken of degrees, so trial division
serves; field characteristics get a deterministic Miller-Rabin test, and
a segmented sieve finds the primes just below 2^26 that the multimodular
exp uses, one window at a time.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# Miller-Rabin with the prime bases 2..41 decides every n below this bound
# (Sorenson & Webster, Math. Comp. 86 (2017))
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3317044064679887385961981


@lru_cache(maxsize=4096)  # sums over divisors factor the same small n again and again
def _factor(n: int) -> tuple[tuple[int, int], ...]:
    """The prime factorization of n >= 1 as (p, e) pairs, by trial division."""
    if n < 1:
        raise ValueError(f"cannot factor {n}: need a positive integer")
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1, in increasing order."""
    out = [1]
    for p, e in _factor(n):
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def mobius(n: int) -> int:
    """The Moebius function mu(n) for n >= 1."""
    factors = _factor(n)
    if any(e > 1 for _, e in factors):
        return 0
    return -1 if len(factors) % 2 else 1


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n below MR_LIMIT (about 3.3e24)."""
    if n < 2:
        return False
    if n >= MR_LIMIT:
        raise ValueError(f"primality of {n} is not decided: the test is exact below {MR_LIMIT}")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_between(lo: int, hi: int) -> list[int]:
    """The primes p with lo <= p < hi, in increasing order (a segmented sieve).

    The primes up to sqrt(hi) are sieved first, and only they mark their
    multiples in the window, each by one slice.
    """
    lo = max(lo, 2)
    if hi <= lo:
        return []
    root = math.isqrt(hi - 1)
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if small[p]:
            small[p * p::p] = False
    segment = np.ones(hi - lo, dtype=bool)
    for p in np.flatnonzero(small).tolist():
        segment[max(p * p, -(-lo // p) * p) - lo::p] = False
    return (np.flatnonzero(segment) + lo).tolist()
