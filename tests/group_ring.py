"""A dense group-ring reference for per-class prime counts mod m.

Split over the units G of F_q[T]/(m), the zeta product has coefficients
in Z[G]: Z_k, the classes of the monic f of degree k coprime to m, which
is q^(k - deg m) copies of every unit once k >= deg m.  Its
log-derivative psi_k = sum over P^j with j deg P = k of deg P [P^j]
obeys psi_k = k Z_k - sum_{j<k} Z_(k-j) psi_j, and the divisor peel-off
n Pi_n = psi_n - sum_{d | n, d < n} d (Pi_d pushed by x -> x^(n/d))
gives the per-class prime counts Pi_n.  The characters module
diagonalises this ring; these loops work in it directly, every product
a*b mod m by poly_mul and poly_mod_general, and are kept as the
reference that the character basis is checked against.
"""

import numpy as np

from fqtcount import ffield
from fqtcount.numtheory import divisors


class GroupRing:
    """Class vectors over the units of F_q[T]/(m), indexed by residue code order."""

    def __init__(self, field, m):
        self.field, self.m = field, m
        q, d = field.q, m.degree
        self.units = [c for c in range(1, q**d)
                      if ffield.poly_gcd(field, ffield.coeffs_of_code(field, c), m.coeffs) == (1,)]
        self.index = {c: i for i, c in enumerate(self.units)}
        self.order = len(self.units)
        self.z = []  # Z_k for k < deg m
        for k in range(d):
            vec = np.zeros(self.order, dtype=object)
            for f in ffield.enumerate_monic(field, k):
                i = self.index.get(ffield.code_of(field, f.coeffs))
                if i is not None:
                    vec[i] += 1
            self.z.append(vec)
        self._products = {}
        self.psi = []  # psi_1, psi_2, ...
        self._primes = {}

    def product(self, i, j):
        """The index of the product of units i and j."""
        key = (i, j) if i <= j else (j, i)
        if key not in self._products:
            field = self.field
            prod = ffield.poly_mul(field, ffield.coeffs_of_code(field, self.units[i]),
                                   ffield.coeffs_of_code(field, self.units[j]))
            rem = ffield.poly_mod_general(field, prod, self.m.coeffs)
            self._products[key] = self.index[ffield.code_of(field, rem)]
        return self._products[key]

    def convolve(self, x, y):
        out = np.zeros(self.order, dtype=object)
        for i in np.flatnonzero(x):
            for j in np.flatnonzero(y):
                out[self.product(i, j)] += x[i] * y[j]
        return out

    def zeta_times(self, x, k):
        """Z_k x."""
        if k < self.m.degree:
            return self.convolve(x, self.z[k])
        return np.full(self.order, int(sum(x)) * self.field.q ** (k - self.m.degree),
                       dtype=object)

    def extend_psi(self, n):
        """psi_1..psi_n by the quadratic recurrence, one product per term."""
        d, q = self.m.degree, self.field.q
        while len(self.psi) < n:
            k = len(self.psi) + 1
            acc = k * self.z[k] if k < d else np.full(self.order, k * q ** (k - d), dtype=object)
            for j in range(1, k):
                acc = acc - self.zeta_times(self.psi[j - 1], k - j)
            self.psi.append(acc)

    def power(self, i, k):
        """The index of the k-th power of unit i."""
        out = self.index[1]
        for _ in range(k):
            out = self.product(out, i)
        return out

    def prime_vector(self, n):
        """Pi_n: the degree-n primes in each class, by the divisor peel-off."""
        if n not in self._primes:
            self.extend_psi(n)
            acc = self.psi[n - 1].copy()
            for d in divisors(n):
                if d < n:
                    for i, count in enumerate(self.prime_vector(d)):
                        acc[self.power(i, n // d)] -= d * count
            assert all(v % n == 0 and v >= 0 for v in acc), n
            self._primes[n] = acc // n
        return self._primes[n]

    def count(self, n, a_code):
        """pi(n; a) for the unit with residue code a_code."""
        return int(self.prime_vector(n)[self.index[a_code]])
