"""Exact truncated power series and the generating-function transforms.

A TruncatedSeries stores coefficients c_0..c_N exactly; the coefficient
ring is anything supporting exact +, -, * and division by integers, in
practice Fraction, int, or QPoly (series_exp also reads .numerator and
.denominator, which all three have).  No floating point enters any
coefficient (it only sizes the prime set below, with a proved margin).

Besides ring operations and exp/log, this module houses the transforms
the counting pipeline is made of: the psi <-> generator-count transform
(Moebius inversion), infinite products prod (1-x^n)^{-g(n)} and their
squarefree variant, and the generalized binomial series.

Every count table is exp(sum psi_n x^n / n) for integer psi_n, the
recurrence n f_n = sum_{j=1..n} psi_j f_{n-j} (Brent & Kung, J. ACM 25,
1978).  ``_exp_psi_over_n`` runs it in three exact steps:

* Integrality.  f_1..f_N are integers if and only if n divides
  sum_{d | n} mu(n/d) psi_d for every n <= N: F = prod (1-x^n)^(-g_n)
  mod x^(N+1) with psi_n = sum_{d | n} d g_d, and the g_n are integers
  exactly when those Moebius sums are divisible by n.  This is decided
  before any modular work; if it fails, NotInvertible is raised.  Every
  family's psi_table and the psi of integer generator counts pass.
* Size.  |f_m| <= (1/m) sum_j |psi_j| |f_{m-j}| <= max_j |psi_j| |f_{m-j}|,
  so b_0 = 0, b_m = max_j (l_j + b_{m-j}) with l_j >= log2 |psi_j| gives
  log2 |f_m| <= b_m.  The l_j are integers in units of 2^-16 bit,
  rounded up with one spare unit; math.log2 is correct to a few ulps,
  under 1e-5 units at any size reached here, so each l_j is a bound.
* Residues.  The recurrence runs modulo the largest primes below 2^26,
  the fewest whose product M exceeds 2^(b+1) for b >= max_m b_m,
  vectorised across the primes in numpy.  They are sieved in windows of
  8192 downwards from 2^26, as many as needed.  Each prime exceeds
  2^25 > N, so n is invertible; residues are below 2^26, so a product is
  below 2^52, and an inner sum is taken in blocks of 2^11 products, each
  block below 2^63 (exact in int64) and reduced mod p before the next.
  Then |f_m| < M/2, and CRT into (-M/2, M/2) returns f_m: with
  y_i = r_i (M/p_i)^-1 mod p_i < 2^26, f_m = sum_i y_i M/p_i mod M, and
  that sum is a float64 matrix product of the y_i against the 16-bit
  limbs of the M/p_i.  Each product is below 2^42 and each sum has at
  most 2^11 of them, so it is below 2^53, exact in any summation order;
  the limb sums are carried into an int and reduced mod M.
* Join points.  f is rebuilt in chunks of 64 coefficients, each from the
  prefix of the primes that its largest b_m asks for.  The primes run
  the recurrence in groups of 64, and a group joins at the first chunk
  that needs it: f_0..f_(s-1), already rebuilt exactly from the earlier
  groups, seed its table as residues, and it runs only for m >= s.  A
  chunk before s needs only earlier groups, so every chunk is exact.  A
  group stays once joined, as a later chunk may need fewer primes (the
  bounds are not monotone when psi has runs of zeros).
* Reduction.  psi_j and the seeds become residues as a float64 matrix
  product of their signed 16-bit limbs against 2^(16 l) mod p, in blocks
  of 64 limbs.  A block sum c has |c| < 2^6 2^16 2^26 = 2^48, exact in
  any summation order, and is floor-reduced to c - p floor(c/p): for an
  integer |c| < 2^52 and 2^25 < p < 2^26, q = c/p has |q| < 2^27, so
  fl(c/p) is off by at most 2^-53 |q| < 2^-26 < 1/p; any integer other
  than q itself lies at least 1/p from q, so floor(fl(c/p)) = floor(q),
  and p floor(q) and the remainder in [0, p) are exact.  A value below
  2^(2^25) has under 2^21 limbs, so at most 2^15 block residues are
  summed, below 2^41, and reduced the same way.

``series_exp`` serves every other exact ring with one common-denominator
recurrence.  For H = exp(sum a_j x^j) to order N, m H_m = sum_j j a_j
H_{m-j}.  Let D be the lcm of the denominators of the j a_j, and A_j =
D j a_j.  If (m-j)! D^(m-j) H_(m-j) is integral for every j <= m, so is
m! D^m H_m = sum_j A_j (m-1)!/(m-j)! D^(j-1) (m-j)! D^(m-j) H_(m-j); hence
G_m = N! D^N H_m is integral for m <= N, and G_m = sum_j A_j G_(m-j) / (D m)
with G_0 = N! D^N.  Each division is checked to be exact, and H_m =
G_m / (N! D^N) is the only Fraction built per coefficient.  The rings
enter only through .numerator and .denominator: ints and Fractions give
int A_j and G_m; a QPoly (the polynomial-in-q counts) gives A_j and G_m
with integer coefficients, and "integral" and "exact" hold coefficientwise.
The scale N! D^N stays small when D does.  Denominators that grow
geometrically, such as 3^-j, make D^N huge; no caller feeds such a series
(the estimator factors beta out of its series for this reason).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from .errors import BadConstantTerm, NotInvertible, TruncationMismatch
from .numtheory import primes_between
from .qpoly import QPoly


def _exact(c):
    """Promote ints to Fraction; leave other exact ring elements alone."""
    return Fraction(c) if isinstance(c, int) else c


@dataclass(frozen=True)
class TruncatedSeries:
    """A power series truncated at order N: coefficients c_0..c_N."""

    coeffs: tuple

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def from_coeffs(cls, coeffs, order: int | None = None) -> "TruncatedSeries":
        coeffs = tuple(coeffs)
        if order is not None:
            if len(coeffs) > order + 1:
                coeffs = coeffs[: order + 1]
            elif len(coeffs) < order + 1:
                coeffs = coeffs + (0,) * (order + 1 - len(coeffs))
        if not coeffs:
            raise ValueError("a truncated series needs at least the constant term")
        return cls(coeffs)

    def coefficient(self, n: int):
        return self.coeffs[n]

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(self.coeffs[: order + 1])

    def _check(self, other: "TruncatedSeries"):
        if not isinstance(other, TruncatedSeries):
            raise TypeError("expected a TruncatedSeries")
        if self.order != other.order:
            raise TruncationMismatch(
                f"orders differ: {self.order} vs {other.order}"
            )

    def __add__(self, other):
        self._check(other)
        return TruncatedSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return TruncatedSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        return series_mul(self, other)

    def scale(self, c) -> "TruncatedSeries":
        return TruncatedSeries(tuple(x * c for x in self.coeffs))

    def compose_xpow(self, e: int) -> "TruncatedSeries":
        """Substitute x -> x^e, truncating at the same order."""
        if e < 1:
            raise ValueError("exponent must be positive")
        out = [0] * (self.order + 1)
        for i, c in enumerate(self.coeffs):
            if i * e > self.order:
                break
            out[i * e] = c
        return TruncatedSeries(tuple(out))


@dataclass(frozen=True)
class GeneratorCounts:
    """Number of degree-n semigroup generators, n = 1..N."""

    g: dict[int, int]
    N: int

    def __post_init__(self):
        for n, value in self.g.items():
            if not 1 <= n <= self.N:
                raise ValueError(f"generator degree {n} outside 1..{self.N}")
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"generator count g({n}) = {value!r} is not a nonnegative integer")

    def count(self, n: int) -> int:
        return self.g.get(n, 0)


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Exact Cauchy product, truncated at the common order."""
    a._check(b)
    n = a.order
    out = [0] * (n + 1)
    for i, ai in enumerate(a.coeffs):
        if ai == 0:
            continue
        for j in range(n + 1 - i):
            bj = b.coeffs[j]
            if bj == 0:
                continue
            out[i + j] = out[i + j] + ai * bj
    return TruncatedSeries(tuple(out))


def series_exp(a: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with zero constant term, by the integer recurrence
    G_m = sum_j A_j G_{m-j} / (D m) of the module docstring."""
    if a.coeffs[0] != 0:
        raise BadConstantTerm("series_exp requires constant term 0")
    n = a.order
    da = [j * c for j, c in enumerate(a.coeffs)]
    D = math.lcm(*(c.denominator for c in da))
    A = [D // c.denominator * c.numerator for c in da]
    scale = math.factorial(n) * D**n
    G = [scale] + [0] * n
    for m in range(1, n + 1):
        G[m] = _exact_quotient(sum(map(mul, A[1:m + 1], G[m - 1::-1])), D * m)
    return TruncatedSeries(tuple(
        g / scale if isinstance(g, QPoly) else Fraction(g, scale) for g in G
    ))


def _exact_quotient(x, d: int):
    """x / d for an int or integer-coefficient QPoly x, checked to be exact."""
    if isinstance(x, QPoly):
        return QPoly(tuple(_exact_quotient(c, d) for c in x.coeffs))
    quotient, remainder = divmod(x, d)
    if remainder:
        raise ArithmeticError(f"exp recurrence: {d} does not divide {x}")
    return quotient


def series_log(a: TruncatedSeries) -> TruncatedSeries:
    """log of a series with constant term 1."""
    if a.coeffs[0] != 1:
        raise BadConstantTerm("series_log requires constant term 1")
    n = a.order
    g = [_exact(0)] + [Fraction(0)] * n
    coeffs = [_exact(c) for c in a.coeffs]
    for m in range(1, n + 1):
        acc = m * coeffs[m]
        for k in range(1, m):
            if g[k] != 0 and coeffs[m - k] != 0:
                acc = acc - k * g[k] * coeffs[m - k]
        g[m] = acc / m if not isinstance(acc, int) else Fraction(acc, m)
    return TruncatedSeries(tuple(g))


def series_pow(a: TruncatedSeries, exponent: Fraction) -> TruncatedSeries:
    """Rational power of a series with constant term 1, via exp(r*log)."""
    return series_exp(series_log(a).scale(_exact(exponent)))


def binomial_series(beta_inv, c1: Fraction, order: int) -> TruncatedSeries:
    """(1 - x/beta)^(-c1) with beta_inv = 1/beta: coefficients binom(n+c1-1, n) * beta_inv^n.

    beta_inv may be an exact rational or a QPoly (symbolic q).
    """
    c1 = Fraction(c1)
    if c1 == 0:
        raise ValueError("binomial exponent c1 must be nonzero")
    coeffs = [_exact(1)]
    current = _exact(1)
    for n in range(1, order + 1):
        current = current * (Fraction(n - 1) + c1) / n * beta_inv
        coeffs.append(current)
    return TruncatedSeries(tuple(coeffs))


def _weighted_divisor_sums(counts: dict, N: int, alternating: bool = False) -> dict[int, int]:
    """sum_{d | n} d * counts(d) for n = 1..N, each term signed
    (-1)^(n/d + 1) if alternating; one pass over the multiples of each d."""
    sums = dict.fromkeys(range(1, N + 1), 0)
    for d, value in counts.items():
        if 1 <= d <= N:
            term = d * value
            for k in range(1, N // d + 1):
                sums[d * k] += term if k % 2 or not alternating else -term
    return sums


def _mobius_table(N: int) -> list[int]:
    """mu(0..N) by a sieve (mu(0) = 0 is a placeholder)."""
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


def _mobius_sums(psi: dict, N: int) -> list:
    """sum_{d | n} mu(n/d) psi(d) for n = 0..N (entry 0 is unused)."""
    mu = _mobius_table(N)
    sums = [0] * (N + 1)
    for d in range(1, N + 1):
        value = psi.get(d, 0)
        for k in range(1, N // d + 1):
            if mu[k]:
                sums[d * k] += mu[k] * value
    return sums


def psi_from_g(g: GeneratorCounts | dict, N: int) -> dict[int, int]:
    """The weighted divisor sums psi(n) = sum_{d | n} d * g(d), n = 1..N."""
    return _weighted_divisor_sums(g.g if isinstance(g, GeneratorCounts) else g, N)


def g_from_psi(psi: dict[int, int], N: int) -> GeneratorCounts:
    """Moebius inversion n*g(n) = sum_{d | n} mu(n/d) psi(d), checked integral."""
    g = {}
    totals = _mobius_sums(psi, N)
    for n in range(1, N + 1):
        total = totals[n]
        if total % n:
            raise NotInvertible(f"psi does not invert to integers at n={n}")
        value = total // n
        if value < 0:
            raise NotInvertible(f"psi inverts to a negative generator count at n={n}")
        if value:
            g[n] = value
    return GeneratorCounts(g, N)


def product_form(g: GeneratorCounts | dict, N: int) -> TruncatedSeries:
    """Coefficients of prod_{n>=1} (1-x^n)^{-g(n)} up to order N.

    Computed as exp(sum psi(n) x^n / n); with integral g this runs in
    pure integer arithmetic and the output coefficients are integers.
    """
    psi = psi_from_g(g, N)
    return _exp_psi_over_n(psi, N)


def squarefree_product_form(g: GeneratorCounts | dict, N: int) -> TruncatedSeries:
    """Coefficients of prod_{n>=1} (1+x^n)^{g(n)} up to order N."""
    counts = g.g if isinstance(g, GeneratorCounts) else g
    return _exp_psi_over_n(_weighted_divisor_sums(counts, N, alternating=True), N)


def _exp_psi_over_n(psi: dict[int, int], N: int) -> TruncatedSeries:
    """exp(sum psi(n) x^n / n) to order N, by the multimodular recurrence.

    Raises NotInvertible unless every psi(n) is an int and the result is
    integral (the Moebius test of the module docstring).
    """
    if not all(isinstance(v, int) for v in psi.values()):
        raise NotInvertible("psi values must be integers")
    for n, total in enumerate(_mobius_sums(psi, N)):
        if n and total % n:
            raise NotInvertible(f"exp(sum psi x^n / n) is not integral at n={n}")
    return TruncatedSeries(_exp_integral([0] + [psi.get(n, 0) for n in range(1, N + 1)]))


# -- the multimodular exp; the module docstring says why each step is exact

_PRIME_CEILING = 1 << 26  # residues below 2^26: products below 2^52
_WINDOW = 8192  # numbers sieved at a time, downwards from 2^26
_BLOCK = 1 << 11  # products per exact int64 inner sum
_MAX_ORDER = 1 << 19  # N < 2^19 < every prime
_MAX_BITS = 1 << 25  # coefficients below 2^(2^25): fewer primes than lie above 2^25
_LOG_UNIT = 1 << 16  # size bounds in units of 2^-16 bit
_NO_TERM = -(1 << 60)  # "log2 0" in those units; sums of two stay in int64
_PRIMES: list[int] = []  # the largest primes below 2^26, descending, sieved as needed
_CHUNK = 64  # values per residue conversion and per CRT prime count; limbs per residue block
_GROUP = 64  # primes per run of the recurrence and per CRT product


def _crt_primes(bits: int) -> list[int]:
    """The fewest of the largest primes below 2^26 whose product exceeds 2^bits (bits >= 1)."""
    if bits >= _MAX_BITS:
        raise ValueError(f"coefficients of {bits} bits exceed the multimodular range of 2^25 bits")
    count, product = 0, 1
    while product.bit_length() <= bits:  # an odd product of bit length > bits exceeds 2^bits
        if count == len(_PRIMES):  # sieve the next window below the smallest prime so far
            top = _PRIMES[-1] if _PRIMES else _PRIME_CEILING
            _PRIMES.extend(reversed(primes_between(top - _WINDOW, top)))
        product *= _PRIMES[count]
        count += 1
    return _PRIMES[:count]


def _size_bounds(psi: list[int]) -> np.ndarray:
    """Whole bits b_m with |f_m| <= 2^b_m (0 if f_m is provably 0), where
    f = exp(sum psi_j x^j / j)."""
    N = len(psi) - 1
    logs = np.full(N + 1, _NO_TERM, dtype=np.int64)
    for j in range(1, N + 1):
        if psi[j]:
            logs[j] = math.ceil(_LOG_UNIT * math.log2(abs(psi[j]))) + 1
    b = np.full(N + 1, _NO_TERM, dtype=np.int64)
    b[0] = 0
    for m in range(1, N + 1):
        b[m] = max(_NO_TERM, int((logs[1:m + 1] + b[m - 1::-1]).max()))
    return np.maximum(-(-b // _LOG_UNIT), 0)


def _limb_count(values: list[int]) -> int:
    """16-bit limbs needed for the largest |v|."""
    return max(1, -(-max(abs(v).bit_length() for v in values) // 16))


def _floor_mod(c: np.ndarray, p: np.ndarray) -> np.ndarray:
    """c mod p as c - p floor(c / p), for float64 integers |c| < 2^52 and 2^25 < p < 2^26."""
    return c - p * np.floor(c / p)


def _residue_rows(values: list[int], p: np.ndarray, radix: np.ndarray) -> np.ndarray:
    """values mod each prime of p (rows x primes); p, radix and the result are
    float64, with radix[l] = 2^(16 l) mod p.

    Each v becomes a row of 16-bit limbs, low limb first, signed as v.
    The rows multiply the float64 radix _CHUNK limbs at a time, and each
    block product is floor-reduced before the blocks are summed and
    reduced again (exact as the module docstring shows).
    """
    width = _limb_count(values)
    data = b"".join(abs(v).to_bytes(2 * width, "little") for v in values)
    limbs = np.frombuffer(data, dtype="<u2").reshape(len(values), width).astype(np.float64)
    limbs *= np.array([-1.0 if v < 0 else 1.0 for v in values])[:, None]
    radix = radix[:width]
    return _floor_mod(sum(_floor_mod(limbs[:, lo:lo + _CHUNK] @ radix[lo:lo + _CHUNK], p)
                          for lo in range(0, width, _CHUNK)), p)


def _crt_rows(res: np.ndarray, primes: list[int]) -> list[int]:
    """Each row of residues (rows x primes) as the integer in (-M/2, M/2).

    With c_i = M/p_i and y_i = r_i / c_i mod p_i, the row is sum_i y_i c_i
    mod M.  The sum is formed limb by limb, as float64 matrix products of
    the y_i against the 16-bit limbs of the c_i, _GROUP primes at a time:
    each product y_i limb is below 2^42 and each sum has at most 2^11 of
    them, so it stays below 2^53 and is exact in any summation order.
    The group sums add up in int64 (below 2^63 for fewer than 2^21
    primes) and are carried into one int for all rows at once: row i
    gets a slot of K bits, K a whole number of 64-bit words above the
    16 width + 63 bits its value needs, and the sum for its limb l sits
    at bit i K + 16 l.  So every fourth limb of every row is a 64-bit
    word of its own, four from_bytes and three shifts carry all of them,
    and each row's value is read back from its slot.
    """
    modulus = math.prod(primes)
    width = _limb_count([modulus])
    words = width // 4 + 2  # K / 64: 4 words >= width + 4 limbs
    sums = np.zeros((len(res), 4 * words), dtype="<i8")
    for g in range(0, len(primes), _GROUP):
        group = primes[g:g + _GROUP]
        cofactors = [modulus // q for q in group]
        y = res[:, g:g + _GROUP] * np.array([pow(c, -1, q) for c, q in zip(cofactors, group)])
        y %= np.array(group, dtype=np.int64)
        data = b"".join(c.to_bytes(2 * width, "little") for c in cofactors)
        limbs = np.frombuffer(data, dtype="<u2").reshape(len(group), width)
        sums[:, :width] += (y.astype(np.float64) @ limbs.astype(np.float64)).astype(np.int64)
    total = sum(int.from_bytes(sums[:, r::4].tobytes(), "little") << (16 * r) for r in range(4))
    slot = 8 * words
    data = total.to_bytes(slot * len(res), "little")
    out = []
    for i in range(0, len(data), slot):
        value = int.from_bytes(data[i:i + slot], "little") % modulus
        out.append(value - modulus if 2 * value > modulus else value)
    return out


def _dot_mod(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """sum_j a[k, j] b[k, j] mod p[k] for residues below 2^26, in blocks of
    2^11 products: a block plus a reduced partial sum stays below 2^63."""
    acc = np.einsum("kj,kj->k", a[:, :_BLOCK], b[:, :_BLOCK])
    for lo in range(_BLOCK, a.shape[1], _BLOCK):
        acc = acc % p + np.einsum("kj,kj->k", a[:, lo:lo + _BLOCK], b[:, lo:lo + _BLOCK])
    return acc % p


def _exp_mod(psi: list[int], known: list[int], p: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """f_0..f_N modulo each prime of p (one row per prime), f = exp(sum psi_j x^j / j).

    known holds f_0..f_(s-1) exactly (s >= 1): their residues seed the
    table, and the recurrence runs for m >= s.  inv[m] holds 1/m modulo
    each prime.  psi and the seeds are reduced by _residue_rows, _CHUNK
    values at a time, straight into their table columns.
    """
    N = len(psi) - 1
    radix = np.ones((max(_limb_count(psi), _limb_count(known)), len(p)), dtype=np.int64)
    n = 1
    while n < len(radix):  # radix[n + l] = radix[l] * 2^(16 n), doubling n
        k = min(n, len(radix) - n)
        radix[n:n + k] = radix[:k] * (radix[n - 1] * ((1 << 16) % p) % p) % p
        n *= 2
    radix, pf = radix.astype(np.float64), p.astype(np.float64)
    # column j of psi_res holds psi_j and column N - m of f_rev holds f_m,
    # so each inner sum reads two contiguous slices
    psi_res = np.zeros((len(p), N + 1), dtype=np.int64)
    for j in range(1, N + 1, _CHUNK):
        rows = psi[j:j + _CHUNK]
        psi_res[:, j:j + len(rows)] = _residue_rows(rows, pf, radix).T
    f_rev = np.zeros_like(psi_res)
    for m in range(0, len(known), _CHUNK):
        rows = known[m:m + _CHUNK]
        f_rev[:, N - m - len(rows) + 1:N - m + 1] = _residue_rows(rows, pf, radix).T[:, ::-1]
    for m in range(len(known), N + 1):
        f_rev[:, N - m] = _dot_mod(psi_res[:, 1:m + 1], f_rev[:, N - m + 1:], p) * inv[m] % p
    return f_rev[:, ::-1]


def _exp_integral(psi: list[int]) -> tuple[int, ...]:
    """f_0..f_N of exp(sum psi_j x^j / j) (psi[0] unused), known to be integers.

    f is rebuilt in chunks of _CHUNK coefficients, each by _crt_rows from
    only as many primes as its size bound needs (a prefix of the primes);
    its float64 sums are exact below 2^53.  The recurrence runs on groups
    of _GROUP primes below 2^26, whose int64 tables stay small; each inner
    sum is taken in blocks of 2^11 products below 2^52 (_dot_mod), and
    the residues of f and the inverses 1/m are kept as int32.  A group
    joins at the first chunk that needs its primes, seeded with the
    coefficients already rebuilt, so it runs only from there to N.
    """
    N = len(psi) - 1
    if N >= _MAX_ORDER:
        raise ValueError(f"order {N} exceeds the multimodular range N < 2^19")
    bits = _size_bounds(psi)
    primes = _crt_primes(int(bits.max()) + 1)
    p = np.array(primes, dtype=np.int64)
    columns = np.arange(len(primes))
    inv = np.ones((N + 1, len(primes)), dtype=np.int32)  # 1/m = -(p // m) / (p mod m)
    for m in range(2, N + 1):
        inv[m] = (p - p // m) * inv[p % m, columns] % p
    f_res = np.empty((len(primes), N + 1), dtype=np.int32)
    out, run = [1], 0  # f_res holds the residues of f modulo primes[:run]
    for m in range(1, N + 1, _CHUNK):
        used = len(_crt_primes(int(bits[m:m + _CHUNK].max()) + 1))
        while run < used:  # the next group joins here, seeded with f_0..f_(m-1)
            f_res[run:run + _GROUP] = _exp_mod(psi, out, p[run:run + _GROUP], inv[:, run:run + _GROUP])
            run += _GROUP
        out += _crt_rows(f_res[:used, m:m + _CHUNK].T, primes[:used])
    return tuple(out)
