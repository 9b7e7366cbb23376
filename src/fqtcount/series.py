"""Exact truncated power series and the generating-function transforms.

A TruncatedSeries stores coefficients c_0..c_N exactly; the coefficient
ring is anything supporting exact +, -, * and division by integers, in
practice Fraction, int, or QPoly (series_exp reads the .numerator and
.denominator of the scalars, and the coefficients of a QPoly).  No
floating point enters any coefficient (it only sizes the prime set
below, with a proved margin).

Besides ring operations and exp/log, this module houses the transforms
the counting pipeline is made of: the psi <-> generator-count transform
(Moebius inversion) and infinite products prod (1-x^n)^{-g(n)} and their
squarefree variant.  Moebius inversion is written once, as the in-place
pass _mobius_sums: the generator counts, the integrality test below,
primecounts' place counts and the mu table all run it.

Every count table is exp(sum psi_n x^n / n) for integer psi_n, the
recurrence n f_n = sum_{j=1..n} psi_j f_{n-j} (Brent & Kung, J. ACM 25,
1978).  ``_exp_psi_over_n`` runs it in exact steps:

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
  2^25 > N, so m is invertible.  Residues rest as int32 and are below
  2^26, so a product is below 2^52.  f is built in chunks of 64
  coefficients m = s + t.  A chunk's prefix, sum_{i<s} psi_(s+t-i) f_i
  for all its t at once, is one contraction of a sliding window of psi
  against f_0..f_(s-1); what is left of each f_m, the triangle
  sum_{s<=i<m} psi_(m-i) f_i, is one short sum per m.  Every such sum
  is taken in int64 in blocks of 2^11 products, and reduced mod p
  before the next block: a block plus the reduced sum before it is at
  most 2^11 (2^26 - 1)^2 + 2^26 < 2^63.  Then |f_m| < M/2, and CRT into
  (-M/2, M/2) returns f_m: with y_i = r_i (M/p_i)^-1 mod p_i < 2^26,
  f_m = sum_i y_i M/p_i mod M, and that sum is a float64 matrix product
  of the y_i against the 16-bit limbs of the M/p_i.  Each product is
  below 2^42 and each sum has at most 2^11 of them, so it is below 2^53,
  exact in any summation order; the limb sums are carried into an int
  and reduced mod M.
* Join points.  Each chunk is rebuilt by CRT from every prime joined so
  far, which includes the prefix of primes that its largest b_m asks
  for; more primes give the same integer, as |f_m| < M/2 holds for the
  larger M too.  Primes join in batches of 16 at the first chunk that
  needs them: f_0..f_(s-1), already rebuilt exactly from the earlier
  primes, seed their rows as residues, and they run only for m >= s.  A
  chunk before s needs only earlier batches, so every chunk is exact.
  A batch stays once joined, as a later chunk may need fewer primes (the
  bounds are not monotone when psi has runs of zeros).  One pass over
  the chunks runs every joined prime at once, so a coefficient is one
  step for all of them.
* Inverses.  1/m modulo each prime comes from product trees, with no
  table of them kept.  The m of a chunk are multiplied in pairs, pairs
  of pairs, and so on up to the chunk's product; given its inverse, the
  tree is walked back down, as a node's inverse times its sibling is
  the inverse of the other sibling.  The chunks' products get their
  inverses from one more tree, over the chunks, whose root is inverted
  by one pow per prime.  Every step multiplies two residues, below 2^52.
* Audit.  One more prime, 2^25 - 39 (the largest below 2^25, outside
  every CRT set), runs the recurrence as row 0 from f_0 = 1, with no
  seed and no join.  Each rebuilt f_m is reduced modulo it, from the
  same limbs that seed later joins, and must equal that row, else
  TruncationMismatch is raised.  A size bound or a join one chunk too
  late rebuilds some f_m from too few primes, and a residue left
  unreduced corrupts every later f_m; either shows up as a mismatch
  instead of a wrong table.
* Reduction.  psi_j, the chunk products and the seeds become residues as
  a float64 matrix product of their 16-bit limbs against 2^(16 l) mod p,
  in blocks of 64 limbs, with the sign applied after.  A block sum c has
  0 <= c < 2^6 2^16 2^26 = 2^48, exact in any summation order, and is
  floor-reduced to c - p floor(c/p): for an integer |c| < 2^52 and a
  prime p < 2^26, fl(c/p) is off by at most 2^-53 |c|/p < 1/(2p), while
  c/p is either an integer (then fl(c/p) is exact) or at least 1/p from
  every integer, so floor(fl(c/p)) = floor(c/p), and p floor(c/p) and
  the remainder in [0, p) are exact.  A value below 2^(2^25) has under
  2^21 limbs, so at most 2^15 block residues are summed, below 2^41, and
  reduced the same way.

``series_exp`` serves every other exact ring with one common-denominator
recurrence.  For H = exp(sum a_j x^j) to order N, m H_m = sum_j j a_j
H_{m-j}.  Let D be the lcm of the denominators of the j a_j, and A_j =
D j a_j.  If (m-j)! D^(m-j) H_(m-j) is integral for every j <= m, so is
m! D^m H_m = sum_j A_j (m-1)!/(m-j)! D^(j-1) (m-j)! D^(m-j) H_(m-j); hence
G_m = N! D^N H_m is integral for m <= N, and G_m = sum_j A_j G_(m-j) / (D m)
with G_0 = N! D^N.  Each division is checked to be exact, and H_m =
G_m / (N! D^N) is the only Fraction built per coefficient.  The scale
N! D^N stays small when D does.  Denominators that grow geometrically,
such as 3^-j, make D^N huge; no caller feeds such a series (the
estimator factors beta out of its series for this reason).

Over ints and Fractions, A_j and G_m are ints.  Over QPoly (the
polynomial-in-q counts) they are integer polynomials in q, D is the lcm
over every coefficient, and "integral" holds coefficientwise; the
recurrence then runs on packed integers (Kronecker substitution q -> 2^b;
Harvey, J. Symbolic Comput. 44, 2009):

* Packing.  G_m is kept as the int G_m(2^b), and A_j as its nonzero
  coefficients c_t.  Evaluation at 2^b is a ring map Z[q] -> Z, so
  s_m(2^b) = sum_j A_j(2^b) G_(m-j)(2^b) is formed as the ints
  c_t (G_(m-j)(2^b) << t b), summed; few of the c_t are nonzero when the
  log-coefficients are sparse in q, as the norm families' are.
* Slot width.  Let M_0 = N! D^N, S_m = sum_j |A_j|_1 M_(m-j) and M_m =
  ceil(S_m / (D m)).  As |A G|_inf <= |A|_1 |G|_inf, induction on m gives
  |s_m|_inf <= S_m and |G_m|_inf = |s_m|_inf / (D m) <= M_m.  So with b =
  bitlen(max_m S_m) + 2, rounded up to whole bytes, every coefficient of
  every s_m and G_m lies in (-2^(b-2), 2^(b-2)).
* Slot count.  deg G_0 = 0 and deg G_m <= d_m = max_j (deg A_j +
  d_(m-j)) over the nonzero A_j and G_(m-j) (d_m = -1 if there are none,
  and then G_m = 0).  s_m takes d_m + 1 slots of b bits.
* Reading back.  An integer with digits c_t in (-2^(b-1), 2^(b-1)) in
  base 2^b has those as its unique balanced digits: adding 2^(b-1) per
  slot makes each digit c_t + 2^(b-1), in [0, 2^b), so one to_bytes
  splits s_m into its slots.  A value that does not fit d_m + 1 slots
  raises TruncationMismatch.
* Division.  Each digit of s_m is divided by D m and checked exact, and
  then G_m(2^b) = s_m(2^b) / (D m), exact as every digit is.  The packed
  division alone proves nothing: 2 + 2^8 is divisible by 3, and neither
  of its digits is.
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
    G_m = sum_j A_j G_{m-j} / (D m) of the module docstring.  Index 0 of
    the result is Fraction(1); a series with a QPoly coefficient runs it
    on packed integers (_packed_exp) and gives a QPoly with Fraction
    coefficients at every other index, any other series Fractions."""
    if a.coeffs[0] != 0:
        raise BadConstantTerm("series_exp requires constant term 0")
    if any(isinstance(c, QPoly) for c in a.coeffs):
        return _packed_exp(a.coeffs)
    n = a.order
    da = [j * c for j, c in enumerate(a.coeffs)]
    D = math.lcm(*(c.denominator for c in da))
    A = [D // c.denominator * c.numerator for c in da]
    scale = math.factorial(n) * D**n
    G = [scale] + [0] * n
    for m in range(1, n + 1):
        G[m] = _exact_quotient(sum(map(mul, A[1:m + 1], G[m - 1::-1])), D * m)
    return TruncatedSeries(tuple(Fraction(g, scale) for g in G))


def _exact_quotient(x: int, d: int) -> int:
    """x / d, checked to be exact."""
    quotient, remainder = divmod(x, d)
    if remainder:
        raise ArithmeticError(f"exp recurrence: {d} does not divide {x}")
    return quotient


def _packed_exp(coeffs: tuple) -> TruncatedSeries:
    """series_exp of a series with QPoly (and scalar) coefficients, on
    packed integers: A_j is kept as its nonzero coefficients, G_m as the
    int G_m(2^b), and s_m = sum_j A_j G_(m-j) is one sum of shifted ints
    (see the module docstring for the slot width b and the slot counts)."""
    n = len(coeffs) - 1
    # j a_j, one (t, numerator, denominator) per nonzero coefficient of q^t
    terms = [[] for _ in range(n + 1)]
    for j in range(1, n + 1):
        c = coeffs[j]
        for t, x in enumerate(c.coeffs if isinstance(c, QPoly) else (c,)):
            if x:
                g = math.gcd(j, x.denominator)
                terms[j].append((t, j // g * x.numerator, x.denominator // g))
    D = math.lcm(*(den for row in terms for _, _, den in row))
    A = [[(t, D // den * num) for t, num, den in row] for row in terms]
    scale = math.factorial(n) * D**n
    # |G_m|_inf <= M_m, |s_m|_inf <= S_m and deg G_m <= degree[m] (-1: G_m = 0)
    norm = [sum(abs(c) for _, c in row) for row in A]
    top = [row[-1][0] if row else -1 for row in A]
    M, S, degree = [scale], [0], [0]
    for m in range(1, n + 1):
        S.append(sum(map(mul, norm[1:m + 1], M[m - 1::-1])))
        M.append(-(-S[m] // (D * m)))
        degree.append(max((t + d for t, d in zip(top[1:m + 1], degree[m - 1::-1])
                           if t >= 0 and d >= 0), default=-1))
    width = -(-(max(S).bit_length() + 2) // 8)  # bytes per slot: b = 8 width
    shifted = [[(8 * width * t, c) for t, c in row] for row in A]
    G, out = [scale] + [0] * n, [Fraction(1)]
    for m in range(1, n + 1):
        s = 0
        for row, g in zip(shifted[1:m + 1], G[m - 1::-1]):
            if g:
                for shift, c in row:
                    s += g << shift if c == 1 else c * (g << shift)
        digits = _packed_quotient(s, D * m, width, degree[m] + 1)
        G[m] = s // (D * m)  # exact, as every digit is
        out.append(QPoly(tuple(Fraction(v, scale) for v in digits)))
    return TruncatedSeries(tuple(out))


def _packed_quotient(s: int, d: int, width: int, slots: int) -> list[int]:
    """The balanced base-2^b digits of s (b = 8 width bits), lowest first,
    each divided by d and checked exact (ArithmeticError).  s has at most
    slots digits, each in (-2^(b-1), 2^(b-1)); TruncationMismatch if it
    does not fit the slots."""
    half = 1 << (8 * width - 1)
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")  # half per slot
    try:
        data = (s + offset).to_bytes(width * slots, "little")
    except OverflowError:
        raise TruncationMismatch(f"a packed exp coefficient exceeds its {slots} slots") from None
    return [_exact_quotient(int.from_bytes(data[i:i + width], "little") - half, d)
            for i in range(0, len(data), width)]


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


def _mobius_sums(values: list) -> list:
    """sum_{d | n} mu(n/d) values[d] for n = 0..len(values) - 1, as a new
    list (entry 0 is unused).

    One in-place pass inverts values[n] = sum_{d | n} g(d): in increasing
    d, the entry at d is already g(d), and is taken from each of its
    multiples.
    """
    sums, N = list(values), len(values) - 1
    for d in range(1, N // 2 + 1):
        t = sums[d]
        if t:
            sums[2 * d::d] = [v - t for v in sums[2 * d::d]]
    return sums


def _mobius_table(N: int) -> list[int]:
    """mu(0..N) (mu(0) = 0 is a placeholder): the Moebius sums of the indicator of 1."""
    return _mobius_sums([int(n == 1) for n in range(N + 1)])


def psi_from_g(g: GeneratorCounts | dict, N: int) -> dict[int, int]:
    """The weighted divisor sums psi(n) = sum_{d | n} d * g(d), n = 1..N."""
    return _weighted_divisor_sums(g.g if isinstance(g, GeneratorCounts) else g, N)


def g_from_psi(psi: dict[int, int], N: int) -> GeneratorCounts:
    """Moebius inversion n*g(n) = sum_{d | n} mu(n/d) psi(d), checked integral."""
    g = {}
    totals = _mobius_sums([0] + [psi.get(n, 0) for n in range(1, N + 1)])
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
    values = [0] + [psi.get(n, 0) for n in range(1, N + 1)]
    for n, total in enumerate(_mobius_sums(values)):
        if n and total % n:
            raise NotInvertible(f"exp(sum psi x^n / n) is not integral at n={n}")
    return TruncatedSeries(_exp_integral(values))


# -- the multimodular exp; the module docstring says why each step is exact

_PRIME_CEILING = 1 << 26  # residues below 2^26: products below 2^52
_AUDIT_PRIME = (1 << 25) - 39  # the largest prime below 2^25, outside every CRT set
_WINDOW = 8192  # numbers sieved at a time, downwards from 2^26
_BLOCK = 1 << 11  # products per exact int64 inner sum
_MAX_ORDER = 1 << 19  # N < 2^19 < every prime
_MAX_BITS = 1 << 25  # coefficients below 2^(2^25): fewer primes than lie above 2^25
_LOG_UNIT = 1 << 16  # size bounds in units of 2^-16 bit
_NO_TERM = -(1 << 60)  # "log2 0" in those units; sums of two stay in int64
_PRIMES: list[int] = []  # the largest primes below 2^26, descending, sieved as needed
_CHUNK = 64  # coefficients per chunk of the recurrence and per CRT; limbs per float product
_GROUP = 16  # primes per join; also rows per prefix contraction


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
    f = exp(sum psi_j x^j / j).

    b_m = max_j (l_j + b_(m-j)) is taken in chunks of _CHUNK values of m,
    as the exp recurrence is: the terms with m - j below the chunk are one
    sliding-window maximum, and the terms inside it come from star[t, u],
    the largest sum of l over the ways to step from u up to t within a
    chunk.  That is b_(t-u) itself (0 for t = u), so the first _CHUNK
    bounds are taken one m at a time and star is their Toeplitz matrix.
    Sums of two values at least _NO_TERM stay in int64, and every result
    is raised back to _NO_TERM.
    """
    N = len(psi) - 1
    logs = np.array([_NO_TERM] + [math.ceil(_LOG_UNIT * math.log2(abs(v))) + 1 if v else _NO_TERM
                                  for v in psi[1:]], dtype=np.int64)
    C = min(_CHUNK, N + 1)
    b = np.full(N + 1, _NO_TERM, dtype=np.int64)
    b[0] = 0
    for m in range(1, C):
        b[m] = max((logs[1:m + 1] + b[m - 1::-1]).max(), _NO_TERM)
    lag = np.subtract.outer(np.arange(C), np.arange(C))  # t - u
    star = np.where(lag >= 0, b[np.maximum(lag, 0)], _NO_TERM)
    for s in range(1, N + 1, _CHUNK):
        e = min(s + _CHUNK, N + 1)
        window = _windows(logs[1:e], s)  # logs[t+1..t+s]
        pre = np.concatenate([(window[lo:lo + _GROUP] + b[s - 1::-1]).max(axis=1)
                              for lo in range(0, e - s, _GROUP)])
        b[s:e] = np.maximum((star[:e - s, :e - s] + pre).max(axis=1), _NO_TERM)
    return np.maximum(-(-b // _LOG_UNIT), 0)


def _limb_count(values: list[int]) -> int:
    """16-bit limbs needed for the largest |v|."""
    return max(1, -(-max(abs(v).bit_length() for v in values) // 16))


def _limbs(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The 16-bit limbs of each |v| (rows x limbs, uint16, low limb first)
    and whether each v is negative."""
    width = _limb_count(values)
    data = b"".join(abs(v).to_bytes(2 * width, "little") for v in values)
    return (np.frombuffer(data, dtype="<u2").reshape(len(values), width),
            np.array([v < 0 for v in values]))


def _from_limbs(limbs: tuple[np.ndarray, np.ndarray]) -> list[int]:
    """The values whose _limbs are given."""
    magnitude, negative = limbs
    size = 2 * magnitude.shape[1]
    data = magnitude.tobytes()
    return [-v if neg else v for neg, v in zip(
        negative.tolist(), (int.from_bytes(data[i:i + size], "little") for i in range(0, len(data), size)))]


def _radix(p: np.ndarray, width: int) -> np.ndarray:
    """radix[l] = 2^(16 l) mod p for l < width (limbs x primes), as float64."""
    radix = np.ones((width, len(p)), dtype=np.int64)
    n = 1
    while n < width:  # radix[n + l] = radix[l] * 2^(16 n), doubling n
        k = min(n, width - n)
        radix[n:n + k] = radix[:k] * (radix[n - 1] * ((1 << 16) % p) % p) % p
        n *= 2
    return radix.astype(np.float64)


def _floor_mod(c: np.ndarray, p: np.ndarray) -> np.ndarray:
    """c mod p as c - p floor(c / p), for float64 integers |c| < 2^52 and primes p < 2^26."""
    return c - p * np.floor(c / p)


def _residue_rows(limbs: tuple[np.ndarray, np.ndarray], p: np.ndarray,
                  radix: np.ndarray) -> np.ndarray:
    """The values whose _limbs are given, modulo each prime of p (rows x
    primes); p, radix and the result are float64, with radix as _radix.

    The limb rows multiply the radix _CHUNK limbs at a time, and each
    block product is floor-reduced before the blocks are summed, signed
    and reduced again (exact as the module docstring shows).
    """
    magnitude, negative = limbs
    width = magnitude.shape[1]
    radix = radix[:width]
    total = sum(_floor_mod(magnitude[:, lo:lo + _CHUNK].astype(np.float64) @ radix[lo:lo + _CHUNK], p)
                for lo in range(0, width, _CHUNK))
    total[negative] *= -1
    return _floor_mod(total, p)


class _CrtPlan:
    """The constants that rebuild integers from their residues modulo primes:
    M, the cofactors c_i = M/p_i as 16-bit limbs, and (c_i)^-1 mod p_i."""

    def __init__(self, primes: list[int]):
        self.modulus = math.prod(primes)
        self.width = _limb_count([self.modulus])
        cofactors = [self.modulus // q for q in primes]
        self.primes = np.array(primes, dtype=np.int64)
        self.inverses = np.array([pow(c, -1, q) for c, q in zip(cofactors, primes)], dtype=np.int64)
        self.limbs = _limbs(cofactors)[0]

    def rows(self, res: np.ndarray) -> list[int]:
        """Each row of residues (rows x primes, below 2^26) as the integer in (-M/2, M/2).

        With y_i = r_i c_i^-1 mod p_i, the row is sum_i y_i c_i mod M.
        The sum is formed limb by limb, as float64 matrix products of the
        y_i against the limbs of the c_i, 2^11 primes and _CHUNK limbs at
        a time: each product y_i limb is below 2^42 and each sum has at
        most 2^11 of them, so it stays below 2^53 and is exact in any
        summation order.  The block sums add up in int64 (below 2^63 for
        fewer than 2^21 primes) and are carried into one int for all rows
        at once: row i gets a slot of K bits, K a whole number of 64-bit
        words above the 16 width + 63 bits its value needs, and the sum
        for its limb l sits at bit i K + 16 l.  So every fourth limb of
        every row is a 64-bit word of its own, four from_bytes and three
        shifts carry all of them, and each row's value is read back from
        its slot.
        """
        modulus = self.modulus
        words = self.width // 4 + 2  # K / 64: 4 words >= width + 4 limbs
        y = (res * self.inverses % self.primes).astype(np.float64)
        sums = np.zeros((len(res), 4 * words), dtype="<i8")
        for lo in range(0, len(self.primes), _BLOCK):
            for w in range(0, self.limbs.shape[1], _CHUNK):
                block = self.limbs[lo:lo + _BLOCK, w:w + _CHUNK].astype(np.float64)
                sums[:, w:w + block.shape[1]] += (y[:, lo:lo + _BLOCK] @ block).astype(np.int64)
        del y  # the tables go before the ints are made
        total = sum(int.from_bytes(sums[:, r::4].tobytes(), "little") << (16 * r) for r in range(4))
        del sums
        slot = 8 * words
        data = total.to_bytes(slot * len(res), "little")
        out = []
        for i in range(0, len(data), slot):
            value = int.from_bytes(data[i:i + slot], "little") % modulus
            out.append(value - modulus if 2 * value > modulus else value)
        return out


def _contract_mod(spec: str, a: np.ndarray, b: np.ndarray, p) -> np.ndarray:
    """np.einsum(spec, a, b) mod p, for a spec that sums the last axis of
    both a and b (int residues below 2^26, at least one of them int64), in
    blocks of 2^11 products: a block plus a reduced partial sum stays
    below 2^63."""
    if a.shape[-1] <= _BLOCK:
        return np.einsum(spec, a, b) % p
    acc = np.einsum(spec, a[..., :_BLOCK], b[..., :_BLOCK])
    for lo in range(_BLOCK, a.shape[-1], _BLOCK):
        acc = acc % p + np.einsum(spec, a[..., lo:lo + _BLOCK], b[..., lo:lo + _BLOCK])
    return acc % p


def _inverses(leaves: np.ndarray, p: np.ndarray, root: np.ndarray | None = None) -> np.ndarray:
    """1/x modulo p[k] for each x in row k of leaves (a power of two wide,
    every x a unit), by a product tree: the product of each row is
    inverted, by one pow unless root holds its inverse (rows x 1), and the
    tree is walked back down, each node's inverse times its sibling."""
    col = p[:, None]
    tree = [leaves]
    while tree[-1].shape[1] > 1:
        tree.append(tree[-1][:, 0::2] * tree[-1][:, 1::2] % col)
    top = tree.pop()
    inv = root if root is not None else np.array(
        [[pow(int(v), -1, int(q))] for v, q in zip(top[:, 0], p)], dtype=np.int64)
    for level in reversed(tree):
        down = np.empty_like(level)
        down[:, 0::2] = inv * level[:, 1::2] % col
        down[:, 1::2] = inv * level[:, 0::2] % col
        inv = down
    return inv


def _windows(x: np.ndarray, n: int) -> np.ndarray:
    """The windows of n consecutive entries along the last axis of a
    contiguous array, as a read-only view: out[..., u, i] = x[..., u + i]."""
    step = x.strides[-1]
    return np.lib.stride_tricks.as_strided(
        x, x.shape[:-1] + (x.shape[-1] - n + 1, n), x.strides[:-1] + (step, step), writeable=False)


def _seed_rows(known: list[tuple[np.ndarray, np.ndarray]], p: np.ndarray) -> np.ndarray:
    """f_0..f_(s-1), given as the _limbs of each chunk rebuilt so far, modulo
    each prime of p (primes x s, float64)."""
    radix = _radix(p, max(magnitude.shape[1] for magnitude, _ in known))
    pf = p.astype(np.float64)
    return np.concatenate([_residue_rows(limbs, pf, radix) for limbs in known]).T


def _exp_integral(psi: list[int]) -> tuple[int, ...]:
    """f_0..f_N of exp(sum psi_j x^j / j) (psi[0] unused), known to be integers.

    One pass over chunks of _CHUNK coefficients runs the recurrence for
    every joined prime at once: each chunk's prefix sum is one windowed
    contraction per _GROUP rows, and its triangle one short sum per
    coefficient.  Each chunk is rebuilt by CRT from every prime joined so
    far, at least as many as its size bound needs.  Primes join _GROUP at
    a time at the first chunk that needs them, seeded with the
    coefficients already rebuilt.  Row 0 runs modulo _AUDIT_PRIME from
    f_0 = 1, and every rebuilt coefficient must agree with it, else
    TruncationMismatch.  Residues rest as int32 and are multiplied in
    int64; the rebuilt coefficients rest as limbs until the end.
    """
    N = len(psi) - 1
    if N >= _MAX_ORDER:
        raise ValueError(f"order {N} exceeds the multimodular range N < 2^19")
    bits = _size_bounds(psi)
    primes = _crt_primes(int(bits.max()) + 1)
    starts = range(1, N + 1, _CHUNK)
    needs = [len(_crt_primes(int(bits[s:s + _CHUNK].max()) + 1)) for s in starts]
    products = [math.prod(range(s, min(s + _CHUNK, N + 1))) for s in starts]  # of each chunk's m
    p = np.array([_AUDIT_PRIME] + primes, dtype=np.int64)
    pf = p.astype(np.float64)
    radix = _radix(p, _limb_count(psi + products + [math.prod(primes)]))  # and any value CRT returns
    # column N - j of psi_rev holds psi_j, so every sum reads contiguous slices:
    # psi_(t-u) for u < t is psi_rev[:, N-t:], and f_0..f_(s-1) is f[:, :s]
    psi_rev = np.zeros((len(p), N), dtype=np.int32)
    for j in range(1, N + 1, _CHUNK):
        rows = psi[j:j + _CHUNK]
        psi_rev[:, N - j - len(rows) + 1:N - j + 1] = _residue_rows(_limbs(rows), pf, radix).T[:, ::-1]
    head = psi_rev[:, N - min(_CHUNK - 1, N):].astype(np.int64)  # psi_(_CHUNK - 1)..psi_1
    product_inv = np.ones((len(p), 1 << max(len(products) - 1, 0).bit_length()), dtype=np.int64)
    if products:
        product_inv[:, :len(products)] = _residue_rows(_limbs(products), pf, radix).T
    product_inv = _inverses(product_inv, p)
    audit_radix = radix[:, :1].copy()
    del radix
    f = np.zeros((len(p), N + 1), dtype=np.int32)
    f[:, 0] = 1
    known, run = [_limbs([1])], 0  # the limbs of each chunk rebuilt; rows 1..run hold the joined primes
    for c, (s, used) in enumerate(zip(starts, needs)):
        e = min(s + _CHUNK, N + 1)
        if run < used:
            while run < used:  # the next batch joins here, seeded with f_0..f_(s-1)
                batch = slice(1 + run, 1 + min(run + _GROUP, len(primes)))
                f[batch, :s] = _seed_rows(known, p[batch])
                run = batch.stop - 1
            plan = None  # the old plan goes before the new one is made
            plan = _CrtPlan(primes[:run])
        r, L = 1 + run, e - s - 1
        pr = p[:r]
        # g[:, t] gets the prefix, sum_{i<s} psi_(s+t-i) f_i, read from windows of psi
        g = np.empty((r, e - s), dtype=np.int64)
        for lo in range(0, r, _GROUP):
            rows = slice(lo, min(lo + _GROUP, r))
            window = _windows(psi_rev[rows, N - s - L:].astype(np.int64), s)
            g[rows, ::-1] = _contract_mod("ktj,kj->kt", window, f[rows, :s], pr[rows, None])
        # then the triangle, sum_{s<=i<m} psi_(m-i) f_i, and the division by m
        leaves = np.ones((r, _CHUNK), dtype=np.int64)
        leaves[:, :e - s] = np.arange(s, e)
        inv = _inverses(leaves, pr, product_inv[:r, c:c + 1])
        H, hd = head.shape[1], head[:r]
        g[:, 0] = g[:, 0] * inv[:, 0] % pr
        for t in range(1, e - s):
            g[:, t] = (g[:, t] + _contract_mod("kj,kj->k", g[:, :t], hd[:, H - t:], pr)) * inv[:, t] % pr
        f[:r, s:e] = g
        del g, inv, leaves
        limbs = _limbs(plan.rows(f[1:r, s:e].T))
        audit = _residue_rows(limbs, pf[:1], audit_radix)[:, 0]
        if not np.array_equal(audit, f[0, s:e]):
            m = s + int(np.flatnonzero(audit != f[0, s:e])[0])
            raise TruncationMismatch(f"f_{m} disagrees with its residue modulo {_AUDIT_PRIME}")
        known.append(limbs)
    del psi_rev, f, head  # the tables go before the ints are made
    return tuple(v for limbs in known for v in _from_limbs(limbs))
