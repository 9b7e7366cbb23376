"""Per-class prime counts for any modulus m, in the character basis.

The method and the proof that it is exact are in the primecounts module
docstring ("The character basis"); this module builds the unit group
and its characters.  primecounts imports it when it first tabulates an
m, so a run that counts no progression does not compile it.  Every
product mod P^e here, in the walks that build the log tables and in
the index of a residue, is one call of ffield._residues, the package's
one batched residue map.

The unit group.  By CRT, G = (F_q[T]/m)^* is the product over the P^e
exactly dividing m of U = (F_q[T]/P^e)^*, and U is the direct product of
these cyclic groups (d = deg P, q = p^k, Y the generator of F_q over F_p,
so Y^s has element code p^s):

* <h>, h = g^(q^(d(e-1))) mod P^e, of order q^d - 1, for g a generator
  of the units mod P;
* <1 + Y^s T^i P^j> for s < k, i < d and 1 <= j < e with p not dividing
  j, of order p^(c_j), c_j the least c with j p^c >= e (so c_j >= 1).

Proof.  h = g mod P, as x^(q^d) = x in F_(q^d), and h^(q^d - 1) = g^|U|
= 1, so h has order q^d - 1.  U_1 = 1 + P F_q[T]/P^e has q^(d(e-1))
elements, prime to q^d - 1, so U = <h> x U_1.  Let U_i = 1 + P^i F_q[T]/P^e;
1 + a P^i -> a mod P maps U_i/U_(i+1) isomorphically onto the additive
group of F_(q^d).  In characteristic p, (1 + a P^j)^(p^c) =
1 + a^(p^c) P^(j p^c), which is 1 once j p^c >= e and otherwise lies in
U_(j p^c) with image a^(p^c) mod P.  Every i in [1, e) is j p^c for one j
prime to p and one c < c_j, and as Frobenius is a field automorphism the
p^c-th powers of the F_p-basis Y^s T^i of F_(q^d) are again a basis.  So
the p^c-th powers of the generators of index j cover U_i/U_(i+1), and
dividing out their product, level by level down to U_e = 1, writes any
element of U_1 in the generators: they generate U_1.  Their orders
divide p^(c_j), and multiply to p^(kd sum_j c_j) = q^(d(e-1)) = |U_1|, as
the pairs (j, c) with c < c_j are the e - 1 levels.  The exponent map from
the product of the cyclic groups onto U_1 is thus a bijection: U_1 is
their direct product and each generator has order exactly p^(c_j).
CharacterGroup asserts the same of the tables it builds: the products of
the generators' powers are |U| distinct residues.
"""

from __future__ import annotations

import math

import numpy as np

from . import ffield, series
from .errors import NegativeCount, NotCoprime
from .ffield import FieldSpec, MonicPoly
from .numtheory import _factor, is_prime


def _walk(field: FieldSpec, modulus: tuple[int, ...], walk: np.ndarray,
          r: tuple[int, ...], n: int) -> np.ndarray:
    """The codes of walk times r^t mod modulus for t < n, with t the leading
    axis, by doubling: the products for t in [s, 2s) are those for t < s
    times r^s, by ffield._residues."""
    size, deg = len(walk), len(modulus) - 2  # residues have degree <= deg
    while len(walk) < n * size:
        walk = np.concatenate([walk, ffield._residues(field, modulus, walk, deg, r)])
        r = ffield.poly_mod(field, ffield.poly_mul(field, r, r), modulus)
    return walk[:n * size]


_CHARACTER_FLOOR = 1 << 25  # every prime l lies in (2^25, 2^26): l > phi
_CHARACTER_PRIMES: dict[int, tuple[list[int], list[int]]] = {}  # e -> (primes, roots)


def _root_of_unity(ell: int, e: int) -> int:
    """An element of order exactly e modulo the prime ell = 1 (mod e)."""
    for g in range(2, ell):
        w = pow(g, (ell - 1) // e, ell)
        if all(pow(w, e // r, ell) != 1 for r, _ in _factor(e)):
            return w
    raise AssertionError(f"no element of order {e} mod {ell}")


def _character_primes(e: int, bound: int) -> tuple[list[int], list[int]]:
    """The fewest of the largest primes l < 2^26 with l = 1 (mod e) whose
    product exceeds bound, each with a root of unity of order e mod l.

    Found by testing l = 1 + k e downwards and kept per e, as many as asked.
    """
    ells, roots = _CHARACTER_PRIMES.setdefault(e, ([], []))
    count, product = 0, 1
    while product <= bound:
        if count == len(ells):
            ell = ells[-1] - e if ells else (series._PRIME_CEILING - 2) // e * e + 1
            while ell > _CHARACTER_FLOOR and not is_prime(ell):
                ell -= e
            if ell <= _CHARACTER_FLOOR:
                raise ValueError(f"class counts of {bound.bit_length()} bits exceed the "
                                 f"primes 1 mod {e} between 2^25 and 2^26")
            ells.append(ell)
            roots.append(_root_of_unity(ell, e))
        product *= ells[count]
        count += 1
    return ells[:count], roots[:count]


def _fill_powers(out: np.ndarray, base: np.ndarray, ell: np.ndarray) -> None:
    """out[i, t] = base[i]^t mod ell[i], given out[:, 0] = 1, by doubling:
    the powers t in [s, 2s) are those below s times base^s."""
    step = base % ell
    s = 1
    while s < out.shape[1]:
        width = min(s, out.shape[1] - s)
        out[:, s:s + width] = out[:, :width] * step[:, None] % ell[:, None]
        step = step * step % ell
        s *= 2


class CharacterGroup:
    """The unit group of F_q[T]/(m), as the product over the P^e exactly
    dividing m of the cyclic factors of (F_q[T]/P^e)^* (see the module
    docstring), of orders n_i in one flat list.

    A unit's index is its log vector (l_i), each log to the generator of
    its factor, flattened in C order.  The character of index (k_i)
    sends it to w^(sum_i k_i l_i e / n_i), for w of order e = lcm(n_i).
    """

    def __init__(self, field: FieldSpec, m: MonicPoly,
                 factors: tuple[tuple[MonicPoly, int], ...]):
        self.field, self.m = field, m
        self.primes = [P for P, _ in factors]
        self._tables = [self._unit_table(P, e) for P, e in factors]  # (P^e, orders, log)
        self.orders = [n for _, orders, _ in self._tables for n in orders]
        self.order = math.prod(self.orders)
        self.exponent = math.lcm(*self.orders)
        self._k = np.indices(self.orders).reshape(len(self.orders), -1)  # k_i of each character

    def _unit_table(self, P: MonicPoly, e: int) -> tuple[tuple[int, ...], list[int], np.ndarray]:
        """P^e, the cyclic orders of (F_q[T]/P^e)^* (the 1-units' first, h's
        last) and the index of each residue code mod P^e (-1 for a non-unit).

        Candidates g run by code, and g generates the units mod P when no
        power of its lift h but h^0 is 1.  The walk then starts from the
        powers of h and takes each 1-unit generator, last first, as its new
        leading axis, so a unit's place in it is its index.  The assertion
        checks that the walk holds every unit once.
        """
        field, p, q, d = self.field, self.field.p, self.field.q, P.degree
        one_units, P_j = [], (1,)
        for j in range(1, e):
            P_j = ffield.poly_mul(field, P_j, P.coeffs)
            if j % p:
                c = 1
                while j * p**c < e:
                    c += 1
                one_units += [(ffield._poly_add(field, (1,), ffield.poly_mul(
                    field, (0,) * i + (p**s,), P_j)), p**c)
                    for i in range(d) for s in range(field.k)]
        modulus, n = ffield.poly_mul(field, P_j, P.coeffs), q**d - 1
        for code in range(1, q**d):
            h = ffield._pow_mod(field, ffield.coeffs_of_code(field, code), q**(d * (e - 1)),
                                modulus)
            walk = _walk(field, modulus, np.ones(1, dtype=np.int64), h, n)
            if not (walk[1:] == 1).any():
                break
        else:
            raise AssertionError(f"no generator of the units mod {ffield.poly_to_string(P)}")
        for r, order in reversed(one_units):
            walk = _walk(field, modulus, walk, r, order)
        index = np.arange(len(walk))
        log = np.full(q**(d * e), -1, dtype=np.int64)
        log[walk] = index
        # a residue the walk meets twice keeps only one of its places
        assert len(walk) == q**(d * e) - q**(d * (e - 1)) and (log[walk] == index).all(), \
            f"the generators mod ({ffield.poly_to_string(P)})^{e} do not index each unit once"
        return modulus, [order for _, order in one_units] + [n], log

    def index(self, codes: np.ndarray) -> np.ndarray:
        """The unit index of each residue code (degree < deg m), -1 for a non-unit."""
        flat = np.zeros(len(codes), dtype=np.int64)
        unit = np.ones(len(codes), dtype=bool)
        for modulus, orders, log in self._tables:
            logs = log[ffield._residues(self.field, modulus, codes, self.m.degree - 1)]
            unit &= logs >= 0
            flat = flat * math.prod(orders) + logs
        return np.where(unit, flat, -1)

    def exponents(self, index: int) -> np.ndarray:
        """sum_i k_i l_i e / n_i mod e for every character k, at the unit of that index."""
        logs = np.unravel_index(index, self.orders)
        e = self.exponent
        return sum(self._k[i] * (logs[i] * (e // n)) for i, n in enumerate(self.orders)) % e

    def power(self, t: int) -> np.ndarray:
        """The index of chi^t for every character chi."""
        orders = np.array(self.orders)[:, None]
        return np.ravel_multi_index(t * self._k % orders, self.orders)


class CharacterTable:
    """Exact prime counts per coprime residue class mod m, in the
    character basis (see the primecounts module docstring).

    The table keeps psi_n(chi) modulo its primes for every character and
    n = 1..N, built in one pass, and rebuilt when a larger N is asked;
    the counts of one class are kept until then.
    """

    def __init__(self, field: FieldSpec, m: MonicPoly,
                 factors: tuple[tuple[MonicPoly, int], ...]):
        self.group = group = CharacterGroup(field, m, factors)
        self.field, self.m = field, m
        sizes = [field.q**j for j in range(m.degree)]
        codes = np.concatenate([np.arange(s, 2 * s) for s in sizes])  # the monic f, deg f < deg m
        degree = np.repeat(np.arange(m.degree), sizes)
        index = group.index(codes)
        unit = index >= 0
        self._hist = np.bincount(degree[unit] * group.order + index[unit],
                                 minlength=m.degree * group.order).reshape(m.degree, -1)
        self._psi = np.zeros((0, 0, group.order), dtype=np.int32)  # psi_n(chi), n = 1..N
        self._ells: list[int] = []
        self._wpow = np.ones((0, group.exponent), dtype=np.int64)  # w^t mod each prime
        self._counts: dict[int, list[int]] = {}

    def _transform(self, ell: int, wpow: np.ndarray) -> np.ndarray:
        """c_j(chi) mod ell, j < deg m, for every chi: the histograms
        transformed one cyclic factor at a time, in blocks of about 2^20
        entries of the (symmetric) transform matrix."""
        group, e = self.group, self.group.exponent
        out = self._hist.reshape(-1, *group.orders)
        for axis, n in enumerate(group.orders, start=1):
            moved = np.moveaxis(out, axis, -1)
            rows = moved.reshape(-1, n)
            res = np.empty_like(rows)
            t = np.arange(n)
            step = max(1, (1 << 20) // n)
            for lo in range(0, n, step):
                matrix = wpow[np.outer(t[lo:lo + step], t) % n * (e // n)]
                res[:, lo:lo + step] = series._contract_mod("rl,kl->rk", rows, matrix, ell)
            out = np.moveaxis(res.reshape(moved.shape), -1, axis)
        return out.reshape(len(self._hist), group.order)

    def _build(self, N: int) -> None:
        """psi_n(chi) for n = 1..N modulo the primes that 2 q^N asks for."""
        group, q, d = self.group, self.field.q, self.m.degree
        ells, roots = _character_primes(group.exponent, 2 * q**N)
        ell = np.array(ells, dtype=np.int64)
        wpow = np.ones((len(ells), group.exponent), dtype=np.int64)
        _fill_powers(wpow, np.array(roots, dtype=np.int64), ell)
        c = np.stack([self._transform(l, w) for l, w in zip(ells, wpow)], axis=1)
        self._psi = None  # the old table goes before the new one is made
        # residues below 2^26 are stored as int32; the products are formed in int64
        psi = np.zeros((N + 1, len(ells), group.order), dtype=np.int32)
        col = ell[:, None]
        # Newton's identities, psi_n = n c_n - sum_{i=1}^{n-1} c_i psi_(n-i), and from
        # n = deg m on, where c_n = 0, of order deg m - 1
        for n in range(1, min(N, d - 1) + 1):
            psi[n] = (n * c[n] - (c[n - 1:0:-1] * psi[1:n]).sum(axis=0)) % col
        back = -c[:0:-1]  # -c_(d-1), ..., -c_1 against psi_(n-d+1), ..., psi_(n-1)
        for n in range(d, N + 1):
            psi[n] = np.einsum("ipx,ipx->px", back, psi[n - d + 1:n]) % col
        qn = np.ones((N + 1, len(ells)), dtype=np.int64)
        _fill_powers(qn.T, q % ell, ell)
        corr = np.zeros(N + 1, dtype=np.int64)
        for P in group.primes:
            corr[::P.degree] += P.degree
        psi[:, :, 0] = (qn - corr[:, None]) % ell
        self._psi, self._ells, self._wpow = psi[1:], ells, wpow
        self._counts = {}

    def _class_counts(self, a_code: int) -> list[int]:
        """pi(n; a) for n = 1..N, rebuilt by one CRT plan over all the table's
        primes, in blocks of 64 degrees, from

            phi n pi(n; a) = sum_chi conj(chi(a)) n Pi_n(chi)
                           = sum_{e t = n} mu(e) sum_chi conj(chi(a)) psi_t(chi^e)

        modulo each prime.  The inner sum depends on e only through chi^e,
        that is through e mod the exponent, so it is formed once per residue
        of e, to the largest t that residue needs.  The primes' product M
        exceeds 2 q^N, and |n pi(n; a)| <= q^n < M/2, so the one plan
        rebuilds every degree."""
        group, exponent = self.group, self.group.exponent
        index = int(group.index(np.array([a_code]))[0])
        if index < 0:
            raise NotCoprime("residue is not coprime to the modulus")
        N = len(self._psi)
        ell = np.array(self._ells, dtype=np.int64)
        conj = self._wpow[:, -group.exponents(index) % exponent]
        mu = series._mobius_table(N)
        inner: dict[int, np.ndarray] = {}
        sums = np.zeros((N + 1, len(ell)), dtype=np.int64)
        for e in range(1, N + 1):
            if mu[e]:
                r = e % exponent
                if r not in inner:  # in chunks of rows, as psi is cast to int64
                    power, rows = group.power(r), self._psi[:N // e]
                    inner[r] = np.concatenate([
                        series._contract_mod("tpx,px->tp",
                                             rows[lo:lo + series._CHUNK][:, :, power], conj, ell)
                        for lo in range(0, len(rows), series._CHUNK)])
                sums[e::e] += mu[e] * inner[r][:N // e]
        sums = sums[1:] % ell * np.array([pow(group.order, -1, l) for l in self._ells]) % ell
        plan, out = series._CrtPlan(self._ells), []
        for lo in range(0, N, series._CHUNK):  # in blocks, so the CRT's tables stay small
            for n, value in enumerate(plan.rows(sums[lo:lo + series._CHUNK]), start=lo + 1):
                count, rem = divmod(value, n)
                if rem or count < 0:
                    raise NegativeCount(
                        f"class prime count at degree {n} is not a nonnegative integer")
                out.append(count)
        return out

    def counts(self, a_code: int, N: int) -> list[int]:
        """pi(n; a) for n = 1..N; a table shorter than N is rebuilt to N."""
        if N > len(self._psi):
            self._build(N)
        counts = self._counts.get(a_code)
        if counts is None:
            counts = self._counts[a_code] = self._class_counts(a_code)
        return counts[:N]

    def count(self, n: int, a_code: int) -> int:
        """pi(n; a) alone; a table too short is rebuilt to twice its
        length, and at least to n, so degrees asked one at a time rebuild
        it O(log n) times."""
        built = len(self._psi)
        return self.counts(a_code, n if n <= built else max(n, 2 * built))[n - 1]
