"""Per-class prime counts for a square-free modulus, in the character basis.

The method and the proof that it is exact are in the primecounts module
docstring ("The character basis").  primecounts imports this module when
it first tabulates a square-free m, so a run that counts no progression
does not compile it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate
from operator import mul

import numpy as np

from . import ffield, series
from .errors import NegativeCount, NotCoprime
from .ffield import FieldSpec, MonicPoly
from .numtheory import _factor, is_prime
from .primecounts import _times_matrix


def _times(field: FieldSpec, modulus: tuple[int, ...], codes: np.ndarray, n: int,
           r: tuple[int, ...] = (1,)) -> np.ndarray:
    """Codes of f r mod modulus for the polynomials f of degree <= n with the given codes."""
    digits = ffield._digits(codes, field.p, ffield._digit_count(field, n))
    return ffield._digit_product(digits, _times_matrix(field, modulus, n, r), field.p,
                                 ffield._code_powers(field, len(modulus) - 2))


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


def _contract_mod(spec: str, a: np.ndarray, b: np.ndarray, ell) -> np.ndarray:
    """np.einsum(spec, a, b) mod ell, for a spec that sums the last axis of
    both a and b (int64 residues below 2^26), in blocks of 2^11 products:
    a block plus a reduced partial sum stays below 2^63."""
    step = series._BLOCK
    acc = np.einsum(spec, a[..., :step], b[..., :step])
    for lo in range(step, a.shape[-1], step):
        acc = acc % ell + np.einsum(spec, a[..., lo:lo + step], b[..., lo:lo + step])
    return acc % ell


class CharacterGroup:
    """The unit group of F_q[T]/(m) for square-free m, as the product of
    the cyclic groups (F_q[T]/P)^*, of orders n_i, over the primes P | m.

    A unit's index is its log vector (l_i), each log to a generator of
    its factor, flattened in C order.  The character of index (k_i)
    sends it to w^(sum_i k_i l_i e / n_i), for w of order e = lcm(n_i).
    """

    def __init__(self, field: FieldSpec, m: MonicPoly, primes: list[MonicPoly]):
        self.field, self.m, self.primes = field, m, primes
        self.orders = [field.q**P.degree - 1 for P in primes]
        self.order = math.prod(self.orders)
        self.exponent = math.lcm(*self.orders)
        self._logs = [self._log_table(P.coeffs, n) for P, n in zip(primes, self.orders)]
        self._k = np.indices(self.orders).reshape(len(primes), -1)  # k_i of each character

    def _log_table(self, P: tuple[int, ...], n: int) -> np.ndarray:
        """log[c] = the log of the residue of code c mod P (-1 for 0).

        Candidates g run by code; the powers g^t, t < n, come by doubling,
        each half one digit product, and g generates when no power but
        g^0 is 1.
        """
        field, deg = self.field, len(P) - 1
        for code in range(1, field.q**deg):
            g = ffield.coeffs_of_code(field, code)
            walk, r = np.ones(1, dtype=np.int64), g
            while len(walk) < n:
                walk = np.concatenate([walk, _times(field, P, walk, deg - 1, r)])
                r = ffield.poly_mod(field, ffield.poly_mul(field, r, r), P)
            walk = walk[:n]
            if not (walk[1:] == 1).any():
                log = np.full(field.q**deg, -1, dtype=np.int64)
                log[walk] = np.arange(n)
                return log
        raise AssertionError(f"no generator of the units mod {ffield.poly_to_string(P)}")

    def index(self, codes: np.ndarray) -> np.ndarray:
        """The unit index of each residue code (degree < deg m), -1 for a non-unit."""
        flat = np.zeros(len(codes), dtype=np.int64)
        unit = np.ones(len(codes), dtype=bool)
        for P, n, log in zip(self.primes, self.orders, self._logs):
            logs = log[_times(self.field, P.coeffs, codes, self.m.degree - 1)]
            unit &= logs >= 0
            flat = flat * n + logs
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
    """Exact prime counts per coprime residue class for square-free m, in
    the character basis (see the primecounts module docstring).

    The table keeps psi_n(chi) modulo its primes for every character and
    n = 1..N, built in one pass, and rebuilt when a larger N is asked;
    the counts of one class are kept until then.
    """

    def __init__(self, field: FieldSpec, m: MonicPoly, primes: list[MonicPoly]):
        self.group = group = CharacterGroup(field, m, primes)
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
                res[:, lo:lo + step] = _contract_mod("rl,kl->rk", rows, matrix, ell)
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
        """pi(n; a) for n = 1..N, rebuilt by CRT in blocks of 64 degrees from

            phi n pi(n; a) = sum_chi conj(chi(a)) n Pi_n(chi)
                           = sum_{e t = n} mu(e) sum_chi conj(chi(a)) psi_t(chi^e)

        modulo each prime.  The inner sum depends on e only through chi^e,
        that is through e mod the exponent, so it is formed once per residue
        of e, to the largest t that residue needs."""
        group, q, exponent = self.group, self.field.q, self.group.exponent
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
                        _contract_mod("tpx,px->tp", rows[lo:lo + series._CHUNK][:, :, power],
                                      conj, ell)
                        for lo in range(0, len(rows), series._CHUNK)])
                sums[e::e] += mu[e] * inner[r][:N // e]
        sums = sums[1:] % ell * np.array([pow(group.order, -1, l) for l in self._ells]) % ell
        products = list(accumulate(self._ells, mul))
        out = []
        for lo in range(0, N, series._CHUNK):
            hi = min(N, lo + series._CHUNK)
            used = bisect_right(products, 2 * q**hi) + 1
            for n, value in enumerate(series._crt_rows(sums[lo:hi, :used], self._ells[:used]),
                                      start=lo + 1):
                count, rem = divmod(value, n)
                if rem or count < 0:
                    raise NegativeCount(
                        f"class prime count at degree {n} is not a nonnegative integer")
                out.append(count)
        return out

    def count(self, n: int, a_code: int, upto: int = 0) -> int:
        """pi(n; a); a table too short is rebuilt to degree upto, or
        failing that to twice its length, and at least to n."""
        built = len(self._psi)
        if n > built:
            self._build(upto if upto >= n else max(n, 2 * built))
        counts = self._counts.get(a_code)
        if counts is None:
            counts = self._counts[a_code] = self._class_counts(a_code)
        return counts[n - 1]
