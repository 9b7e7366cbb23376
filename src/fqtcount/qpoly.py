"""Univariate polynomials in a formal symbol q with exact rational coefficients.

These are used as a second coefficient ring for the truncated-series
algorithms, so that counts can be computed symbolically in q.  Only the
ring operations the series engine needs are provided: addition,
multiplication, scalar division, powers and evaluation.  Coefficients
are ints or Fractions: like a Fraction, a QPoly has a denominator (the
lcm of its coefficients' denominators) and a numerator (itself times
that, integer coefficients).  Ring operations on integer-coefficient
QPolys and ints stay in ints, and so do the monomials q_power(n, k) of an
int k, so the norm families' psi with q left symbolic is built without
a Fraction.  Scalar division leaves zero coefficients as they are.

Trailing zero coefficients are stripped once, on construction, so the
zero polynomial has the empty tuple whichever operation made it: it
equals 0, hashes as 0 and prints as "0".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot coerce {value!r} to an exact rational")


@dataclass(frozen=True, eq=False)
class QPoly:
    """Polynomial in q, coefficients low-to-high, no trailing zeros."""

    coeffs: tuple[Fraction | int, ...]

    def __post_init__(self):
        if self.coeffs and not self.coeffs[-1]:
            object.__setattr__(self, "coeffs", _strip(self.coeffs))

    @staticmethod
    def from_const(value) -> "QPoly":
        return QPoly((_as_fraction(value),))

    @staticmethod
    def q_power(n: int, scale=1) -> "QPoly":
        """The monomial scale * q^n; an int scale gives int coefficients."""
        c = scale if isinstance(scale, int) else _as_fraction(scale)
        return QPoly((0,) * n + (c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    @property
    def denominator(self) -> int:
        return math.lcm(*(c.denominator for c in self.coeffs))

    @property
    def numerator(self) -> "QPoly":
        d = self.denominator
        return QPoly(tuple(d // c.denominator * c.numerator for c in self.coeffs))

    def coefficient(self, i: int) -> Fraction | int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __call__(self, q) -> Fraction:
        value = Fraction(0)
        for c in reversed(self.coeffs):
            value = value * q + c
        return value

    def _coerce(self, other) -> "QPoly | None":
        if isinstance(other, QPoly):
            return other
        if isinstance(other, int):
            return QPoly((other,))
        if isinstance(other, Fraction):
            return QPoly.from_const(other)
        return None

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        # a constant hashes as the scalar it equals, zero (no coefficient) as 0
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    def __add__(self, other) -> "QPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QPoly(tuple(a + b for a, b in zip_longest(self.coeffs, o.coeffs, fillvalue=0)))

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return QPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "QPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "QPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "QPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.coeffs or not o.coeffs:
            return QPoly(())
        out = [0] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    out[i + j] += a * b
        return QPoly(tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QPoly":
        c = _as_fraction(other)
        if c == 0:
            raise ZeroDivisionError("division of QPoly by zero scalar")
        return QPoly(tuple(x / c if x else x for x in self.coeffs))

    def __pow__(self, e: int) -> "QPoly":
        if e < 0:
            raise ValueError("negative power of a QPoly")
        result = QPoly((1,))
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                parts.append(f"{head}q" if i == 1 else f"{head}q^{i}")
        return " + ".join(parts)

    __repr__ = __str__


def _strip(coeffs) -> tuple[Fraction, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)
