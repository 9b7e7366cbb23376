"""Exact polynomial-in-q arithmetic."""

from fractions import Fraction

import pytest

from fqtcount.qpoly import QPoly


def test_construction_and_evaluation():
    p = QPoly((Fraction(1), Fraction(2), Fraction(3)))  # 1 + 2q + 3q^2
    assert p.degree == 2
    assert p(1) == 6
    assert p(Fraction(1, 2)) == Fraction(1) + 1 + Fraction(3, 4)
    assert p.coefficient(1) == 2
    assert p.coefficient(7) == 0


def test_from_const_and_q_power():
    assert QPoly.from_const(5)(3) == 5
    assert QPoly.q_power(3)(2) == 8
    assert QPoly.q_power(2, Fraction(1, 2))(3) == Fraction(9, 2)


def test_ring_operations_match_evaluation():
    a = QPoly((Fraction(1), Fraction(-1), Fraction(2)))
    b = QPoly((Fraction(0), Fraction(3)))
    for q in (2, 3, Fraction(5, 7), -1):
        assert (a + b)(q) == a(q) + b(q)
        assert (a - b)(q) == a(q) - b(q)
        assert (a * b)(q) == a(q) * b(q)
        assert (-a)(q) == -a(q)
        assert (a**3)(q) == a(q) ** 3


def test_scalar_coercion():
    a = QPoly((Fraction(1), Fraction(1)))
    assert (a + 1)(5) == 7
    assert (2 * a)(5) == 12
    assert (a / 2)(5) == 3
    assert (1 - a)(5) == -5


def test_arithmetic_strips_trailing_zeros():
    a = QPoly((Fraction(1), Fraction(2), Fraction(3)))
    b = QPoly((Fraction(0), Fraction(0), Fraction(3)))
    assert (a - b).degree == 1
    assert (a - a) == QPoly.from_const(0)
    assert QPoly.from_const(0) == QPoly(())
    assert QPoly(()).leading_coefficient == 0


def test_equality_and_hash():
    a = QPoly((Fraction(1), Fraction(2)))
    b = QPoly.from_const(1) + QPoly.q_power(1, 2)
    assert a == b
    assert hash(a) == hash(b)
    assert a != QPoly.from_const(1)


def test_power_requires_nonnegative_integer():
    a = QPoly((Fraction(1), Fraction(1)))
    with pytest.raises((ValueError, TypeError)):
        a ** (-1)


def test_numerator_and_denominator():
    a = QPoly((Fraction(1, 2), Fraction(0), Fraction(-5, 6)))
    assert a.denominator == 6
    assert a.numerator == QPoly((3, 0, -5))
    assert all(type(c) is int for c in a.numerator.coeffs)
    assert a.numerator / a.denominator == a
    assert QPoly(()).denominator == 1 and QPoly(()).numerator == QPoly(())


def test_integer_coefficients_stay_ints():
    a, b = QPoly((2, -1)), QPoly((0, 3, 1))
    for value in (a * b, a + b, a - b, 3 * a, a * 0, b + 1, a**3):
        assert all(type(c) is int for c in value.coeffs)
    assert (a * b)(2) == a(2) * b(2)
