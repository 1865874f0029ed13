from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from coxbasis.scalars import Quad, format_scalar, parse_scalar


def as_float(v) -> float:
    if isinstance(v, Quad):
        return float(v.a) + float(v.b) * math.sqrt(v.d)
    return float(v)


def test_quad_demotes_rational_results():
    r5 = Quad(0, 1, 5)
    prod = r5 * r5
    assert isinstance(prod, Fraction)
    assert prod == 5
    diff = r5 - r5
    assert isinstance(diff, Fraction)
    assert diff == 0


def test_quad_arithmetic_against_numeric_model():
    rng = random.Random(11)
    for _ in range(200):
        a1, b1, a2, b2 = (Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4))
        x = Quad(a1, b1, 2)
        y = Quad(a2, b2, 2)
        fx, fy = as_float(x), as_float(y)
        assert abs(as_float(x + y) - (fx + fy)) < 1e-9
        assert abs(as_float(x * y) - fx * fy) < 1e-9
        assert abs(as_float(x - y) - (fx - fy)) < 1e-9
        if y:
            assert abs(as_float(x / y) - fx / fy) < 1e-9


def test_quad_promotes_rationals():
    r2 = Quad(0, 1, 2)
    assert 1 + r2 == Quad(1, 1, 2)
    assert Fraction(1, 2) * r2 == Quad(0, Fraction(1, 2), 2)
    assert 2 - r2 == Quad(2, -1, 2)
    assert (1 / r2) * r2 == 1


def test_quad_inverse():
    x = Quad(Fraction(3), Fraction(-2), 5)
    assert x * x.inverse() == 1
    assert 1 / x == x.inverse()
    with pytest.raises(ZeroDivisionError):
        Quad(0, 0, 5).inverse()


def test_quad_sign_and_ordering():
    assert Quad(1, -1, 2).sign() == -1  # 1 < sqrt(2)
    assert Quad(3, -2, 2).sign() == 1  # 3 > 2*sqrt(2) since 9 > 8
    assert Quad(2, -1, 5).sign() == -1  # 2 < sqrt(5)
    assert Quad(0, 0, 2).sign() == 0
    assert Quad(1, 1, 2) > 2
    assert Quad(1, 1, 2) < Fraction(5, 2)
    assert Quad(0, 1, 2) < Quad(0, 1, 2) + Fraction(1, 10)


def test_quad_power():
    r2 = Quad(0, 1, 2)
    assert (1 + r2) ** 2 == Quad(3, 2, 2)
    assert r2 ** 4 == 4
    assert r2 ** 0 == 1


def test_quad_hash_matches_fraction_on_rationals():
    assert hash(Quad(Fraction(3, 2), 0, 5)) == hash(Fraction(3, 2))
    assert Quad(Fraction(3, 2), 0, 5) == Fraction(3, 2)


def test_format_and_parse_round_trip():
    values = [
        Fraction(0),
        Fraction(-7, 3),
        Quad(Fraction(1, 2), Fraction(3, 4), 5),
        Quad(0, Fraction(-2), 2),
        Quad(Fraction(-1), Fraction(1), 2),
        Quad(Fraction(2, 3), Fraction(-1), 5),
    ]
    for v in values:
        assert parse_scalar(format_scalar(v)) == v


@pytest.mark.parametrize("text", ["1/0", "-3/0", "1/0+sqrt(5)", "1/0*sqrt(5)",
                                  "sqrt(4)", "2-sqrt(4)", "1+3*sqrt(9)", "sqrt(0)",
                                  "sqrt(1000000000001)", "sqrt(%d)" % 999983 ** 2,
                                  "1e999999999", "1e999999999+sqrt(5)", "0.5", "1_000", "+3",
                                  "1/2/3", "nan", "inf", "1 2", "sq rt(5)", "3*-sqrt(5)",
                                  "-3*-sqrt(5)", "1+-3*sqrt(5)", "+sqrt(5)"])
def test_parse_rejects_zero_denominator_and_square_radicand(text):
    with pytest.raises(ValueError):
        parse_scalar(text)


def test_parse_takes_squares_out_of_the_radicand():
    assert parse_scalar("sqrt(8)") == parse_scalar("2*sqrt(2)")
    assert parse_scalar("1-3/2*sqrt(12)") == Quad(1, -3, 3)
    assert parse_scalar("-sqrt(50)") == Quad(0, -5, 2)
    # near the largest radicand, and two primes above its cube root
    assert parse_scalar("sqrt(999999999999)") == Quad(0, 3, 111111111111)
    assert parse_scalar("sqrt(%d)" % (999983 * 999979)) == Quad(0, 1, 999983 * 999979)
    assert parse_scalar("sqrt(%d)" % (6 * 99991 ** 2)) == Quad(0, 99991, 6)


def test_format_examples():
    assert format_scalar(Fraction(-3, 4)) == "-3/4"
    assert format_scalar(Quad(0, 1, 5)) == "sqrt(5)"
    assert format_scalar(Quad(Fraction(1, 2), Fraction(3, 4), 5)) == "1/2+3/4*sqrt(5)"
    assert format_scalar(Quad(1, -1, 2)) == "1-sqrt(2)"


def test_mixed_radicand_rejected():
    with pytest.raises(ValueError):
        Quad(0, 1, 2) + Quad(0, 1, 5)
