from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from conftest import grlex_key, linear_form_order

from coxbasis.errors import CoxBasisError, DegreeOverflow
from coxbasis.poly import (MAX_DEGREE, Poly, monomials_of_degree, poly_to_json, product,
                           sample_points)
from coxbasis.scalars import Quad


def x_y() -> tuple[Poly, Poly]:
    return Poly.variable(2, 0), Poly.variable(2, 1)


def random_poly(rng: random.Random, nvars: int, max_deg: int, nterms: int) -> Poly:
    out = Poly.zero(nvars)
    for _ in range(nterms):
        exps = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        out = out + Poly.monomial(nvars, exps, Fraction(rng.randint(-5, 5)))
    return out


def test_constructors_and_arithmetic():
    x, y = x_y()
    one = Poly.constant(2, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert p.homogeneous_degree() == 2
    assert p.is_homogeneous()
    assert (x + one) ** 3 == x ** 3 + x ** 2 * 3 + x * 3 + one


def test_zero_polynomial_degree():
    z = Poly.zero(2)
    assert z.is_zero
    assert z.homogeneous_degree() is None
    assert z.is_homogeneous()


def test_partial_derivative():
    x, y = x_y()
    p = x ** 3 * y + y ** 2
    assert p.partial(0) == x ** 2 * y * 3
    assert p.partial(1) == x ** 3 + y * 2


def test_substitute_is_ring_hom():
    rng = random.Random(7)
    x, y = x_y()
    one = Poly.constant(2, 1)
    sub = [x + y * 2, x * x - one]
    for _ in range(20):
        p = random_poly(rng, 2, 3, 4)
        q = random_poly(rng, 2, 3, 4)
        assert (p * q).substitute(sub) == p.substitute(sub) * q.substitute(sub)
        assert (p + q).substitute(sub) == p.substitute(sub) + q.substitute(sub)


def test_divrem_identity_and_remainder_reduced():
    rng = random.Random(3)
    for _ in range(30):
        f = random_poly(rng, 2, 4, 5)
        g = random_poly(rng, 2, 2, 3)
        if g.is_zero:
            continue
        q, r = f.divrem(g)
        assert q * g + r == f
        lt = g.leading_term()[0]
        for exps in r.terms:
            assert not all(e >= le for e, le in zip(exps, lt))


def test_divrem_exact_and_inexact():
    x, y = x_y()
    one = Poly.constant(2, 1)
    p = (x + y) * (x * x + y)
    assert p.divrem(x + y) == (x * x + y, Poly.zero(2))
    _, remainder = (x * x + one).divrem(x + y)
    assert not remainder.is_zero


def test_division_by_linear_forms_chain():
    # x^2*y - y^3 = y(x-y)(x+y), so each factor divides exactly once.
    x, y = x_y()
    p = x * x * y - y ** 3
    assert linear_form_order(p, x - y) == 1
    assert linear_form_order(p, x + y) == 1
    assert linear_form_order(p, y) == 1
    assert linear_form_order(p, x) == 0
    assert linear_form_order(Poly.zero(2), x - y) == float("inf")
    assert linear_form_order((x - y) ** 4 * y, x - y) == 4


def test_linear_form_order_rejects_nonlinear():
    x, y = x_y()
    with pytest.raises(ValueError):
        linear_form_order(x, x * y)
    with pytest.raises(ValueError):
        linear_form_order(x, Poly.zero(2))
    with pytest.raises(ValueError):
        linear_form_order(x, x + Poly.constant(2, 1))
    with pytest.raises(ValueError):
        linear_form_order(x * y, Poly.variable(3, 0))


def test_grlex_order():
    # Degree first, then lexicographic on exponents: the reference key, and
    # the order of the leading term and the term list, which the keys give
    assert grlex_key((0, 2)) < grlex_key((3, 0))
    assert grlex_key((1, 1)) < grlex_key((2, 0))
    assert grlex_key((0, 3)) < grlex_key((1, 2))
    monos = [(0, 2), (3, 0), (1, 1), (2, 0), (0, 3), (1, 2), (0, 0)]
    p = Poly(2, {e: 1 for e in monos})
    expected = [(3, 0), (1, 2), (0, 3), (2, 0), (1, 1), (0, 2), (0, 0)]
    assert sorted(monos, key=grlex_key, reverse=True) == expected
    assert [tuple(e) for e, _ in poly_to_json(p)] == expected
    assert p.leading_term() == ((3, 0), 1)


def test_a_degree_past_the_exponent_fields_raises():
    # two monomials whose product's degree is one past what a key holds
    half = MAX_DEGREE // 2 + 1
    x, y = Poly.monomial(2, (half, 0)), Poly.monomial(2, (0, half))
    with pytest.raises(DegreeOverflow, match="product of degree %d" % (2 * half)):
        x * y
    with pytest.raises(DegreeOverflow):
        x ** 2
    with pytest.raises(DegreeOverflow, match="monomial of degree %d" % (MAX_DEGREE + 1)):
        Poly.monomial(3, (MAX_DEGREE, 0, 1))
    assert issubclass(DegreeOverflow, CoxBasisError)
    # up to MAX_DEGREE every exponent stays in its own field
    top = Poly.monomial(2, (half - 1, 0)) * Poly.monomial(2, (half - 1, 1))
    assert top.terms == {(MAX_DEGREE - 1, 1): 1} and top.homogeneous_degree() == MAX_DEGREE
    assert (top.partial(1), top.partial(0).terms) == (Poly.monomial(2, (MAX_DEGREE - 1, 0)),
                                                      {(MAX_DEGREE - 2, 1): MAX_DEGREE - 1})
    with pytest.raises(ValueError, match="negative exponent"):
        Poly.monomial(2, (2, -1))


def test_monomials_of_degree():
    mons = list(monomials_of_degree(2, 3))
    assert mons == [(3, 0), (2, 1), (1, 2), (0, 3)]
    assert len(list(monomials_of_degree(3, 4))) == 15


def test_leading_term_and_monic():
    x, y = x_y()
    p = x * y * 3 + y ** 2 * 6
    assert p.leading_term() == ((1, 1), Fraction(3))
    assert p.monic() == x * y + y ** 2 * 2


def test_homogeneous_detection():
    x, y = x_y()
    assert (x * y + y ** 2).is_homogeneous()
    assert (x * y + y ** 2).homogeneous_degree() == 2
    assert not (x + y ** 2).is_homogeneous()


def test_product_helper():
    x, y = x_y()
    assert product([x, y, x + y], 2) == x * y * (x + y)
    assert product([], 2) == Poly.constant(2, 1)


def test_repr_is_the_json_term_list():
    x, y = x_y()
    p = x ** 2 - y * 2 + Poly.constant(2, Fraction(1, 3))
    assert repr(p) == "Poly(2, [[[2, 0], '1'], [[0, 1], '-2'], [[0, 0], '1/3']])"
    assert repr(Poly.zero(2)) == "Poly(2, [])"
    assert repr(x * Quad(1, 1, 5)) == "Poly(2, [[[1, 0], '1+sqrt(5)']])"


def test_evaluate_matches_substitution_by_constants():
    rng = random.Random(5)
    for _ in range(5):
        p = random_poly(rng, 3, 3, 6) * Poly.constant(3, Quad(1, 1, 5))
        point = [rng.randint(-4, 4), rng.randint(-4, 4), 2]
        constants = [Poly.constant(1, c) for c in point]
        assert p.substitute(constants) == Poly.constant(1, p.evaluate(point))
    x, y = x_y()
    with pytest.raises(ValueError):
        (x + y).evaluate([1])
    # evaluation reads integer points only, an integral Fraction included
    for point in ([Fraction(1, 2), 1], [Fraction(2), 1], [Quad(0, 1, 5), 1]):
        with pytest.raises(ValueError):
            (x + y).evaluate(point)


def test_sample_points_are_one_fixed_stream_of_small_integer_points():
    first = list(itertools.islice(sample_points(2), 200))
    assert first[:3] == [(-9, 7), (1, 9), (-6, -1)]
    assert first == list(itertools.islice(sample_points(2), 200))
    assert all(type(c) is int and -9 <= c <= 9 for point in first for c in point)
    # the stream meets a form's zero set, so its users skip such points
    assert (0, -9) in first
    assert next(sample_points(3)) == (-9, 7, 1)
    # up to four variables the stream is the seeded draw in [-9, 9] itself
    for nvars in (2, 3, 4):
        rng = random.Random(2002)
        expected = [tuple(rng.randint(-9, 9) for _ in range(nvars)) for _ in range(200)]
        assert list(itertools.islice(sample_points(nvars), 200)) == expected
