from __future__ import annotations

import random
from fractions import Fraction

import pytest

from coxbasis import poly
from coxbasis.derivations import Derivation, coefficient_matrix, euler_field, nabla
from coxbasis.poly import Poly
from coxbasis.verify import random_homogeneous_derivation


def test_apply_is_a_derivation():
    rng = random.Random(2)
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    one = Poly.constant(2, 1)
    p = x ** 2 + y
    q = x * y - one
    for _ in range(10):
        delta = random_homogeneous_derivation(2, rng.randint(0, 3), rng)
        # Leibniz rule.
        assert delta.apply(p * q) == delta.apply(p) * q + p * delta.apply(q)
        assert delta.apply(p + q) == delta.apply(p) + delta.apply(q)


def test_apply_normalizes_once(monkeypatch):
    # the products f_i * dp/dx_i are summed as numerators over one common
    # denominator, and only the sum is normalized
    x, y, z = (Poly.variable(3, i) for i in range(3))
    delta = Derivation([x * y * Fraction(1, 2), y ** 2 * Fraction(1, 3), z * x])
    p = x ** 2 * y + z ** 3 * Fraction(2, 5)
    calls = []

    def counting(nvars, d, num, den, original=poly._make):
        calls.append(den)
        return original(nvars, d, num, den)

    monkeypatch.setattr(poly, "_make", counting)
    out = delta.apply(p)
    assert len(calls) == 1
    monkeypatch.undo()
    assert out == (x * y * Fraction(1, 2) * x * y * 2 + y ** 2 * Fraction(1, 3) * x ** 2
                   + z * x * z ** 2 * Fraction(6, 5))


def test_euler_field_scales_by_degree():
    e = euler_field(3)
    p = Poly.monomial(3, (1, 2, 2), Fraction(5))
    assert e.apply(p) == p * 5
    assert e.degree() == 1


def test_coordinate_fields():
    d0 = Derivation.coordinate(2, 0)
    assert d0.apply(Poly.variable(2, 0) ** 3) == Poly.variable(2, 0) ** 2 * 3
    assert d0.apply(Poly.variable(2, 1)) == Poly.zero(2)
    assert d0.degree() == 0


def test_nabla_is_coefficientwise_application():
    # nabla(d1, d2) is characterized by (nabla_{d1} d2)(x_i) = d1(d2(x_i)).
    rng = random.Random(9)
    d1 = random_homogeneous_derivation(2, 1, rng)
    d2 = random_homogeneous_derivation(2, 2, rng)
    result = nabla(d1, d2)
    for i in range(2):
        xi = Poly.variable(2, i)
        assert result.apply(xi) == d1.apply(d2.apply(xi))


def test_nabla_euler_identities():
    rng = random.Random(13)
    e = euler_field(2)
    for deg in (0, 1, 2, 3):
        delta = random_homogeneous_derivation(2, deg, rng)
        assert nabla(delta, e) == delta
        assert nabla(e, delta) == delta * Fraction(deg)


def test_nabla_linearity():
    rng = random.Random(21)
    d1 = random_homogeneous_derivation(2, 1, rng)
    d2 = random_homogeneous_derivation(2, 1, rng)
    f = Poly.variable(2, 0) + Poly.variable(2, 1) * 2
    # Additive in both slots, function-linear in the first slot only.
    assert nabla(d1 + d2, f * d1) == nabla(d1, f * d1) + nabla(d2, f * d1)
    assert nabla(f * d1, d2) == f * nabla(d1, d2)


def test_degree_and_homogeneity():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    d = Derivation([x * y, y * y])
    assert d.is_homogeneous()
    assert d.degree() == 2
    mixed = Derivation([x, y * y])
    with pytest.raises(ValueError):
        mixed.degree()
    assert Derivation.zero(2).degree() is None


def test_arithmetic_and_matrix():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    d1 = Derivation([x, y])
    d2 = Derivation([y, x])
    total = d1 + d2
    assert total.coeffs == (x + y, x + y)
    assert (d1 - d1).is_zero
    assert (d1 * Fraction(2)).coeffs == (x * 2, y * 2)
    m = coefficient_matrix([d1, d2])
    assert m.rows == [[x, y], [y, x]]


def test_repr_lists_the_coefficient_reprs():
    x = Poly.variable(2, 0)
    d = Derivation([x * 2, Poly.zero(2)])
    assert repr(d) == "Derivation([Poly(2, [[[1, 0], '2']]), Poly(2, [])])"
