from __future__ import annotations

import functools
import random
from fractions import Fraction

import pytest

from conftest import (coefficient, invariant_basis, is_invariant_derivation, is_invariant_poly,
                      laplace_cofactor, laplace_det, total_degree)
from coxbasis import invariants
from coxbasis.coxeter import build_group, parse_type
from coxbasis.derivations import Derivation, coefficient_matrix
from coxbasis.errors import JacobianDegenerate
from coxbasis.invariants import (InvariantSystem, compute_invariants, invariant_field_basis,
                                 invariant_field_degrees, jacobian_matrix)
from coxbasis.poly import Poly, weighted_exponents
from coxbasis.scalars import common_field


def test_degrees_match_type_tables(pipeline):
    for label in ("A1", "A2", "A3", "B2", "B3", "G2"):
        group, _, system = pipeline(label)
        assert system.degrees == group.datum.degrees
        for p, d in zip(system.polys, system.degrees):
            assert p.is_homogeneous()
            assert p.homogeneous_degree() == d
            assert p.leading_term()[1] == 1
            assert is_invariant_poly(group, p)


def test_selection_alarms_raise_jacobian_degenerate(pipeline, monkeypatch):
    group, arrangement, system = pipeline("B2")
    p2 = system.polys[0]
    # the Jacobian of P_1, P_1^2 vanishes, so they are not basic
    with pytest.raises(JacobianDegenerate):
        InvariantSystem(arrangement, (p2, p2 * p2))
    # a degree whose averages all reduce to zero has too few candidates
    monkeypatch.setattr(invariants, "reynolds", lambda group, p: Poly.zero(p.nvars))
    with pytest.raises(JacobianDegenerate, match="only 0 independent invariants of degree 2"):
        invariants._select_invariants(group, arrangement)


def test_a1_frozen_values(pipeline):
    _, arrangement, system = pipeline("A1")
    x = Poly.variable(1, 0)
    assert system.polys == (x ** 2,)
    assert system.jacobian == x * 2
    assert system.jacobian_scalar == 2
    assert arrangement.defining_polynomial == x
    assert system.primitive_numerator == Derivation([Poly.constant(1, Fraction(1))])
    # the invariant form has matrix (2), so the gradient field is 4x d/dx
    assert system.gradients[0].coeffs == (x * 4,)


def test_b2_frozen_values(pipeline):
    _, arrangement, system = pipeline("B2")
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    assert system.polys == (x ** 2 + y ** 2, x ** 2 * y ** 2)
    q = arrangement.defining_polynomial
    assert q == x ** 3 * y - x * y ** 3
    assert system.jacobian == q * 4
    assert system.jacobian_scalar == 4
    assert system.gradients[0].coeffs == (x * 2, y * 2)


def test_jacobian_is_scalar_times_defining_polynomial(pipeline):
    for label in ("A2", "B3", "G2", "A5", "B5", "D5"):
        _, arrangement, system = pipeline(label)
        expected = arrangement.defining_polynomial.scale(system.jacobian_scalar)
        # the expanded determinant is the reference; the system never builds it
        assert jacobian_matrix(system.polys).det() == expected
        assert system.jacobian_scalar != 0


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4", "G2",
                                   "H3", "I2(5)", "I2(8)"])
def test_cofactor_columns_and_jacobian_match_laplace_expansion(pipeline, label):
    _, _, system = pipeline(label)
    m = jacobian_matrix(system.polys)
    assert m.det() == laplace_det(m.rows) == system.jacobian
    last = system.nvars - 1
    assert system.primitive_numerator.coeffs == tuple(laplace_cofactor(m.rows, i, last)
                                                      for i in range(system.nvars))


def test_jacobian_matrix_layout(pipeline):
    _, _, system = pipeline("B2")
    m = jacobian_matrix(system.polys)
    for i in range(2):
        for j in range(2):
            assert m.rows[i][j] == system.polys[j].partial(i)


def test_gradient_fields_are_invariant(pipeline):
    for label in ("A2", "B2", "G2"):
        group, _, system = pipeline(label)
        for grad, d in zip(system.gradients, system.degrees):
            assert is_invariant_derivation(group, grad)
            assert grad.degree() == d - 1


def test_lowest_gradient_is_proportional_to_euler(pipeline):
    for label in ("A2", "B2", "G2"):
        group, _, system = pipeline(label)
        grad = system.gradients[0]
        n = group.rank
        one = tuple(1 if k == 0 else 0 for k in range(n))
        c = coefficient(grad.coeffs[0], one)
        assert c != 0
        for i in range(n):
            assert grad.coeffs[i] == Poly.variable(n, i) * c


def test_gradient_determinant_is_scalar_times_defining_polynomial(pipeline):
    for label in ("A2", "B2"):
        _, arrangement, system = pipeline(label)
        det = coefficient_matrix(list(system.gradients)).det()
        ratio, remainder = det.divrem(arrangement.defining_polynomial)
        assert remainder.is_zero
        assert total_degree(ratio) == 0


def test_partial_P_fields_are_dual_to_invariants(pipeline):
    # C(P_m) = J delta_{m,l}, over Q and over Q(sqrt(5))
    for label in ("A1", "B2", "A3", "H3", "I2(5)"):
        _, _, system = pipeline(label)
        last = system.nvars - 1
        for m, p in enumerate(system.polys):
            value = system.primitive_numerator.apply(p)
            assert value == (system.jacobian if m == last else Poly.zero(system.nvars))


def test_invariant_monomials_and_basis(pipeline):
    _, _, system = pipeline("B2")
    assert list(weighted_exponents(system.degrees, 4)) == [(2, 0), (0, 1)]
    assert list(weighted_exponents(system.degrees, 5)) == []
    assert list(weighted_exponents(system.degrees, 0)) == [(0, 0)]
    basis = invariant_basis(system, 4)
    assert basis == [system.polys[0] ** 2, system.polys[1]]


def test_compose_multiplies_powers(pipeline):
    _, _, system = pipeline("B2")
    p1, p2 = system.polys
    assert system.compose(Poly.monomial(2, (1, 1))) == p1 * p2
    assert system.compose(Poly.monomial(2, (0, 0))) == Poly.constant(2, Fraction(1))
    assert system.compose(Poly.monomial(2, (3, 0))) == p1 ** 3
    g = Poly(2, {(2, 0): Fraction(1, 2), (0, 1): -3})
    assert system.compose(g) == (p1 * p1).scale(Fraction(1, 2)) - p2.scale(3)


@pytest.mark.parametrize("label", ["A2", "B3", "G2", "H3", "I2(5)"])
def test_field_keys_are_the_basis_keys_in_order(pipeline, label):
    _, _, system = pipeline(label)
    for d in range(2 * system.coxeter_number + 1):
        keys = list(system.field_keys(d))
        assert keys == [key for key, _ in invariant_field_basis(system, d)]
        assert keys == [(j, e) for j, deg in enumerate(system.degrees)
                        for e in weighted_exponents(system.degrees, d - (deg - 1))]


@pytest.mark.parametrize("label", ["A2", "B3", "G2", "H3", "I2(5)"])
def test_compose_field_is_the_linear_combination_of_the_basis(pipeline, label):
    _, _, system = pipeline(label)
    rng = random.Random(label)
    zero = Derivation.zero(system.nvars)
    assert system.compose_field({}) == zero
    for d in invariant_field_degrees(system)[:4]:
        basis = invariant_field_basis(system, d)
        a = {key: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for key, _ in basis}
        b = {key: rng.randint(-3, 3) for key, _ in basis}
        expected = zero
        for key, field in basis:
            expected = expected + field * a[key]
        assert system.compose_field(a) == expected
        assert system.compose_field({key: 0 for key in a}) == zero
        # linear: the field of a + 2b is the field of a plus twice the field of b
        combined = {key: a[key] + 2 * b[key] for key in a}
        assert system.compose_field(combined) == (system.compose_field(a)
                                                  + system.compose_field(b) * Fraction(2))


def test_fingerprint_is_stable_across_builds(pipeline):
    _, _, cached = pipeline("A2")
    datum = parse_type("A2")
    group, arrangement = build_group(datum)
    fresh = compute_invariants(group, arrangement)
    assert fresh.fingerprint() == cached.fingerprint()


@pytest.mark.parametrize("label", ["A1", "A3", "B3", "D4", "G2", "H3", "I2(5)", "I2(8)"])
def test_system_field_is_the_field_of_its_polynomials(pipeline, label):
    # the field is set from the type; the polynomials must need exactly it
    group, _, system = pipeline(label)
    polys = [*system.polys, system.jacobian, *(c for g in system.gradients for c in g.coeffs)]
    assert system.field == group.datum.disc
    assert functools.reduce(common_field, (f.d for f in polys), 1) == system.field


@pytest.mark.parametrize("label", ["A2", "B3", "G2", "H3", "I2(5)"])
def test_invariant_field_degrees_are_the_nonempty_bases(pipeline, label):
    _, _, system = pipeline(label)
    assert invariant_field_degrees(system) == [
        d for d in range(2 * system.coxeter_number + 1) if invariant_field_basis(system, d)]
