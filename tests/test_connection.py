from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from conftest import fraction_rref

from coxbasis import connection
from coxbasis.connection import nabla_D, nabla_D_inverse, universal_field
from coxbasis.coxeter import is_invariant_derivation
from coxbasis.derivations import Derivation, euler_field, nabla
from coxbasis.errors import NoSolution, NonUniqueSolution, NotPolynomial
from coxbasis.invariants import invariant_field_basis, partial_P_field
from coxbasis.poly import Poly, linear_form_order
from coxbasis.verify import random_invariant_derivation


def test_primitive_numerator_on_a1(pipeline):
    _, _, system = pipeline("A1")
    x = Poly.variable(1, 0)
    # one variable: the cofactor is 1, so the numerator is just df/dx
    field, denominator = partial_P_field(system, 0)
    assert field.apply(x ** 3) == x ** 2 * 3
    assert denominator == system.jacobian


def test_nabla_D_lowers_x_cubed_field_on_a1(pipeline):
    _, _, system = pipeline("A1")
    x = Poly.variable(1, 0)
    # J = 2x, so the derivative of x^3 d/dx along the primitive direction
    # is (3x^2)/(2x) d/dx = (3/2) x d/dx.
    delta = Derivation([x ** 3])
    out = nabla_D(delta, system)
    assert out == Derivation([x * Fraction(3, 2)])


def test_nabla_D_rejects_non_polynomial_result(pipeline):
    _, _, system = pipeline("A1")
    with pytest.raises(NotPolynomial) as info:
        nabla_D(euler_field(1), system)
    assert info.value.coordinate == 0


def test_nabla_D_lets_programming_errors_through(pipeline, monkeypatch):
    _, _, system = pipeline("A1")

    def broken(self, divisor):
        raise RuntimeError("bug in division")

    monkeypatch.setattr(Poly, "divide_exact", broken)
    with pytest.raises(RuntimeError, match="bug in division"):
        nabla_D(euler_field(1), system)


def test_universal_field_on_a1(pipeline):
    group, arrangement, system = pipeline("A1")
    x = Poly.variable(1, 0)
    u1 = universal_field(1, system)
    # solve nabla_D(c x^3 d/dx) = x d/dx: numerator 3cx^2 over J = 2x
    # gives (3c/2) x, so c = 2/3.
    assert u1 == Derivation([x ** 3 * Fraction(2, 3)])
    assert nabla_D(u1, system) == euler_field(1)
    alpha = arrangement.hyperplanes[0].form
    assert linear_form_order(u1.coeffs[0], alpha) == 3


def test_universal_field_degrees(pipeline):
    for label in ("A2", "B2", "G2"):
        group, _, system = pipeline(label)
        h = system.coxeter_number
        for k in (0, 1, 2):
            u = universal_field(k, system)
            assert u.degree() == k * h + 1
            assert is_invariant_derivation(group, u)


def test_universal_field_recursion(pipeline):
    group, _, system = pipeline("B2")
    u1 = universal_field(1, system)
    u2 = universal_field(2, system)
    assert nabla_D(u2, system) == u1
    assert nabla_D(u1, system) == euler_field(2)
    assert nabla_D_inverse(u1, system) == u2


def test_universal_field_extends_the_fields_it_keeps(monkeypatch):
    from coxbasis.coxeter import build_group, parse_type
    from coxbasis.invariants import compute_invariants

    system = compute_invariants(*build_group(parse_type("B2")), cache_dir=None)
    calls = []

    def counting(delta, system):
        calls.append(delta)
        return original(delta, system)

    original = connection.nabla_D_inverse
    monkeypatch.setattr(connection, "nabla_D_inverse", counting)
    u3 = universal_field(3, system)
    assert len(calls) == 3
    # a shorter chain is read back, a longer one takes one step per field
    u1 = universal_field(1, system)
    assert len(calls) == 3
    u4 = universal_field(4, system)
    assert len(calls) == 4 and calls[-1] is u3
    assert nabla_D(u4, system) == u3
    assert u1 == original(euler_field(2), system)


def test_inverse_round_trips_on_random_invariant_fields(pipeline):
    rng = random.Random(41)
    for label in ("A2", "B2"):
        group, _, system = pipeline(label)
        h = system.coxeter_number
        for degree in (1, 3, 5):
            delta = random_invariant_derivation(system, degree, rng)
            if delta.is_zero:
                continue
            lifted = nabla_D_inverse(delta, system)
            assert lifted.degree() == degree + h
            assert nabla_D(lifted, system) == delta
            assert is_invariant_derivation(group, lifted)


def test_inverse_is_linear(pipeline):
    rng = random.Random(43)
    group, _, system = pipeline("B2")
    d1 = random_invariant_derivation(system, 3, rng)
    d2 = random_invariant_derivation(system, 3, rng)
    lift = nabla_D_inverse(d1 + d2, system)
    assert lift == nabla_D_inverse(d1, system) + nabla_D_inverse(d2, system)


def test_inverse_rejects_non_invariant_input(pipeline):
    group, _, system = pipeline("A2")
    with pytest.raises(NoSolution):
        nabla_D_inverse(Derivation.coordinate(2, 0), system)


def test_inverse_rejects_non_homogeneous_input(pipeline):
    group, _, system = pipeline("A2")
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    mixed = Derivation([x + x * x, y])
    with pytest.raises(NoSolution):
        nabla_D_inverse(mixed, system)


def test_inverse_of_zero_is_zero(pipeline):
    group, _, system = pipeline("A2")
    assert nabla_D_inverse(Derivation.zero(2), system).is_zero


def test_invariant_field_basis_spans_invariants(pipeline):
    group, _, system = pipeline("B2")
    # degree 1: only the Euler direction (g constant times grad P_1)
    basis1 = invariant_field_basis(system, 1)
    assert len(basis1) == 1
    key, field = basis1[0]
    assert key == (0, 0, (0, 0))
    assert field == system.gradients[0]
    # degree 3: g of degree 2 on grad P_1 plus a constant on grad P_2
    basis3 = invariant_field_basis(system, 3)
    assert len(basis3) == 2
    for _, field in basis3:
        assert is_invariant_derivation(group, field)
        assert field.degree() == 3
    # no invariant fields in even coefficient degrees for B2
    assert invariant_field_basis(system, 2) == []


def test_nabla_of_members_recovers_contact_orders(pipeline):
    # members nabla_{d_i} U_1 for coordinate fields land in the module of
    # contact order 2 at every hyperplane
    from coxbasis.certify import contact_order

    group, arrangement, system = pipeline("B2")
    u1 = universal_field(1, system)
    for i in range(2):
        member = nabla(Derivation.coordinate(2, i), u1)
        assert member.degree() == system.coxeter_number
        for h in arrangement.hyperplanes:
            assert contact_order(member, h.form) >= 2
    # U_1 itself has contact order 3 everywhere
    for h in arrangement.hyperplanes:
        assert contact_order(u1, h.form) == 3


def dense_inverse(delta, system):
    """Reference inverse: expand every candidate's image and solve the
    dense system over the coefficients of all monomials, by the test-only
    Fraction/Quad elimination."""
    n = system.nvars
    basis = invariant_field_basis(system, delta.degree() + system.coxeter_number)
    primitive, _ = partial_P_field(system, n - 1)
    images = [[primitive.apply(f) for f in field.coeffs] for _, field in basis]
    targets = [system.jacobian * f for f in delta.coeffs]
    monomials = {}
    for i in range(n):
        for poly in [img[i] for img in images] + [targets[i]]:
            for exps in poly.terms:
                monomials.setdefault((i, exps), len(monomials))
    rows = [[Fraction(0)] * (len(basis) + 1) for _ in monomials]
    for u, img in enumerate(images):
        for i in range(n):
            for exps, coeff in img[i].terms.items():
                rows[monomials[(i, exps)]][u] = coeff
    for i in range(n):
        for exps, coeff in targets[i].terms.items():
            rows[monomials[(i, exps)]][len(basis)] = coeff
    reduced, pivots = fraction_rref(rows)
    assert pivots == list(range(len(basis)))
    out = Derivation.zero(n)
    for (_, field), row in zip(basis, reduced):
        out = out + field * row[len(basis)]
    return out


def smallest_nonempty_degrees(system, count):
    found = []
    d = 0
    while len(found) < count:
        if invariant_field_basis(system, d):
            found.append(d)
        d += 1
    return found


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "G2", "I2(5)"])
def test_inverse_agrees_with_dense_reference(pipeline, label):
    group, _, system = pipeline(label)
    fields = [universal_field(k, system) for k in (0, 1, 2)]
    for d in smallest_nonempty_degrees(system, 2):
        fields += [field for _, field in invariant_field_basis(system, d)]
    for field in fields:
        assert nabla_D_inverse(field, system) == dense_inverse(field, system)


def test_inverse_with_one_repeated_point_raises_non_unique(pipeline, monkeypatch):
    group, _, system = pipeline("B2")
    delta = universal_field(1, system)
    unknowns = len(invariant_field_basis(system, delta.degree() + system.coxeter_number))
    # one point gives one equation per coordinate, too few for the unknowns
    assert unknowns > system.nvars
    drawn = []

    def one_point(nvars):
        for point in itertools.repeat((2, 1), 1000):
            drawn.append(point)
            yield point
        raise AssertionError("the inverse kept drawing points")

    monkeypatch.setattr(connection, "_sample_points", one_point)
    with pytest.raises(NonUniqueSolution):
        nabla_D_inverse(delta, system)
    assert len(drawn) == unknowns + connection._SPARE_POINTS


def test_inverse_rejects_non_invariant_field_past_the_invariance_check(pipeline, monkeypatch):
    # there is no separate invariance check: the evaluated system and the
    # exact re-check are what reject a non-invariant field
    group, _, system = pipeline("A2")
    x = Poly.variable(2, 0)
    # full evaluated rank, but the unique candidate fails the exact re-check
    with pytest.raises(NoSolution, match="re-verification"):
        nabla_D_inverse(Derivation([x * x, x * x]), system)
    # d/dx has one unknown, P_1 grad P_1; at (2, -1) its first equation reads
    # 0 = J(p) != 0, so the evaluated system itself is inconsistent
    assert system.gradient_numerators[0][0].evaluate((2, -1)) == 0
    original = connection._sample_points

    def inconsistent_first(nvars):
        yield (2, -1)
        yield from original(nvars)

    monkeypatch.setattr(connection, "_sample_points", inconsistent_first)
    with pytest.raises(NoSolution, match="likely not invariant"):
        nabla_D_inverse(Derivation.coordinate(2, 0), system)


def test_inverse_skips_points_where_the_jacobian_vanishes(pipeline, monkeypatch):
    group, _, system = pipeline("B2")
    delta = universal_field(1, system)
    expected = universal_field(2, system)
    # points on the hyperplane x = y, distinct, more than the whole point budget
    on_mirror = [(t, t) for t in range(1, 40)]
    assert all(system.jacobian.evaluate(p) == 0 for p in on_mirror)
    original = connection._sample_points

    def mirror_first(nvars):
        yield from on_mirror
        yield from original(nvars)

    monkeypatch.setattr(connection, "_sample_points", mirror_first)
    assert nabla_D_inverse(delta, system) == expected


def test_gradient_numerators_are_lazy():
    from coxbasis.coxeter import build_group, parse_type
    from coxbasis.invariants import compute_invariants

    group, arrangement = build_group(parse_type("A2"))
    system = compute_invariants(group, arrangement, cache_dir=None)
    assert "gradient_numerators" not in vars(system)
    nabla_D_inverse(euler_field(2), system)
    numerators = vars(system)["gradient_numerators"]
    primitive, _ = partial_P_field(system, 1)
    assert numerators[1][0] == primitive.apply(system.gradients[1].coeffs[0])
