from __future__ import annotations

import functools
import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from conftest import (fraction_rref, gradient_numerators, is_invariant_derivation,
                      linear_form_order, scalar_inverse)

from coxbasis import connection
from coxbasis.connection import nabla_D, nabla_D_inverse, universal_field
from coxbasis.coxeter import build_group, parse_type
from coxbasis.derivations import Derivation, euler_field, nabla
from coxbasis.errors import NoSolution, NonUniqueSolution, NotPolynomial
from coxbasis.invariants import compute_invariants, invariant_field_basis
from coxbasis.poly import Poly
from coxbasis.report import derivation_to_json, dump_json
from coxbasis.scalars import common_field, join_scalar
from coxbasis.verify import random_invariant_derivation


def test_primitive_numerator_on_a1(pipeline):
    _, _, system = pipeline("A1")
    x = Poly.variable(1, 0)
    # one variable: the cofactor is 1, so the numerator is just df/dx
    assert system.primitive_numerator == Derivation([Poly.constant(1, 1)])
    assert system.primitive_numerator.apply(x ** 3) == x ** 2 * 3
    assert system.jacobian == x * 2


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

    monkeypatch.setattr(Poly, "divrem", broken)
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
    assert key == (0, (0, 0))
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
    primitive = system.primitive_numerator
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

    monkeypatch.setattr(connection, "sample_points", one_point)
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
    assert gradient_numerators(system)[0][0].evaluate((2, -1)) == 0
    original = connection.sample_points

    def inconsistent_first(nvars):
        yield (2, -1)
        yield from original(nvars)

    monkeypatch.setattr(connection, "sample_points", inconsistent_first)
    with pytest.raises(NoSolution, match="likely not invariant"):
        nabla_D_inverse(Derivation.coordinate(2, 0), system)


def test_inverse_skips_points_where_the_jacobian_vanishes(pipeline, monkeypatch):
    group, _, system = pipeline("B2")
    delta = universal_field(1, system)
    expected = universal_field(2, system)
    # points on the hyperplane x = y, distinct, more than the whole point budget
    on_mirror = [(t, t) for t in range(1, 40)]
    assert all(system.jacobian.evaluate(p) == 0 for p in on_mirror)
    original = connection.sample_points

    def mirror_first(nvars):
        yield from on_mirror
        yield from original(nvars)

    monkeypatch.setattr(connection, "sample_points", mirror_first)
    assert nabla_D_inverse(delta, system) == expected


ROW_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4", "G2", "H3", "I2(5)", "I2(8)"]

# sha256 of the JSON of universal_field(k), written before the inverse stopped
# forming the polynomial gradient numerators
UNIVERSAL_DIGESTS = {
    ("A1", 1): "7eb171d04457a74b78253ed8e57b8cc59228f3093d7ff2675e849adf969e5296",
    ("A1", 2): "7743a9f0c18c2d5fc279cd0935b5fa8d2c5c6f3d09d20d0f9d1c364f25d21845",
    ("A2", 1): "d7585a62cd4b8320191131582567bc2a7cd64dde697f5a3f2876be706836d801",
    ("A2", 2): "603986d7972f90b3f6d2695fd9973c2b2dcf8fde74bb0fa78acb102490dba607",
    ("A3", 1): "fcaf600a37b0b8c34226acde2ecf9d1fc2b91b10686caa9d847592c38a76ca7e",
    ("A3", 2): "4d4d7369e46d505e03da40517f18beac8e73c6dc3823d2e7aca87177d3c75b50",
    ("A4", 1): "9ff67a5435b184dc9755ca650e12b668c4e87b067706de1b535b715bf81d023c",
    ("A4", 2): "61c203d25b60035d5be6207d2c97c3a0b8881f75a5ee66f7f70a511568115293",
    ("B2", 1): "ab9c07eb2c3868ffd9c2996719f0f03dc33e132cf37cfeeea9f6160cc6091dfd",
    ("B2", 2): "ee8af751d11215d81302b4882e250be11947dfd69f0d50742a957e1615ecaba7",
    ("B3", 1): "13d979a27292fc027ac2944319ff8728a87629a74977490756ce770e9715de90",
    ("B3", 2): "6f6d85936a839ed81a052680bbf8ca666f38ec76023b6b7822b45bc438b93984",
    ("B4", 1): "8c05e91b76c5dd784c889a5a85e984ec395a8efa061f8c7dce388cb6912c6293",
    ("B4", 2): "e9473ef6a45b4daabc1dc0aa59b8c1862b1d809817679bb654933bf4f60873d8",
    ("D4", 1): "bc87160a4a55ffabd9f5927b85cab1b090c054c66c9ac706f55027617304f403",
    ("D4", 2): "672a6481d30a8ff5dab4cb05eb4b77dc330d42a650e5c21c4f83dd4eadc41125",
    ("G2", 1): "ce1f6a37ef80d2beb95b32d3ad5fcb74de0ae9b39979a3655e4cd9f36778d5a9",
    ("G2", 2): "7f07ff8dc9eff10bbeaa67f5b6fb642b083c800ec66236bcb03cf8a60476f651",
    ("H3", 1): "226df154a413186bcc65c80c1ef63fe87f9e9432a0cbcd43090d78096c3b2ff0",
    ("H3", 2): "039664c3dec99240f6dbeec80d689658c00c9f3b3f0a305d8a258f6032c680da",
    ("I2(5)", 1): "04ed0a9ba45e1ca628274a26ac78278cc3e19fa9e869e018678ae770f6d0355f",
    ("I2(5)", 2): "804047d3c989ce7dc8f4a36932ca110bf9e07b390f50f1231c528c5aef3ae716",
    ("I2(8)", 1): "c2c3b792159a7ebbea46a51c097c8d3e7156319192d058e23d0e1832d084bccd",
    ("I2(8)", 2): "3477cea4fc08842d309f28c9e4a18bed89d4ba3d5eed577eb6a4eef60b996032",
}


def reference_row(delta, system, unknowns, numerators, point, i):
    """Row i of the inverse's equations at one point in Fraction/Quad
    arithmetic, from the polynomial numerators: the entry of (j, g) is
    J (dg/dP_l)(P) grad_{j,i} + g(P) N_{j,i} times prod_m den(P_m)^(g_m),
    and the last entry is J delta_i."""
    last = system.nvars - 1
    jac = system.jacobian.evaluate(point)
    values = [p.evaluate(point) for p in system.polys]
    row = []
    for j, exps in unknowns:
        g = math.prod((v ** e for v, e in zip(values, exps)), start=Fraction(1))
        lowered = exps[:last] + (exps[last] - 1,)
        dg = exps[last] * math.prod((v ** e for v, e in zip(values, lowered)), start=Fraction(1)) \
            if exps[last] else 0
        entry = (jac * dg * system.gradients[j].coeffs[i].evaluate(point)
                 + g * numerators[j][i].evaluate(point))
        row.append(entry * math.prod(p.den ** e for p, e in zip(system.polys, exps)))
    row.append(jac * delta.coeffs[i].evaluate(point))
    return row


@pytest.mark.parametrize("label", ROW_TYPES)
def test_evaluated_rows_are_multiples_of_the_numerator_rows(pipeline, label):
    _, _, system = pipeline(label)
    n = system.nvars
    numerators = gradient_numerators(system)
    for k in (1, 2):
        delta = universal_field(k - 1, system)
        target = delta.degree() + system.coxeter_number
        unknowns = list(system.field_keys(target))
        field = functools.reduce(common_field, (f.d for f in delta.coeffs), system.field)
        points = (p for p in connection.sample_points(n) if system.jacobian.evaluate(p) != 0)
        rows = list(connection._evaluated_rows(delta, system, unknowns, field))
        assert len(rows) == n * (len(unknowns) + connection._SPARE_POINTS)
        for start in range(0, len(rows), n):
            point = next(points)
            for i, row in enumerate(rows[start:start + n]):
                got = [join_scalar(field, x, 1) for x in row]
                want = reference_row(delta, system, unknowns, numerators, point, i)
                pivot = next(c for c, x in enumerate(want) if x != 0)
                ratio = got[pivot] * scalar_inverse(want[pivot])
                assert ratio != 0
                assert got == [ratio * x for x in want]


@pytest.mark.parametrize("label", ROW_TYPES)
def test_universal_field_digests(pipeline, label):
    _, _, system = pipeline(label)
    for k in (1, 2):
        text = dump_json(derivation_to_json(universal_field(k, system)))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == UNIVERSAL_DIGESTS[label, k]


def test_inverse_divides_nothing(pipeline, monkeypatch):
    group, arrangement = build_group(parse_type("B3"))
    fresh = compute_invariants(group, arrangement, cache_dir=None)
    _, _, i2 = pipeline("I2(5)")
    delta = invariant_field_basis(i2, 7)[0][1]
    calls = []
    divrem, nabla_d = Poly.divrem, connection.nabla_D

    def counted_divrem(self, divisor):
        calls.append("divrem")
        return divrem(self, divisor)

    def counted_nabla_D(delta, system):
        calls.append("nabla_D")
        return nabla_d(delta, system)

    monkeypatch.setattr(Poly, "divrem", counted_divrem)
    monkeypatch.setattr(connection, "nabla_D", counted_nabla_D)
    assert universal_field(2, fresh).degree() == 2 * fresh.coxeter_number + 1
    lifted = nabla_D_inverse(delta, i2)
    assert calls == []
    # the division route still inverts what the inverse found
    assert nabla_D(lifted, i2) == delta
    assert "divrem" in calls
