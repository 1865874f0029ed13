from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from conftest import (det, division_contact_orders, division_order, free_module_graded_dimension,
                      is_invariant_derivation, report_determinant, scalar_inverse,
                      sequential_witness)

from coxbasis.certify import (
    VERDICT_DEGREE,
    VERDICT_DEPENDENT,
    VERDICT_FREE,
    VERDICT_NOT_MEMBER,
    Certificate,
    contact_order,
    determinant_scalar,
    graded_member_basis,
    ziegler_certify,
)
from coxbasis import coxeter, poly
from coxbasis.basis import BasisRequest, build_basis
from coxbasis.connection import nabla_D, nabla_D_inverse, universal_field
from coxbasis.coxeter import Multiplicity, build_group, parse_type
from coxbasis.derivations import Derivation, coefficient_matrix, euler_field, nabla
from coxbasis.errors import NotPolynomial
from coxbasis.invariants import compute_invariants, invariant_field_degrees, jacobian_matrix
from coxbasis.poly import Poly, contact_orders, linear_combination, product, sample_points
from coxbasis.report import certificate_to_json
from coxbasis.verify import hodge_suite, invariant_graded_dimension, random_invariant_derivation


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "G2", "I2(5)"])
def test_fused_field_on_form_matches_apply(pipeline, label):
    group, arrangement, system = pipeline(label)
    for m in (0, 1):
        mult = Multiplicity.constant(arrangement, m)
        result = build_basis(BasisRequest(system=system, multiplicity=mult, k=1))
        for member in result.base_members + result.members:
            for h in arrangement.hyperplanes:
                applied = member.apply(h.form)
                assert linear_combination(member.coeffs, h.form) == applied
                assert contact_order(member, h.form) == division_order(applied, h.form)


def test_contact_order(pipeline):
    _, arrangement, _ = pipeline("B2")
    e = euler_field(2)
    x = Poly.variable(2, 0)
    for h in arrangement.hyperplanes:
        assert contact_order(e, h.form) == 1
    d = Derivation([x, Poly.zero(2)])
    assert contact_order(d, x) == 1
    assert contact_order(d, Poly.variable(2, 1)) == float("inf")


def test_one_certification_finds_each_pivot_once(monkeypatch):
    # the contact orders of all n members come from one kernel call, which
    # finds the pivot of each of the |A| forms once, not once per member,
    # and the arrangement keeps them, so the next certification finds none
    group, arrangement = build_group(parse_type("B3"))
    system = compute_invariants(group, arrangement)
    calls = []

    def counting(alpha, d, original=poly.pivot_form):
        calls.append(alpha)
        return original(alpha, d)

    monkeypatch.setattr(coxeter, "pivot_form", counting)
    monkeypatch.setattr(poly, "pivot_form", counting)
    result = build_basis(BasisRequest(system, Multiplicity.constant(arrangement, 1), 2))
    assert len(calls) == len(arrangement) == 9
    cert = ziegler_certify(result.members, result.certificate.multiplicity)
    assert cert.is_free
    assert len(calls) == 9


def test_one_certification_runs_one_division_chain_per_form(pipeline, monkeypatch):
    # all n members share each form's division chain: |A| chains, not n|A|,
    # and a chain stops at the first nonzero remainder of its last member
    group, arrangement, system = pipeline("B3")
    result = build_basis(BasisRequest(system, Multiplicity.constant(arrangement, 1), 2))
    chains, steps = [], []

    def chain(buckets, a, tail, d, nvars, settle=False, original=poly._chain):
        # a term's tag sits in its key's degree field
        chains.append(len({k >> nvars * poly.WIDTH for b in buckets for k in b}))
        return original(buckets, a, tail, d, nvars, settle)

    def divide(buckets, a, steps_, d, original=poly._divide_buckets):
        steps.append(len(buckets))
        return original(buckets, a, steps_, d)

    monkeypatch.setattr(poly, "_chain", chain)
    monkeypatch.setattr(poly, "_divide_buckets", divide)
    cert = ziegler_certify(result.members, result.certificate.multiplicity)
    assert cert.is_free
    assert chains == [3] * len(arrangement) == [3] * 9
    columns = list(zip(*cert.orders))
    assert len(steps) == sum(max(column) + 1 for column in columns)
    # member by member, the chains would take this many steps
    assert len(steps) < sum(o + 1 for column in columns for o in column)


def test_chain_tags_never_alias_past_one_exponent_field():
    # more fields and polynomials than a 16-bit exponent field can count:
    # with alpha = y the pivot is the lowest field, so a tag kept there
    # would carry into x's exponent; each must keep its own order and entry
    count = (1 << 16) + 2
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    zero = Poly.zero(2)
    # at alpha = y, x + y has order 0, y order 1 and y^2 order 2
    shapes = [x + y, y, y * y]
    orders = contact_orders([[zero, shapes[u % 3]] for u in range(count)], [y])
    assert orders == [(u % 3,) for u in range(count)]
    # r_0 and r_1 of x + y are x and 1, of y 0 and 1, of y^2 0 and 0
    rows = poly.order_constraint_rows([shapes[u % 3] for u in range(count)], y, 2, 1)
    assert sorted(rows) == sorted([[1 if u % 3 == 0 else 0 for u in range(count)],
                                   [1 if u % 3 < 2 else 0 for u in range(count)]])


def test_batched_contact_orders_match_repeated_division(pipeline):
    # fields of unequal degree and order in one call, each field and form
    # against repeated exact division of the field applied to the form
    cases = []
    for label in ("A1", "A2", "B2", "I2(5)", "I2(8)", "H3"):
        _, arrangement, system = pipeline(label)
        forms = [h.form for h in arrangement.hyperplanes]
        n = arrangement.datum.rank
        # the coordinate base's members at k = 2, whose orders differ
        members = build_basis(BasisRequest(system, Multiplicity.constant(arrangement, 0), 2)).members
        zero = [Poly.zero(n)] * n
        cases.append((forms, [m.coeffs for m in members]))
        cases.append((forms, [zero] + [m.coeffs for m in members[:1]] + [zero]))
        cases.append((forms, []))
        if label in ("A2", "B2", "I2(5)"):
            # the shift suite's pair: delta and its primitive antiderivative,
            # whose orders differ by 2
            rng = random.Random(5)
            degree = next(d for d in invariant_field_degrees(system) if d >= 1)
            delta = random_invariant_derivation(system, degree, rng)
            lifted = nabla_D_inverse(delta, system)
            cases.append((forms, [delta.coeffs, lifted.coeffs]))
            orders = contact_orders([delta.coeffs, lifted.coeffs], forms)
            assert all(b == a + 2 for a, b in zip(*orders) if a != math.inf)
    for forms, fields in cases:
        assert contact_orders(fields, forms) == [division_contact_orders(c, forms) for c in fields]


def test_not_member_verdict(pipeline):
    _, arrangement, _ = pipeline("B2")
    mult = Multiplicity.constant(arrangement, 1)
    members = [Derivation.coordinate(2, 0), Derivation.coordinate(2, 1)]
    cert = ziegler_certify(members, mult)
    assert cert.verdict == VERDICT_NOT_MEMBER
    assert not cert.is_free
    # d/dx kills the form y at hyperplane 0, so the first failure is the
    # order-0 contact with x - y at hyperplane 1
    assert cert.failure == {"member": 0, "hyperplane": 1, "order": 0, "required": 1}


def test_degree_mismatch_verdict(pipeline):
    _, arrangement, _ = pipeline("B2")
    mult = Multiplicity.constant(arrangement, 0)
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    members = [Derivation([x, Poly.zero(2)]), Derivation([Poly.zero(2), y])]
    cert = ziegler_certify(members, mult)
    assert cert.verdict == VERDICT_DEGREE
    assert cert.failure == {"degree_sum": 2, "multiplicity_sum": 0}
    data = certificate_to_json(cert)
    assert data["degree_sum"] == 2
    assert data["multiplicity_sum"] == 0
    assert "determinant" not in data


def test_dependent_verdict(pipeline):
    _, arrangement, _ = pipeline("B2")
    mult = Multiplicity.constant(arrangement, 0)
    members = [Derivation.coordinate(2, 0), Derivation.coordinate(2, 0)]
    cert = ziegler_certify(members, mult)
    assert cert.verdict == VERDICT_DEPENDENT
    assert report_determinant(cert).is_zero
    assert cert.failure == {"determinant": "zero"}


@pytest.mark.parametrize("label, powers", [("A2", (1,)), ("I2(5)", (3,)), ("H3", (5, 7))],
                         ids=["A2", "I2(5)", "H3"])
def test_dependent_members_of_the_module(pipeline, label, powers):
    # E and x^a*E all lie in D(A), and their degrees sum to |A|: 1 + 2 = 3
    # on A2, 1 + 4 = 5 on I2(5), 1 + 6 + 8 = 15 on H3; so only the evaluated
    # determinant can reject them, over Z[sqrt 5] on I2(5) and H3
    _, arrangement, _ = pipeline(label)
    n = arrangement.datum.rank
    mult = Multiplicity.constant(arrangement, 1)
    e = euler_field(n)
    members = [e] + [e * Poly.variable(n, 0) ** a for a in powers]
    assert sum(m.degree() for m in members) == len(arrangement)
    cert = ziegler_certify(members, mult)
    assert cert.verdict == VERDICT_DEPENDENT
    assert report_determinant(cert).is_zero
    assert cert.determinant_scalar is None


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "G2", "I2(5)"])
def test_evaluated_certificate_matches_polynomial_determinant(pipeline, label):
    group, arrangement, system = pipeline(label)
    # the expanded determinants are the references for both evaluated scalars
    assert jacobian_matrix(system.polys).det() == system.jacobian
    for m in (0, 1):
        for k in (0, 1):
            mult = Multiplicity.constant(arrangement, m)
            result = build_basis(BasisRequest(system, mult, k))
            certificates = [result.certificate]
            if result.base_certificate is not None:
                certificates.append(result.base_certificate)
                assert (report_determinant(result.base_certificate)
                        == coefficient_matrix(list(result.base_members)).det())
            assert (report_determinant(result.certificate)
                    == coefficient_matrix(list(result.members)).det())
            for cert in certificates:
                assert cert.is_free and cert.determinant_scalar != 0


def _scalar_at(matrix, forms, exponent, point):
    """det M(p) over prod_H alpha_H(p)^e."""
    target = math.prod(f.evaluate(point) ** exponent for f in forms)
    return det([[e.evaluate(point) for e in row] for row in matrix.rows]) * scalar_inverse(target)


@pytest.mark.parametrize("label", ["A2", "B3", "D4", "G2", "H3", "I2(5)", "I2(8)"])
def test_determinant_scalar_is_the_same_at_every_point_off_the_arrangement(pipeline, label):
    # Saito's criterion in Ziegler's form: det M = c * prod alpha_H^e, so any
    # point off the arrangement gives c, the stream's first one among them
    group, arrangement, system = pipeline(label)
    n = arrangement.datum.rank
    forms = [h.form for h in arrangement.hyperplanes]
    off = [p for p in itertools.islice(sample_points(n), 50)
           if all(f.evaluate(p) != 0 for f in forms)][:3]
    # the first point (1, t, t^2, ...) of the moment curve off the arrangement
    curve = (tuple(t ** i for i in range(n)) for t in itertools.count(1))
    moment = next(p for p in curve if all(f.evaluate(p) != 0 for f in forms))
    # the arrangement keeps the stream's first point off it, and the forms' values there
    assert arrangement.generic_point == (off[0], tuple(f.evaluate(off[0]) for f in forms))
    mult = Multiplicity.constant(arrangement, 1)
    members = build_basis(BasisRequest(system, mult, 1)).members
    cases = [(system.jacobian_partials, 1, system.jacobian_scalar),
             (coefficient_matrix(list(members)), 3, None)]
    for matrix, exponent, recorded in cases:
        scalars = {_scalar_at(matrix, forms, exponent, p) for p in off + [moment]}
        assert len(off) == 3 and len(scalars) == 1
        c = scalars.pop()
        assert c != 0
        assert c == determinant_scalar(matrix, Multiplicity.constant(arrangement, exponent))
        assert recorded is None or c == recorded


def test_determinant_scalar_reads_the_multiplicity(pipeline):
    # the scalar of B2's m = 3 members and of its Jacobian, each over the
    # forms of the multiplicity it is taken for
    _, arrangement, system = pipeline("B2")
    one = Multiplicity.constant(arrangement, 1)
    result = build_basis(BasisRequest(system, one, 1))
    cert = result.certificate
    scalar = determinant_scalar(coefficient_matrix(list(result.members)), cert.multiplicity)
    assert scalar == cert.determinant_scalar == Fraction(-16, 3)
    assert determinant_scalar(system.jacobian_partials, one) == system.jacobian_scalar


@pytest.mark.parametrize("label", ["B10", "B12", "D11", "D12"])
def test_point_stream_leaves_large_b_and_d_arrangements(label):
    # off B_n a point needs n distinct nonzero absolute values, off D_n n
    # distinct ones, which integers in [-9, 9] cannot give from n = 10 (B)
    # or n = 11 (D) on; every exact evaluation reads this stream
    bound = 10 ** 13
    group, arrangement = build_group(parse_type(label, order_bound=bound), order_bound=bound)
    forms = [h.form for h in arrangement.hyperplanes]
    assert any(all(f.numerator_at(p) != 0 for f in forms)
               for p in itertools.islice(sample_points(group.rank), 1000))


def test_coordinate_fields_certify_for_zero_multiplicity(pipeline):
    _, arrangement, _ = pipeline("B2")
    mult = Multiplicity.constant(arrangement, 0)
    members = [Derivation.coordinate(2, 0), Derivation.coordinate(2, 1)]
    cert = ziegler_certify(members, mult)
    assert cert.verdict == VERDICT_FREE
    assert cert.member_degrees == (0, 0)
    assert cert.determinant_scalar == 1


def test_gradients_certify_for_constant_one(pipeline):
    for label in ("A2", "B2", "G2"):
        _, arrangement, system = pipeline(label)
        mult = Multiplicity.constant(arrangement, 1)
        cert = ziegler_certify(list(system.gradients), mult)
        assert cert.verdict == VERDICT_FREE
        assert cert.member_degrees == arrangement.datum.exponents
        assert sum(cert.member_degrees) == len(arrangement)
        # re-multiply the certified factorization as an independent witness
        n = system.nvars
        target = product((h.form for h in arrangement.hyperplanes), n)
        assert report_determinant(cert) == target.scale(cert.determinant_scalar)


def test_certification_reads_the_multiplicity_arrangement(pipeline):
    # B2 and I2(4) have four hyperplanes each, so values alone cannot tell
    # which arrangement a multiplicity lives on
    _, b2, system = pipeline("B2")
    _, i2, _ = pipeline("I2(4)")
    mult = Multiplicity.constant(b2, 1)
    assert len(b2) == len(i2) == 4
    assert mult != Multiplicity.constant(i2, 1)
    assert mult == Multiplicity.constant(b2, 1)
    assert ziegler_certify(list(system.gradients), mult).verdict == VERDICT_FREE
    # degree 3 holds the generator of degree 3 beside the multiples of Euler
    piece = graded_member_basis(mult, 3)
    assert len(piece) == 4
    for field in piece:
        assert all(contact_order(field, h.form) >= 1 for h in b2.hyperplanes)


def test_certified_orders_table_shape(pipeline):
    _, arrangement, system = pipeline("B2")
    mult = Multiplicity.constant(arrangement, 1)
    cert = ziegler_certify(list(system.gradients), mult)
    assert len(cert.orders) == 2
    assert all(len(row) == len(arrangement) for row in cert.orders)
    assert all(o >= 1 for row in cert.orders for o in row)


def test_ziegler_input_validation(pipeline):
    _, arrangement, _ = pipeline("B2")
    mult = Multiplicity.constant(arrangement, 0)
    with pytest.raises(ValueError):
        ziegler_certify([Derivation.coordinate(2, 0)], mult)
    with pytest.raises(ValueError):
        ziegler_certify([Derivation.zero(2), Derivation.coordinate(2, 0)], mult)
    x = Poly.variable(2, 0)
    mixed = Derivation([x * x + x, Poly.zero(2)])
    with pytest.raises(ValueError):
        ziegler_certify([mixed, Derivation.coordinate(2, 1)], mult)


def test_graded_dimensions_match_free_prediction(pipeline):
    _, arrangement, system = pipeline("B2")
    mult = Multiplicity.constant(arrangement, 1)
    cert = ziegler_certify(list(system.gradients), mult)
    assert cert.is_free
    for d in range(7):
        direct = len(graded_member_basis(mult, d))
        predicted = free_module_graded_dimension(cert.member_degrees, d, 2)
        assert direct == predicted


def test_graded_member_basis_satisfies_constraints(pipeline):
    _, arrangement, _ = pipeline("B2")
    mult = Multiplicity.from_orbit_values(arrangement, [2, 0])
    for degree in (1, 2, 3):
        fields = graded_member_basis(mult, degree)
        for fld in fields:
            assert fld.is_homogeneous()
            assert fld.degree() == degree
            for h, m in zip(arrangement.hyperplanes, mult.values):
                assert contact_order(fld, h.form) >= m
        assert graded_member_basis(mult, degree) == fields
    assert graded_member_basis(mult, -1) == []


def test_nabla_D_stays_polynomial_on_a2(pipeline):
    group, arrangement, system = pipeline("A2")
    u1 = universal_field(1, system)
    out = nabla_D(u1, system)
    assert is_invariant_derivation(group, out)
    for h in arrangement.hyperplanes:
        assert contact_order(out, h.form) >= 1
    # the primitive direction recovers the Euler field
    assert out == euler_field(2)


@pytest.mark.parametrize("label", ["B2", "H3"])
def test_nabla_D_can_leave_polynomials(pipeline, label):
    # nabla_D E = D = (1/J) C, and C is not divisible by J
    _, _, system = pipeline(label)
    with pytest.raises(NotPolynomial) as info:
        nabla_D(euler_field(system.nvars), system)
    assert not info.value.remainder.is_zero


def test_invariant_graded_dimension(pipeline):
    _, arrangement, system = pipeline("B2")
    # every invariant field is tangent to the arrangement
    assert invariant_graded_dimension(system, 1, 1) == 1
    assert invariant_graded_dimension(system, 3, 1) == 2
    # order 3 in degree 3 is impossible below the first antiderivative degree
    assert invariant_graded_dimension(system, 3, 3) == 0
    # the first antiderivative of the Euler field lives in degree h + 1 = 5
    assert invariant_graded_dimension(system, 5, 3) >= 1


def test_hodge_equality(pipeline):
    for label in ("A2", "B2"):
        group, arrangement, system = pipeline(label)
        for k in (0, 1):
            report = hodge_suite(system, k, [1, 2, 3])
            assert report["k"] == k
            assert report["passed"]
            assert len(report["entries"]) == 3
            for entry in report["entries"]:
                assert entry["target_degree"] == entry["source_degree"] + k * system.coxeter_number
                assert entry["equal"]


def test_certificate_dataclass_defaults(pipeline):
    _, arrangement, _ = pipeline("A1")
    cert = Certificate(verdict=VERDICT_FREE, member_degrees=(1,),
                       multiplicity=Multiplicity.constant(arrangement, 1), orders=((1,),))
    assert cert.is_free
    assert cert.determinant_scalar is None
    assert cert.failure is None


def test_certificate_is_immutable(pipeline):
    _, arrangement, _ = pipeline("A1")
    cert = Certificate(verdict=VERDICT_FREE, member_degrees=(1,),
                       multiplicity=Multiplicity.constant(arrangement, 1), orders=((1,),))
    for name, value in (("verdict", "Dependent"), ("failure", {}), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(cert, name, value)
    assert cert.verdict == VERDICT_FREE and cert.failure is None


WITNESS_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4", "G2", "H3", "I2(5)", "I2(8)"]


@pytest.mark.parametrize("label", WITNESS_TYPES)
def test_witness_matches_sequential_product(pipeline, label):
    """The reported witness over its scalar is prod_H alpha_H^{m(H)}, for
    constant m = 0 .. 4, the per-orbit values of the benchmark's two mfiles,
    and a 0/1 multiplicity that is not constant on orbits (with its shift)."""
    group, arrangement, system = pipeline(label)
    n_hyp = len(arrangement)
    cases = [([m % 2] * n_hyp, m // 2) for m in range(5)]
    if len(arrangement.orbits()) == 2:
        cases += [(Multiplicity.from_orbit_values(arrangement, per_orbit).values, k)
                  for per_orbit in ([0, 1], [1, 0]) for k in (0, 1)]
    if n_hyp > 1:
        mixed = Multiplicity(arrangement, [1] + [0] * (n_hyp - 1))
        assert mixed.per_orbit() is None
        cases.append((mixed.values, 1))
    certified = set()
    for values, k in cases:
        result = build_basis(BasisRequest(system=system,
                                          multiplicity=Multiplicity(arrangement, values), k=k))
        for cert in (result.base_certificate, result.certificate):
            if cert is None:
                continue
            assert cert.verdict == VERDICT_FREE
            witness = report_determinant(cert).scale(
                scalar_inverse(cert.determinant_scalar))
            assert witness == sequential_witness(cert.multiplicity)
            certified.add(cert.multiplicity.values)
    assert all((m,) * n_hyp in certified for m in range(5))
