from __future__ import annotations

import pytest
from conftest import is_invariant_derivation, report_determinant, sequential_witness

from coxbasis.basis import BasisRequest, build_basis
from coxbasis.certify import VERDICT_FREE
from coxbasis.coxeter import Multiplicity
from coxbasis.scalars import Quad


def build(pipeline, label, m, k, **kw):
    _, arrangement, system = pipeline(label)
    if isinstance(m, int):
        mult = Multiplicity.constant(arrangement, m)
    else:
        mult = Multiplicity.from_orbit_values(arrangement, m)
    request = BasisRequest(system=system, multiplicity=mult, k=k, **kw)
    return request, build_basis(request)


def check_free(request, result):
    cert = result.certificate
    assert cert.verdict == VERDICT_FREE
    arrangement = request.system.arrangement
    expected = 2 * request.k * len(arrangement) + request.multiplicity.total()
    assert sum(cert.member_degrees) == expected
    shifted = request.multiplicity.shifted(2 * request.k)
    assert cert.multiplicity == shifted
    target = sequential_witness(shifted)
    assert report_determinant(cert) == target.scale(cert.determinant_scalar)


def test_d4_builds(pipeline):
    request, result = build(pipeline, "D4", 0, 1)
    check_free(request, result)
    assert result.certificate.member_degrees == (6, 6, 6, 6)
    request, result = build(pipeline, "D4", 1, 1)
    check_free(request, result)
    assert result.certificate.member_degrees == (7, 9, 9, 11)


def test_i2_5_builds(pipeline):
    group, _, system = pipeline("I2(5)")
    assert group.order == 10
    for m, k, degrees in ((0, 1, (5, 5)), (1, 1, (6, 9)), (0, 2, (10, 10)), (1, 2, (11, 14))):
        request, result = build(pipeline, "I2(5)", m, k)
        check_free(request, result)
        assert result.certificate.member_degrees == degrees


def test_i2_5_scalars_are_quadratic(pipeline):
    _, arrangement, system = pipeline("I2(5)")
    assert any(isinstance(c, Quad) for h in arrangement.hyperplanes for c in h.coeffs)
    assert system.degrees == (2, 5)


def test_i2_8_builds(pipeline):
    for m, k, degrees in ((0, 1, (8, 8)), (1, 1, (9, 15))):
        request, result = build(pipeline, "I2(8)", m, k)
        check_free(request, result)
        assert result.certificate.member_degrees == degrees


def test_i2_8_orbit_multiplicity(pipeline):
    _, arrangement, _ = pipeline("I2(8)")
    assert sorted(len(o) for o in arrangement.orbits()) == [4, 4]
    request, result = build(pipeline, "I2(8)", [1, 0], 1)
    check_free(request, result)
    assert result.base_source == "oracle"


def test_h3_base_and_shift(pipeline):
    group, _, system = pipeline("H3")
    assert group.order == 120
    request, result = build(pipeline, "H3", 1, 0)
    check_free(request, result)
    assert result.certificate.member_degrees == (1, 5, 9)
    request, result = build(pipeline, "H3", 0, 1)
    check_free(request, result)
    assert result.certificate.member_degrees == (10, 10, 10)


def test_h3_shifted_gradient_basis(pipeline):
    request, result = build(pipeline, "H3", 1, 1)
    check_free(request, result)
    assert result.certificate.member_degrees == (11, 15, 19)
    group = pipeline("H3")[0]
    for member in result.members:
        assert is_invariant_derivation(group, member)
