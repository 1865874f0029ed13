from __future__ import annotations

import json
from fractions import Fraction

import pytest
from conftest import sequential_witness

from coxbasis.basis import BasisRequest, build_basis
from coxbasis.certify import ziegler_certify
from coxbasis.coxeter import Multiplicity
from coxbasis.derivations import Derivation
from coxbasis.poly import Poly, poly_from_json, poly_to_json
from coxbasis.report import (
    SCHEMA_BASIS,
    basis_report,
    certificate_to_json,
    derivation_from_json,
    derivation_to_json,
    dump_report,
    group_to_json,
    multiplicity_from_json,
    multiplicity_to_json,
)


def test_poly_json_round_trip_and_order():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    p = y ** 3 * Fraction(1, 2) + x * y - x ** 3 * 2
    data = poly_to_json(p)
    # descending graded lexicographic term order
    assert [tuple(e) for e, _ in data] == [(3, 0), (0, 3), (1, 1)]
    assert data[0][1] == "-2"
    assert poly_from_json(data, 2) == p


def test_derivation_json_round_trip():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    d = Derivation([x * y, y ** 2 * Fraction(-1, 3)])
    data = derivation_to_json(d)
    assert data["degree"] == 2
    assert derivation_from_json(data, 2) == d
    with pytest.raises(ValueError):
        derivation_from_json(data, 3)


def test_infinite_contact_orders_become_null(pipeline):
    _, arrangement, _ = pipeline("B2")
    mult = Multiplicity.constant(arrangement, 0)
    members = [Derivation.coordinate(2, 0), Derivation.coordinate(2, 1)]
    cert = ziegler_certify(members, mult)
    data = certificate_to_json(cert)
    # d/dx annihilates the form y, an infinite contact order
    assert data["contact_orders"][0][0] is None
    assert data["contact_orders"][0][1] == 0
    blob = json.dumps(data)
    assert "Infinity" not in blob


def test_certificate_json_reads_its_own_arrangement(pipeline):
    # B2 and I2(4) have four hyperplanes each, so the witness of a B2
    # certificate must come from the arrangement its multiplicity is on
    _, b2, system = pipeline("B2")
    _, i2, _ = pipeline("I2(4)")
    assert len(b2) == len(i2) == 4
    cert = build_basis(BasisRequest(system, Multiplicity.constant(b2, 1), 1)).certificate
    data = certificate_to_json(cert)
    assert data["required_multiplicities"] == [3, 3, 3, 3]
    expected = sequential_witness(Multiplicity.constant(b2, 3)).scale(cert.determinant_scalar)
    other = sequential_witness(Multiplicity.constant(i2, 3)).scale(cert.determinant_scalar)
    assert expected != other
    assert poly_from_json(data["determinant"], 2) == expected


def test_group_json_for_b2(pipeline):
    group, arrangement, _ = pipeline("B2")
    data = group_to_json(arrangement)
    assert data["order"] == group.order
    assert data["type"] == "B2"
    assert data["order"] == 8
    assert data["field"] == "Q"
    assert data["hyperplanes"] == [["0", "1"], ["1", "-1"], ["1", "0"], ["1", "1"]]
    assert data["orbits"] == [[0, 2], [1, 3]]


def test_multiplicity_json_round_trips(pipeline):
    _, arrangement, _ = pipeline("B2")
    mult = Multiplicity.from_orbit_values(arrangement, [1, 0])
    data = multiplicity_to_json(mult)
    assert data["per_hyperplane"] == [1, 0, 1, 0]
    assert data["per_orbit"] == [1, 0]
    assert multiplicity_from_json(data, arrangement) == mult
    assert multiplicity_from_json({"per_orbit": [1, 0]}, arrangement) == mult
    assert multiplicity_from_json({"constant": 1}, arrangement) == Multiplicity.constant(arrangement, 1)
    # several keys load only when they give one multiplicity
    assert (multiplicity_from_json({"constant": 1, "per_orbit": [1, 1]}, arrangement)
            == Multiplicity.constant(arrangement, 1))
    with pytest.raises(ValueError, match="per_hyperplane and per_orbit"):
        multiplicity_from_json({"per_hyperplane": [1, 1, 1, 1], "per_orbit": [0, 1]}, arrangement)
    with pytest.raises(ValueError):
        multiplicity_from_json({}, arrangement)
    for bad in ({"constant": 1.0}, {"constant": True}, {"per_orbit": [1, False]}, [1, 0]):
        with pytest.raises(ValueError):
            multiplicity_from_json(bad, arrangement)


def test_basis_report_structure_and_determinism(pipeline):
    _, arrangement, system = pipeline("B2")
    request = BasisRequest(system, Multiplicity.constant(arrangement, 1), 1)
    result = build_basis(request)
    report = basis_report(result)
    assert report["schema"] == SCHEMA_BASIS
    assert report["inputs"]["type"] == "B2"
    assert report["inputs"]["k"] == 1
    assert report["certificate"]["verdict"] == "Free-with-basis"
    assert report["member_degrees"] == [5, 7]
    assert "certificate" in report["base"]
    # byte determinism of the dump
    assert dump_report(report) == dump_report(basis_report(result))
    # members parse back into the same derivations
    for data, member in zip(report["members"], result.members):
        assert derivation_from_json(data, 2) == member
    for data, member in zip(report["base"]["members"], result.base_members):
        assert derivation_from_json(data, 2) == member


def test_report_has_no_floats(pipeline):
    _, arrangement, system = pipeline("A2")
    request = BasisRequest(system, Multiplicity.constant(arrangement, 0), 1)
    result = build_basis(request)
    report = basis_report(result)

    def walk(node):
        if isinstance(node, float):
            raise AssertionError("float %r in report" % node)
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(report)
