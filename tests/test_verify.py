from __future__ import annotations

import json
import math
import random

import pytest
from conftest import all_hyperplane_graded_dimensions, is_invariant_derivation

from coxbasis import verify
from coxbasis.cli import main
from coxbasis.invariants import invariant_field_degrees
from coxbasis.verify import (
    euler_suite,
    hodge_suite,
    invariant_graded_dimension,
    jacobian_suite,
    random_homogeneous_derivation,
    random_invariant_derivation,
    shift_suite,
)


def test_random_homogeneous_derivation_shape():
    rng = random.Random(1)
    for degree in (0, 1, 3):
        d = random_homogeneous_derivation(2, degree, rng)
        assert not d.is_zero
        assert d.is_homogeneous()
        assert d.degree() == degree


def test_random_invariant_derivation(pipeline):
    group, _, system = pipeline("B2")
    rng = random.Random(2)
    d = random_invariant_derivation(system, 3, rng)
    assert d is not None
    assert d.degree() == 3
    assert is_invariant_derivation(group, d)
    # B2 has no invariant fields in even coefficient degrees
    assert random_invariant_derivation(system, 2, rng) is None


def test_euler_suite(pipeline):
    system = pipeline("A2")[2]
    report = euler_suite(system, samples=10, seed=3)
    assert report["passed"]
    assert report["samples"] == 10
    assert report["failures"] == []
    assert report["suite"] == "euler"
    # the same seed reproduces the same verdict
    assert euler_suite(system, samples=10, seed=3) == report


def test_jacobian_suite(pipeline):
    report = jacobian_suite(pipeline("G2")[2])
    assert report["passed"]


def test_shift_suite(pipeline):
    report = shift_suite(pipeline("B2")[2], samples=8, seed=5)
    assert report["passed"]
    assert report["orders_checked"] > 0
    assert report["failures"] == []


def _no_constant(name):
    raise ValueError("%s is not JSON" % name)


def test_shift_suite_reports_infinite_orders_as_null(monkeypatch, capsys):
    # force the lifted field to annihilate every form: its order is infinite
    def lifted_annihilates(fields, forms, pivots=None):
        before, _ = contact_orders(fields, forms, pivots)
        return [before, (math.inf,) * len(forms)]

    contact_orders = verify.contact_orders
    monkeypatch.setattr(verify, "contact_orders", lifted_annihilates)
    code = main(["verify", "--type", "A2", "--suite", "shift", "--samples", "2",
                 "--seed", "0", "--format", "json", "--no-cache"])
    out = capsys.readouterr().out
    assert code == 1
    report = json.loads(out, parse_constant=_no_constant)
    failures = report["suites"][0]["failures"]
    assert failures and all(f["order_after"] is None for f in failures)
    assert all(type(f["order_before"]) is int for f in failures)
    with pytest.raises(ValueError, match="Infinity is not JSON"):
        json.loads('{"order_after": Infinity}', parse_constant=_no_constant)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "G2", "H3", "I2(5)", "I2(8)"])
def test_invariant_graded_dimension_reads_one_hyperplane_per_orbit_exactly(label, pipeline):
    # an invariant field has one order on a whole W-orbit of hyperplanes, so
    # the dimensions read at one hyperplane per orbit are those read at all
    _, arrangement, system = pipeline(label)
    h = system.coxeter_number
    for d in invariant_field_degrees(system)[:2]:
        for k in range(3):
            degree = d + k * h
            assert ([invariant_graded_dimension(system, degree, m) for m in range(1, 6)]
                    == all_hyperplane_graded_dimensions(system, arrangement, degree, 5))


def test_hodge_reads_the_rows_of_one_hyperplane_per_orbit(pipeline, monkeypatch):
    _, arrangement, system = pipeline("B3")
    forms = []

    def counting(applied, alpha, m, d, pivot=None, original=verify.order_constraint_rows):
        forms.append(alpha)
        return original(applied, alpha, m, d, pivot)

    monkeypatch.setattr(verify, "order_constraint_rows", counting)
    assert hodge_suite(system, 1, [1])["passed"]
    assert forms == [arrangement.hyperplanes[orbit[0]].form for orbit in arrangement.orbits()]
    assert len(forms) == 2
