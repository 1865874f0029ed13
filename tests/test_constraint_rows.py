"""Contact-constraint rows from division remainders against the substitution reference.

``poly.order_constraint_rows``, bound in ``certify`` and ``verify``, reads
the rows off the remainders of synthetic division by the form; the
reference ``substitution_rows`` in ``conftest`` changes coordinates so the
form becomes a variable.  Both must span the same row space, hyperplane by
hyperplane, for fields of every coordinate shape and for invariant
fields, and the graded pieces built on them must not change.
"""

from __future__ import annotations

import pytest
from conftest import substitution_rows

from coxbasis import certify, coxeter, poly, verify
from coxbasis.certify import graded_member_basis, order_constraint_rows
from coxbasis.coxeter import Multiplicity
from coxbasis.invariants import invariant_field_basis
from coxbasis.linalg import Echelon
from coxbasis.poly import Poly, linear_combination, monomials_of_degree
from coxbasis.verify import invariant_graded_dimension

LABELS = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4", "G2", "I2(5)", "I2(8)", "H3"]


def rank(d, *row_sets):
    echelon = Echelon(d)
    for rows in row_sets:
        for row in rows:
            echelon.add(row)
    return echelon.rank


def applied_shapes(label, pipeline, m):
    """The two ways the package calls for rows: the monomials of one degree
    (``graded_member_basis``) and the invariant fields of the Hodge
    comparison's target degree applied to each form."""
    _, arrangement, system = pipeline(label)
    n = arrangement.datum.rank
    monomials = [Poly.monomial(n, e) for e in monomials_of_degree(n, m + 1)]
    fields = [fld for _, fld in invariant_field_basis(system, system.coxeter_number + 1)]
    for h in arrangement.hyperplanes:
        yield h.form, monomials
        yield h.form, [linear_combination(fld.coeffs, h.form) for fld in fields]


@pytest.mark.parametrize("label", LABELS)
def test_division_rows_span_the_substitution_rows(label, pipeline):
    d = pipeline(label)[1].datum.disc
    for m in (1, 2, 3):
        for form, applied in applied_shapes(label, pipeline, m):
            rows = order_constraint_rows(applied, form, m, d)
            reference = substitution_rows(applied, form, m, d)
            assert all(len(row) == len(applied) for row in rows)
            assert rank(d, rows) == rank(d, reference) == rank(d, rows, reference)


@pytest.mark.parametrize("label, per_orbit, degrees", [
    ("A2", None, (1, 2, 3)),
    ("B3", [1, 0], (2, 3, 4)),
    ("G2", [0, 2], (2, 3, 5)),
    ("I2(5)", None, (2, 4)),
    ("H3", None, (3, 5)),
])
def test_graded_pieces_unchanged(label, per_orbit, degrees, pipeline, monkeypatch):
    _, arrangement, system = pipeline(label)
    mult = (Multiplicity.constant(arrangement, 1) if per_orbit is None
            else Multiplicity.from_orbit_values(arrangement, per_orbit))
    orders = (1, 3)
    h = system.coxeter_number
    fresh = ([graded_member_basis(mult, deg) for deg in degrees],
             [invariant_graded_dimension(system, h + 1, o) for o in orders])
    monkeypatch.setattr(certify, "order_constraint_rows", substitution_rows)
    monkeypatch.setattr(verify, "order_constraint_rows", substitution_rows)
    reference = ([graded_member_basis(mult, deg) for deg in degrees],
                 [invariant_graded_dimension(system, h + 1, o) for o in orders])
    assert any(fresh[0]) and any(fresh[1])
    assert fresh == reference


def test_rows_substitute_nothing(pipeline, monkeypatch):
    calls = []

    def counting(p, substitutions, nvars):
        calls.append(len(substitutions))
        return substitute_sum(p, substitutions, nvars)

    substitute_sum = poly.substitute_sum
    monkeypatch.setattr(poly, "substitute_sum", counting)
    monkeypatch.setattr(coxeter, "substitute_sum", counting)
    for label in ("B3", "I2(5)"):
        _, arrangement, system = pipeline(label)
        mult = Multiplicity.constant(arrangement, 2)
        # with m = 2 everywhere the basis degrees are all h
        assert graded_member_basis(mult, system.coxeter_number)
        assert invariant_graded_dimension(system, system.coxeter_number + 1, 1)
    assert calls == []
    # a substitution inside the package is counted
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    assert (x * y).substitute([x + y, y]) == x * y + y ** 2
    assert calls == [1]
