"""Independent certification of candidate bases.

A list of l homogeneous fields is certified as a free basis for the
derivation module of a multiplicity m by three checks, in this order:

  1. membership: the contact order of every member at every hyperplane
     is at least m(H), decided by repeated exact division;
  2. the degree count: member degrees must sum to sum_H m(H);
  3. independence: the coefficient determinant must be nonzero.

Once 1 and 2 hold, Saito's criterion in Ziegler's form for
multiarrangements says the coefficient determinant is c times
prod_H alpha_H^{m(H)} for one scalar c, and the members form a basis
exactly when c is nonzero.  So c is read off one exact evaluation at a
rational point where no alpha_H vanishes: c = det M(p) / prod alpha_H(p)^m.
The recorded determinant witness is c times prod_H alpha_H^{m(H)}; the
polynomial determinant is never expanded.

The module also provides direct graded dimensions of the derivation
module, by linear algebra on one graded piece with no basis needed: the
contact-order conditions become linear rows (`order_constraint_rows`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .coxeter import Arrangement, Multiplicity
from .derivations import Derivation, coefficient_matrix
from .linalg import det, kernel_basis
from .poly import (Poly, count_monomials, linear_form_order, monomials_of_degree,
                   point_off, product)
from .scalars import Scalar, scalar_inverse

VERDICT_FREE = "Free-with-basis"
VERDICT_NOT_MEMBER = "NotMember"
VERDICT_DEGREE = "DegreeMismatch"
VERDICT_DEPENDENT = "Dependent"


def contact_order(delta: Derivation, form: Poly) -> int | float:
    """Largest k with form^k dividing delta(form)."""
    return linear_form_order(delta.apply(form), form)


@dataclass
class Certificate:
    """Record of one certification run."""

    verdict: str
    member_degrees: tuple[int, ...]
    required: tuple[int, ...]
    orders: tuple[tuple[int | float, ...], ...]
    degree_sum: int
    multiplicity_sum: int
    determinant: Poly | None = None
    determinant_scalar: Scalar | None = None
    failure: dict | None = None

    @property
    def is_free(self) -> bool:
        return self.verdict == VERDICT_FREE


def ziegler_certify(members: Sequence[Derivation], multiplicity: Multiplicity,
                    arrangement: Arrangement) -> Certificate:
    """Certify a candidate basis for the derivation module of a multiplicity."""
    n = arrangement.datum.rank
    if len(members) != n:
        raise ValueError("need %d members, got %d" % (n, len(members)))
    degrees = []
    for i, m in enumerate(members):
        if not m.is_homogeneous():
            raise ValueError("member %d is not homogeneous" % i)
        d = m.degree()
        if d is None:
            raise ValueError("member %d is zero" % i)
        degrees.append(d)
    member_degrees = tuple(degrees)
    required = tuple(multiplicity.values)

    orders = tuple(
        tuple(contact_order(m, h.form) for h in arrangement.hyperplanes)
        for m in members
    )
    degree_sum = sum(member_degrees)
    mult_sum = multiplicity.total()

    base = dict(member_degrees=member_degrees, required=required, orders=orders,
                degree_sum=degree_sum, multiplicity_sum=mult_sum)

    for i, row in enumerate(orders):
        for j, o in enumerate(row):
            if o < required[j]:
                return Certificate(
                    verdict=VERDICT_NOT_MEMBER,
                    failure={"member": i, "hyperplane": j,
                             "order": o, "required": required[j]},
                    **base)

    if degree_sum != mult_sum:
        return Certificate(
            verdict=VERDICT_DEGREE,
            failure={"degree_sum": degree_sum, "multiplicity_sum": mult_sum},
            **base)

    # membership and the degree count make det M = c * prod alpha^m
    point, values = point_off([h.form for h in arrangement.hyperplanes], n)
    at_point = det(coefficient_matrix(members).evaluate(point))
    if at_point == 0:
        return Certificate(verdict=VERDICT_DEPENDENT, determinant=Poly.zero(n),
                           failure={"determinant": "zero"}, **base)
    target_at_point = math.prod((v ** mv for v, mv in zip(values, required)), start=Fraction(1))
    scalar = at_point * scalar_inverse(target_at_point)
    target = product(
        (h.form ** mv for h, mv in zip(arrangement.hyperplanes, required)), n)
    return Certificate(verdict=VERDICT_FREE, determinant=target.scale(scalar),
                       determinant_scalar=scalar, **base)


def graded_member_basis(multiplicity: Multiplicity, degree: int,
                        arrangement: Arrangement) -> list[Derivation]:
    """Basis of the degree-d piece of the derivation module, by constraints.

    Unknowns are the coefficients of a degree-d field; for each hyperplane
    the condition alpha^{m} | delta(alpha) becomes linear constraints on
    them, read off after a change of coordinates that makes alpha a
    variable.  The kernel of the stacked constraints is the graded piece.
    """
    n = arrangement.datum.rank
    if degree < 0:
        return []
    monos = list(monomials_of_degree(n, degree))
    unknowns = [(i, e) for i in range(n) for e in monos]
    rows: list[list[Scalar]] = []
    for h, m in zip(arrangement.hyperplanes, multiplicity.values):
        if m <= 0:
            continue
        rows.extend(order_constraint_rows(
            [_apply_to_form(i, e, h.coeffs, n) for (i, e) in unknowns],
            h.coeffs, m, n))
    fields = []
    for vec in kernel_basis(rows, len(unknowns)):
        polys: list[dict] = [dict() for _ in range(n)]
        for (i, e), c in zip(unknowns, vec):
            if c != 0:
                polys[i][e] = c
        fields.append(Derivation([Poly(n, p) for p in polys]))
    return fields


def _apply_to_form(i: int, exps: tuple[int, ...], alpha: Sequence[Scalar], n: int) -> Poly:
    # (x^e d/dx_i) applied to the linear form alpha
    return Poly.monomial(n, exps, alpha[i])


def order_constraint_rows(applied: list[Poly], alpha: Sequence[Scalar], m: int,
                          n: int) -> list[list[Scalar]]:
    """Rows forcing alpha^m to divide a field applied to alpha.

    ``applied`` holds, per unknown, the polynomial the unknown contributes.
    Coordinates are changed so alpha becomes the pivot variable; every
    monomial of the rewritten polynomial with pivot exponent below m gives
    one row.
    """
    pivot = next(k for k, a in enumerate(alpha) if a != 0)
    inv = scalar_inverse(alpha[pivot])
    # x_pivot = inv * (y_pivot - sum of the other alpha_t y_t)
    subst_coeffs = [-inv * a for a in alpha]
    subst_coeffs[pivot] = inv
    forms = []
    for t in range(n):
        if t == pivot:
            forms.append(Poly.linear(subst_coeffs))
        else:
            forms.append(Poly.variable(n, t))
    rewritten = [p.substitute(forms) for p in applied]
    low_monomials: dict[tuple[int, ...], int] = {}
    for p in rewritten:
        for exps in p.terms:
            if exps[pivot] < m and exps not in low_monomials:
                low_monomials[exps] = len(low_monomials)
    rows = [[Fraction(0)] * len(applied) for _ in low_monomials]
    for u, p in enumerate(rewritten):
        for exps, coeff in p.terms.items():
            slot = low_monomials.get(exps)
            if slot is not None:
                rows[slot][u] = coeff
    return rows


def graded_dimension(multiplicity: Multiplicity, degree: int,
                     arrangement: Arrangement) -> int:
    """Dimension of one graded piece of the derivation module."""
    return len(graded_member_basis(multiplicity, degree, arrangement))


def free_module_graded_dimension(member_degrees: Sequence[int], degree: int,
                                 nvars: int) -> int:
    """Graded dimension predicted by a free basis with the given degrees."""
    return sum(count_monomials(nvars, degree - d) for d in member_degrees)
