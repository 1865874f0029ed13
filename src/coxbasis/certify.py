"""Independent certification of candidate bases.

A list of l homogeneous fields is certified as a free basis for the
derivation module of a multiplicity m by three checks, in this order:

  1. membership: the contact order of every member at every hyperplane
     is at least m(H), decided by synthetic division by the form on
     integer numerators (``poly.contact_orders``): one call per
     certification runs one division chain per form for all members,
     each member's terms tagged with its index and dropped from the
     chain at its first nonzero remainder, so a certification runs |A|
     chains, not n|A|, each on the form's pivot form as the arrangement
     keeps it;
  2. the degree count: member degrees must sum to sum_H m(H);
  3. independence: the coefficient determinant must be nonzero.

Once 1 and 2 hold, Saito's criterion in Ziegler's form for
multiarrangements says the coefficient determinant is c times
prod_H alpha_H^{m(H)} for one scalar c, and the members form a basis
exactly when c is nonzero.  So c is the same at every point off the
arrangement, and it is read off one exact evaluation at the first point
of the package's one point stream (``poly.sample_points``) where no
alpha_H vanishes: c = det M(p) / prod alpha_H(p)^m (`determinant_scalar`,
which also gives the Jacobian scalar of the basic invariants).  The
arrangement keeps that point and the forms' values there
(``Arrangement.generic_point``), so each certification evaluates only
its matrix.  Both sides stay integer numerators, the determinant from
the fraction-free kernel ``linalg.integer_det``, until the one scalar c.
A certificate records c and nothing it implies: certification multiplies
no polynomials.  The determinant witness c times prod_H alpha_H^{m(H)} is
expanded only where a report is written (``report.certificate_to_json``).

The module also provides direct graded dimensions of the derivation
module, by linear algebra on one graded piece with no basis needed: the
contact-order conditions become integer linear rows
(`poly.order_constraint_rows`) for the elimination kernel
`linalg.Echelon`.  The rows are the coefficients of the first m
remainders of synthetic division by the form, placed as the same
division loop the contact orders run finds them, with every polynomial
scaled by one shared factor so that the rows of different unknowns stay
comparable.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .coxeter import Multiplicity
from .derivations import Derivation, coefficient_matrix
from .linalg import Echelon, PolyMatrix, integer_det, times
from .poly import (INFINITE_ORDER, Poly, contact_orders, linear_numerators, monomials_of_degree,
                   numerator_in, order_constraint_rows)
from .scalars import Scalar, common_field, join_scalar, split_scalar

VERDICT_FREE = "Free-with-basis"
VERDICT_NOT_MEMBER = "NotMember"
VERDICT_DEGREE = "DegreeMismatch"
VERDICT_DEPENDENT = "Dependent"


def contact_order(delta: Derivation, form: Poly) -> int | float:
    """Largest k with form^k dividing delta(form); delta(form) is the
    combination of delta's coefficients with the form's coefficients.
    The one-field, one-form case of ``poly.contact_orders``."""
    return contact_orders([delta.coeffs], [form])[0][0]


def order_to_json(o: int | float) -> int | None:
    """A contact order as JSON: null for the infinite order of a field
    that annihilates the form."""
    return None if o == INFINITE_ORDER else int(o)


class Certificate(NamedTuple):
    """Record of one certification run of members against the multiplicity
    it certified them for; immutable, since one certified base hands its
    certificate to every result built on it."""

    verdict: str
    member_degrees: tuple[int, ...]
    multiplicity: Multiplicity
    orders: tuple[tuple[int | float, ...], ...]
    determinant_scalar: Scalar | None = None
    failure: dict | None = None

    @property
    def is_free(self) -> bool:
        return self.verdict == VERDICT_FREE


def ziegler_certify(members: Sequence[Derivation], multiplicity: Multiplicity) -> Certificate:
    """Certify a candidate basis for the derivation module of a multiplicity
    on its own arrangement."""
    arrangement = multiplicity.arrangement
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
    required = multiplicity.values

    orders = tuple(contact_orders([m.coeffs for m in members],
                                  [h.form for h in arrangement.hyperplanes],
                                  arrangement.pivot_form))
    degree_sum = sum(member_degrees)
    mult_sum = multiplicity.total()

    base = dict(member_degrees=member_degrees, multiplicity=multiplicity, orders=orders)

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
    scalar = determinant_scalar(coefficient_matrix(members), multiplicity)
    if scalar == 0:
        return Certificate(verdict=VERDICT_DEPENDENT, failure={"determinant": "zero"}, **base)
    return Certificate(verdict=VERDICT_FREE, determinant_scalar=scalar, **base)


def determinant_scalar(matrix: PolyMatrix, multiplicity: Multiplicity) -> Scalar:
    """The c of det M = c * prod_H alpha_H^{m(H)}, for a polynomial matrix M
    whose determinant is known to have that shape on the multiplicity's
    arrangement: det M(p) over prod_H alpha_H(p)^{m(H)} at the first point p
    of ``poly.sample_points`` where no form vanishes.  It is 0 exactly when
    det M is.

    Both sides stay integer numerators until the one scalar at the end:
    row i of M(p) enters `integer_det` as its entries' numerators at p
    times the lcm L_i of their denominators, and the product of the kept
    values as the product of their numerators over that of their
    denominators."""
    arrangement = multiplicity.arrangement
    point, values = arrangement.generic_point
    d = arrangement.datum.disc
    for row in matrix.rows:
        for p in row:
            d = common_field(d, p.d)
    rows, scale = [], 1
    for row in matrix.rows:
        lcm = math.lcm(*(p.den for p in row))
        scale *= lcm
        rows.append([numerator_in(p, point, lcm // p.den, d) for p in row])
    # det M(p) / target = integer_det * den / num, num = the rows' scale times
    # the target's numerator and den its denominator
    num, den = (scale if d == 1 else (scale, 0)), 1
    for v, e in zip(values, multiplicity.values):
        vd, vn, vden = split_scalar(v)
        vn = vn if vd == d else (vn, 0)
        for _ in range(e):
            num = times(num, vn, d)
        den *= vden ** e
    value = integer_det(rows, d)
    if d == 1:
        return Fraction(value * den, num)
    # over Q(sqrt(d)), dividing by num is multiplying by its conjugate over its norm
    return join_scalar(d, times(value, (num[0] * den, -num[1] * den), d),
                       num[0] * num[0] - d * num[1] * num[1])


def graded_member_basis(multiplicity: Multiplicity, degree: int) -> list[Derivation]:
    """Basis of the degree-d piece of the derivation module, by constraints.

    Unknowns are the coefficients of a degree-d field; for each hyperplane
    the condition alpha^{m} | delta(alpha) becomes linear constraints on
    them, the coefficients of the first m division remainders of each
    monomial by alpha under one shared scale (`order_constraint_rows`).
    The kernel of the stacked constraints is the graded piece.
    """
    arrangement = multiplicity.arrangement
    n = arrangement.datum.rank
    if degree < 0:
        return []
    monos = list(monomials_of_degree(n, degree))
    unknowns = [(i, e) for i in range(n) for e in monos]
    echelon = Echelon(arrangement.datum.disc)
    d = echelon.d
    monomials = [Poly.monomial(n, e) for e in monos]
    for k, (h, m) in enumerate(zip(arrangement.hyperplanes, multiplicity.values)):
        if m <= 0:
            continue
        # (x^e d/dx_i) applied to the form is alpha_i x^e: the rows for x^e
        # times the numerator of each alpha_i
        alpha = [echelon.zero] * n
        for i, c in linear_numerators(h.form).items():
            alpha[i] = c if h.form.d == d else (c, 0)
        for row in order_constraint_rows(monomials, h.form, m, d,
                                         functools.partial(arrangement.pivot_form, k)):
            if d == 1:
                echelon.add([a * r for a in alpha for r in row])
            else:
                echelon.add([(a * ra + d * b * rb, a * rb + b * ra)
                             for a, b in alpha for ra, rb in row])
    fields = []
    for vec in echelon.kernel_basis(len(unknowns)):
        polys: list[dict] = [dict() for _ in range(n)]
        for (i, e), c in zip(unknowns, vec):
            if c != 0:
                polys[i][e] = c
        fields.append(Derivation([Poly(n, p) for p in polys]))
    return fields

