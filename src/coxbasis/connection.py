"""The connection along the invariant directions and its primitive inverse.

With basic invariants P_1 .. P_l fixed, the field d/dP_j has the
polynomial numerator `partial_P_field` over the Jacobian J.  Applying the
connection along d/dP_j to a polynomial field is exact division by J:
`nabla_partial_P` applies the numerator field to each coefficient and
divides the result by J.  The primitive derivation is D = d/dP_l, and
nabla_D is the case j = l - 1.

The inverse direction solves nabla_D(delta') = delta inside the module of
invariant fields.  Invariant polynomial fields decompose uniquely as
sum_j g_j(P) grad(P_j) with invariant polynomial coefficients g_j, so the
unknowns are the coefficients of the monomials g in the invariants.  The
cofactor identity D(P_m) = delta_{m,l} gives

    J * nabla_D(g(P) grad P_j) = J (dg/dP_l)(P) grad P_j + g(P) N_j,

with N_j the numerator of D applied to grad P_j.  Evaluated at an exact
point p with J(p) != 0, each coordinate of this identity is one linear
equation in the unknowns, and no image field is ever expanded.  A solution
of the polynomial system solves every evaluated equation, so the evaluated
rank never exceeds the true rank: once it reaches the number of unknowns
the solution is unique, and an inconsistent evaluated equation proves
there is none.  The single candidate is then built in coordinates once,
and the exact re-check nabla_D(delta') == delta decides the result.
"""

from __future__ import annotations

import math
import random
from typing import Iterator

from .derivations import Derivation, euler_field
from .errors import NoSolution, NonUniqueSolution, NotDivisible, NotPolynomial
from .invariants import InvariantSystem, partial_P_field
from .linalg import Echelon
from .poly import Poly
from .scalars import Scalar


def nabla_partial_P(delta: Derivation, j: int, system: InvariantSystem) -> Derivation:
    """Covariant derivative along d/dP_j (j counted from 0).

    Raises NotPolynomial with the offending coordinate and remainder when
    some component of the result is not polynomial.
    """
    field, jacobian = partial_P_field(system, j)
    coeffs = []
    for i, f in enumerate(delta.coeffs):
        try:
            coeffs.append(field.apply(f).divide_exact(jacobian))
        except NotDivisible as exc:
            raise NotPolynomial(
                "component %d of the derivative along d/dP_%d is not polynomial"
                % (i, j + 1), coordinate=i, remainder=exc.remainder) from exc
    return Derivation(coeffs)


def nabla_D(delta: Derivation, system: InvariantSystem) -> Derivation:
    """Covariant derivative along the primitive direction D = d/dP_l."""
    return nabla_partial_P(delta, system.nvars - 1, system)


# the inverse evaluates at a fixed stream of small integer points in general
# position; the moment curve of `point_off` will not do, because an image in
# the ideal of that curve vanishes at every point of it
_POINT_SEED = 2002
_POINT_RANGE = 9
# points beyond the number of unknowns before a short rank counts as an alarm
_SPARE_POINTS = 10


def _sample_points(nvars: int) -> Iterator[tuple[int, ...]]:
    """The fixed, endless stream of points `nabla_D_inverse` evaluates at."""
    rng = random.Random(_POINT_SEED)
    while True:
        yield tuple(rng.randint(-_POINT_RANGE, _POINT_RANGE) for _ in range(nvars))


def _evaluated_rows(delta: Derivation, system: InvariantSystem,
                    unknowns: list[tuple[int, tuple[int, ...]]]) -> Iterator[list[Scalar]]:
    """Equations of nabla_D(delta') = delta, times J, at sample points.

    Each point p of `_sample_points` with J(p) != 0 gives one row per
    coordinate i: the entry of unknown (j, g) is
    J(p) (dg/dP_l)(P(p)) grad_{j,i}(p) + g(P(p)) N_{j,i}(p), and the last
    entry is J(p) delta_i(p).  The stream ends after `_SPARE_POINTS` more
    such points than unknowns.
    """
    last = system.nvars - 1
    numerators = system.gradient_numerators
    used = 0
    for point in _sample_points(system.nvars):
        jac = system.jacobian.evaluate(point)
        if jac == 0:
            continue
        values = [p.evaluate(point) for p in system.polys]
        grads = [[f.evaluate(point) for f in g.coeffs] for g in system.gradients]
        nums = [[f.evaluate(point) for f in row] for row in numerators]
        g_at = []
        dg_at = []
        for _, exps in unknowns:
            g_at.append(math.prod(v ** e for v, e in zip(values, exps) if e))
            e_last = exps[last]
            if e_last:
                lowered = exps[:last] + (e_last - 1,)
                dg_at.append(jac * e_last * math.prod(
                    v ** e for v, e in zip(values, lowered) if e))
            else:
                dg_at.append(0)
        for i, f in enumerate(delta.coeffs):
            row = [dg * grads[j][i] + g * nums[j][i]
                   for (j, _), g, dg in zip(unknowns, g_at, dg_at)]
            row.append(jac * f.evaluate(point))
            yield row
        used += 1
        if used == len(unknowns) + _SPARE_POINTS:
            return


def nabla_D_inverse(delta: Derivation, system: InvariantSystem) -> Derivation:
    """Solve nabla_D(delta') = delta for an invariant homogeneous delta.

    The unknowns are the coefficients of delta' = sum_j g_j(P) grad(P_j)
    in degree deg(delta) + h, keyed like `invariants.invariant_field_basis`.
    Their equations come from exact evaluation at points where J does not
    vanish (`_evaluated_rows`), reduced into one incremental echelon until
    its rank equals the number of unknowns, which proves the solution
    unique.  The solution is then built in coordinates and re-verified
    exactly by applying nabla_D to it; that re-check is the gate.

    NoSolution signals a non-invariant or otherwise malformed input: an
    evaluated equation is inconsistent, or the unique candidate fails the
    re-check.  Every candidate is invariant and nabla_D keeps fields
    invariant, so the re-check rejects a non-invariant input without a
    separate invariance test.  NonUniqueSolution signals that the rank
    stayed short after `_SPARE_POINTS` more points than unknowns; it is
    an internal alarm.
    """
    n = system.nvars
    if delta.is_zero:
        return Derivation.zero(n)
    if not delta.is_homogeneous():
        raise NoSolution("input field is not homogeneous")
    target_degree = delta.degree() + system.coxeter_number
    unknowns = [(j, exps) for j, d in enumerate(system.degrees)
                for exps in system.invariant_exponents(target_degree - (d - 1))]
    if not unknowns:
        raise NoSolution("no invariant fields exist in degree %d" % target_degree)
    size = len(unknowns)

    echelon = Echelon()
    for row in _evaluated_rows(delta, system, unknowns):
        if echelon.add(row) == size:
            raise NoSolution("field has no polynomial preimage along the primitive "
                             "direction; input is likely not invariant")
        if echelon.rank == size:
            break
    else:
        raise NonUniqueSolution(
            "evaluated rank %d of %d after %d points; the preimage along the "
            "primitive direction is not proven unique"
            % (echelon.rank, size, size + _SPARE_POINTS))

    # rows are in pivot order with pivots 0 .. size-1; the last column is the solution
    out = Derivation.zero(n)
    for j, grad in enumerate(system.gradients):
        g_j = Poly.zero(n)
        for (jj, exps), (_, row) in zip(unknowns, echelon.rows):
            if jj == j and row[size] != 0:
                g_j = g_j + system.expand(exps).scale(row[size])
        if not g_j.is_zero:
            out = out + grad * g_j
    try:
        verified = nabla_D(out, system) == delta
    except NotPolynomial:
        # only an exact preimage is sure to have a polynomial image
        verified = False
    if not verified:
        raise NoSolution("the unique candidate preimage along the primitive direction "
                         "failed re-verification; the field has no polynomial preimage")
    return out


def universal_field(k: int, system: InvariantSystem) -> Derivation:
    """The k-fold primitive antiderivative of the Euler field."""
    if k < 0:
        raise ValueError("negative antiderivative count")
    field = euler_field(system.nvars)
    for _ in range(k):
        field = nabla_D_inverse(field, system)
    return field
