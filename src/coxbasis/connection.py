"""The connection along the primitive direction and its inverse.

With basic invariants P_1 .. P_l fixed, the primitive derivation is
D = d/dP_l = (1/J) sum_i C_i d/dx_i, with the numerator field C and J
read off the system.  Applying the connection along D to a polynomial
field is exact division by J: `nabla_D` applies C to each coefficient
and divides the result by J.

The inverse direction solves nabla_D(delta') = delta inside the module of
invariant fields through the numerator C of D alone: coordinate i of
J nabla_D(delta') is C . grad(delta'_i).
Invariant polynomial fields decompose uniquely as
sum_j g_j(P) grad(P_j) with invariant polynomial coefficients g_j, so the
unknowns are the coefficients of the monomials g in the invariants.  The
cofactor identity D(P_m) = delta_{m,l} gives

    J * nabla_D(g(P) grad P_j) = J (dg/dP_l)(P) grad P_j + g(P) N_j,

with N_j = C . grad(grad P_j) by coordinates.  Evaluated at a point p of
the package's one point stream (``poly.sample_points``) with J(p) != 0,
each coordinate of this identity is one linear equation in the unknowns,
and no image field is ever expanded.  A solution of the polynomial system
solves every evaluated equation, so the evaluated rank never exceeds the
true rank: once it reaches the number of unknowns the solution is unique,
and an inconsistent evaluated equation proves there is none.  The single
candidate is then built in coordinates once, and the exact re-check
C . grad(delta') == J delta, multiplied out, decides the result.

Over Q the evaluated system is solved first modulo one prime, lifted and
checked exactly on the rows it kept (`linalg.solve_modular`): a full rank
mod the prime proves the solution unique just as the exact rank does.
The exact `Echelon` runs on the same rows only when that solve decides
nothing, and it alone gives the verdicts on the evaluated system: an
inconsistent equation (NoSolution) and a rank that stays short
(NonUniqueSolution).  Over Q(sqrt d) the system goes to `Echelon` directly.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterator, Sequence

from .derivations import Derivation
from .errors import NoSolution, NonUniqueSolution, NotPolynomial
from .invariants import FieldKey, InvariantSystem
from .linalg import Echelon, solve_modular, times
from .poly import Poly, numerator_in, sample_points
from .scalars import common_field


def nabla_D(delta: Derivation, system: InvariantSystem) -> Derivation:
    """Covariant derivative along the primitive direction D = d/dP_l.

    Raises NotPolynomial with the offending coordinate and remainder when
    some component of the result is not polynomial.
    """
    field = system.primitive_numerator
    coeffs = []
    for i, f in enumerate(delta.coeffs):
        quotient, remainder = field.apply(f).divrem(system.jacobian)
        if not remainder.is_zero:
            raise NotPolynomial(
                "component %d of the derivative along d/dP_%d is not polynomial"
                % (i, system.nvars), coordinate=i, remainder=remainder)
        coeffs.append(quotient)
    return Derivation(coeffs)


# points beyond the number of unknowns before a short rank counts as an alarm
_SPARE_POINTS = 10


def _scale(x, s: int):
    return x * s if isinstance(x, int) else (x[0] * s, x[1] * s)


def _plus(x, y):
    return x + y if isinstance(x, int) else (x[0] + y[0], x[1] + y[1])


def _evaluated_rows(delta: Derivation, system: InvariantSystem,
                    unknowns: Sequence[FieldKey], field: int) -> Iterator[list]:
    """Equations of nabla_D(delta') = delta, times J, at sample points, as
    integer rows over Q (field 1) or Q(sqrt(field)).

    Each point p of `poly.sample_points` with J(p) != 0 gives one row per
    coordinate i: the entry of unknown (j, g) is
    J(p) (dg/dP_l)(P(p)) grad_{j,i}(p) + g(P(p)) N_{j,i}(p), and the last
    entry is J(p) delta_i(p).  Every polynomial enters as its integer
    numerator at p (`Poly.numerator_at`) over its own denominator.  Row i
    is scaled by den(J) K_i, K_i the lcm of the denominators of delta_i,
    grad_{j,i} and den(C_k) den(d_k grad_{j,i}), and the column of (j, g) by
    prod_m den(P_m)^(g_m), so every entry is integral; `nabla_D_inverse`
    scales the solution back.  The stream ends after `_SPARE_POINTS` more
    such points than unknowns.  N_{j,i}(p) = sum_k C_k(p) d_k grad_{j,i}(p)
    is read from the primitive numerator field C and the first partials.
    """
    n = system.nvars
    last = n - 1
    grads = [g.coeffs for g in system.gradients]
    column = system.primitive_numerator.coeffs
    # partials[i][j][r] is d_r grad_{j,i}
    partials = [[[grads[j][i].partial(r) for r in range(n)] for j in range(n)] for i in range(n)]
    zero, one = (0, 1) if field == 1 else ((0, 0), (1, 0))

    def at(f: Poly, point, scale: int = 1):
        return numerator_in(f, point, scale, field)

    jd, d_last = system.jacobian.den, system.polys[last].den
    ks = [math.lcm(f.den, *(grads[j][i].den for j in range(n)),
                   *(c.den * dr.den for j in range(n) for c, dr in zip(column, partials[i][j])))
          for i, f in enumerate(delta.coeffs)]
    top = [max(exps[m] for _, exps in unknowns) for m in range(n)]
    used = 0
    for point in sample_points(n):
        jac = at(system.jacobian, point)
        if jac == zero:
            continue
        powers = []
        for m, p in enumerate(system.polys):
            value = at(p, point)
            powers.append([one])
            for _ in range(top[m]):
                powers[m].append(times(powers[m][-1], value, field))
        g_at = []
        dg_at = []
        for _, exps in unknowns:
            g = one
            for m, e in enumerate(exps):
                if e:
                    g = times(g, powers[m][e], field)
            g_at.append(g)
            e_last = exps[last]
            dg = _scale(jac, e_last * d_last)
            for m, e in enumerate(exps[:last] + (e_last - 1,)):
                if e_last and e:
                    dg = times(dg, powers[m][e], field)
            dg_at.append(dg)
        c_at = [at(c, point) for c in column]
        for i, (f, k) in enumerate(zip(delta.coeffs, ks)):
            gk = [at(grads[j][i], point, k // grads[j][i].den) for j in range(n)]
            # N_{j,i}(p) at the row's scale den(J) K_i
            ck = [functools.reduce(_plus, (times(x, at(dr, point, jd * k // (c.den * dr.den)), field)
                                           for x, c, dr in zip(c_at, column, partials[i][j])))
                  for j in range(n)]
            row = [_plus(times(dg, gk[j], field), times(g, ck[j], field))
                   for (j, _), g, dg in zip(unknowns, g_at, dg_at)]
            row.append(times(jac, at(f, point, k // f.den), field))
            yield row
        used += 1
        if used == len(unknowns) + _SPARE_POINTS:
            return


def _solution(rows: Iterator[list], size: int, field: int) -> list:
    """The unique solution of the evaluated rows in `size` unknowns: the
    modular solve's over Q, else Echelon's, which reads the rows the
    modular solve drew and then the rest of the stream, so no point is
    evaluated twice."""
    if field == 1:
        rows, replay = itertools.tee(rows)
        solution = solve_modular(rows, size)
        if solution is not None:
            return solution
        rows = replay
    echelon = Echelon(field)
    for row in rows:
        if echelon.add(row) == size:
            raise NoSolution("field has no polynomial preimage along the primitive "
                             "direction; input is likely not invariant")
        if echelon.rank == size:
            # rows in pivot order with pivots 0 .. size-1: the last column is the solution
            return echelon.column(size)
    raise NonUniqueSolution(
        "evaluated rank %d of %d after %d points; the preimage along the "
        "primitive direction is not proven unique"
        % (echelon.rank, size, size + _SPARE_POINTS))


def nabla_D_inverse(delta: Derivation, system: InvariantSystem) -> Derivation:
    """Solve nabla_D(delta') = delta for an invariant homogeneous delta.

    The unknowns are the Q[P]-coordinates of delta' = sum_j g_j(P) grad(P_j)
    in degree deg(delta) + h, listed by `InvariantSystem.field_keys`, and
    the solution is built from them by `InvariantSystem.compose_field`.
    Their equations come as integer rows from exact evaluation at points
    where J does not vanish (`_evaluated_rows`), and `_solution` takes them
    until their rank, modulo a prime or exact, equals the number of
    unknowns, which proves the solution unique.  The solution is then
    built in coordinates and re-verified exactly:
    C . grad(delta'_i) == J delta_i as polynomials, for every coordinate i.
    That re-check is the gate.

    NoSolution signals a non-invariant or otherwise malformed input: an
    evaluated equation is inconsistent (found by `Echelon`), or the unique
    candidate, from either solve, fails the re-check.  Every candidate is
    invariant and nabla_D keeps fields invariant, so the re-check rejects
    a non-invariant input without a separate invariance test.
    NonUniqueSolution signals that the rank stayed short after
    `_SPARE_POINTS` more points than unknowns; it is an internal alarm.
    """
    n = system.nvars
    if delta.is_zero:
        return Derivation.zero(n)
    if not delta.is_homogeneous():
        raise NoSolution("input field is not homogeneous")
    target_degree = delta.degree() + system.coxeter_number
    unknowns = system.field_keys(target_degree)
    if not unknowns:
        raise NoSolution("no invariant fields exist in degree %d" % target_degree)
    size = len(unknowns)

    field = functools.reduce(common_field, (f.d for f in delta.coeffs), system.field)
    solution = _solution(_evaluated_rows(delta, system, unknowns, field), size, field)
    # the product undoes the column scaling of `_evaluated_rows`
    out = system.compose_field({
        (j, exps): x * math.prod(p.den ** e for p, e in zip(system.polys, exps))
        for (j, exps), x in zip(unknowns, solution)})
    primitive = system.primitive_numerator
    if any(primitive.apply(f) != system.jacobian * g for f, g in zip(out.coeffs, delta.coeffs)):
        raise NoSolution("the unique candidate preimage along the primitive direction "
                         "failed re-verification; the field has no polynomial preimage")
    return out


def universal_field(k: int, system: InvariantSystem) -> Derivation:
    """The k-fold primitive antiderivative of the Euler field.

    The fields depend on the system alone, so it keeps them
    (``InvariantSystem.universal_fields``, keys 0 .. K): step k extends the
    longest one kept, and each new step is a full, re-checked
    `nabla_D_inverse`.  A step is stored only after its predecessor, so the
    keys stay contiguous, and two callers racing on one step store equal
    fields.
    """
    if k < 0:
        raise ValueError("negative antiderivative count")
    fields = system.universal_fields
    j = min(k, len(fields) - 1)
    field = fields[j]
    while j < k:
        j += 1
        field = fields[j] = nabla_D_inverse(field, system)
    return field
