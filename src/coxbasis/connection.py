"""The primitive direction of the connection and its inverse.

With basic invariants P_1 .. P_l fixed, the primitive derivation is
D = d/dP_l.  Applying the connection along D to a polynomial field is
exact division by the Jacobian: the numerator of D(f) is the determinant
of the Jacobian matrix with its last column replaced by the partials of
f, equivalently sum_k C[k][l-1] df/dx_k over the cofactors, and nabla_D
divides that by J coordinate-wise.

The inverse direction solves nabla_D(delta') = delta inside the module of
invariant fields.  Invariant polynomial fields decompose uniquely as
sum_j g_j grad(P_j) with invariant polynomial coefficients g_j, so the
solver parametrizes delta' over monomials in the invariants times the
gradient fields and solves one exact linear system.  The solution must
exist and be unique for invariant input; both failure modes raise.
"""

from __future__ import annotations

from fractions import Fraction

from .coxeter import ReflectionGroup, is_invariant_derivation
from .derivations import Derivation, euler_field
from .errors import NoSolution, NonUniqueSolution, NotDivisible, NotPolynomial
from .invariants import InvariantSystem
from .linalg import solve_linear
from .poly import Poly
from .scalars import Scalar


def primitive_numerator(f: Poly, system: InvariantSystem) -> Poly:
    """Numerator of D(f): the last Jacobian column replaced by grad f."""
    n = system.nvars
    last = n - 1
    out = Poly.zero(n)
    for k in range(n):
        cof = system.cofactors[k][last]
        if cof.is_zero:
            continue
        part = f.partial(k)
        if not part.is_zero:
            out = out + cof * part
    return out


def partial_P_numerator(f: Poly, j: int, system: InvariantSystem) -> Poly:
    """Numerator of (d/dP_j)(f), via column j of the cofactor matrix."""
    n = system.nvars
    out = Poly.zero(n)
    for k in range(n):
        cof = system.cofactors[k][j]
        if cof.is_zero:
            continue
        part = f.partial(k)
        if not part.is_zero:
            out = out + cof * part
    return out


def nabla_D(delta: Derivation, system: InvariantSystem) -> Derivation:
    """Covariant derivative along the primitive direction.

    Raises NotPolynomial with the offending coordinate and remainder when
    some component of the result is not polynomial.
    """
    coeffs = []
    for i, f in enumerate(delta.coeffs):
        num = primitive_numerator(f, system)
        try:
            coeffs.append(num.divide_exact(system.jacobian))
        except NotDivisible as exc:
            raise NotPolynomial(
                "component %d of the derivative along the primitive direction "
                "is not polynomial" % i, coordinate=i, remainder=exc.remainder) from exc
    return Derivation(coeffs)


def invariant_field_basis(system: InvariantSystem, degree: int) -> list[tuple[tuple[int, int, tuple[int, ...]], Derivation]]:
    """Basis of the invariant polynomial fields of one coefficient degree.

    Every invariant field of degree d is uniquely sum_j g_j grad(P_j)
    with g_j an invariant polynomial of degree d - (deg P_j - 1).  The
    basis therefore consists of invariant monomials times gradients; each
    entry is keyed by (j, degree of g, exponents of g).
    """
    out = []
    for j, d in enumerate(system.degrees):
        g_degree = degree - (d - 1)
        if g_degree < 0:
            continue
        for exps in system.invariant_exponents(g_degree):
            g = system.expand(exps)
            out.append(((j, g_degree, exps), system.gradients[j] * g))
    return out


def nabla_D_inverse(delta: Derivation, system: InvariantSystem,
                    group: ReflectionGroup) -> Derivation:
    """Solve nabla_D(delta') = delta for an invariant homogeneous delta.

    The solution is found inside the invariant fields of degree
    deg(delta) + h and re-verified by applying nabla_D to it.  NoSolution
    signals a non-invariant or otherwise malformed input; NonUniqueSolution
    signals an internal inconsistency and should never happen.
    """
    n = system.nvars
    if delta.is_zero:
        return Derivation.zero(n)
    if not delta.is_homogeneous():
        raise NoSolution("input field is not homogeneous")
    if not is_invariant_derivation(group, delta):
        raise NoSolution("input field is not invariant")
    target_degree = delta.degree() + system.coxeter_number
    basis = invariant_field_basis(system, target_degree)
    if not basis:
        raise NoSolution("no invariant fields exist in degree %d" % target_degree)

    # image of each basis field under nabla_D, kept as numerators over J
    images = []
    for _, field in basis:
        images.append([primitive_numerator(f, system) for f in field.coeffs])
    targets = [system.jacobian * f for f in delta.coeffs]

    monomials: dict[tuple[int, tuple[int, ...]], int] = {}
    for i in range(n):
        for img in images:
            for exps in img[i].terms:
                monomials.setdefault((i, exps), len(monomials))
        for exps in targets[i].terms:
            monomials.setdefault((i, exps), len(monomials))
    rows: list[list[Scalar]] = [[Fraction(0)] * len(basis) for _ in monomials]
    rhs: list[Scalar] = [Fraction(0)] * len(monomials)
    for u, img in enumerate(images):
        for i in range(n):
            for exps, coeff in img[i].terms.items():
                rows[monomials[(i, exps)]][u] = coeff
    for i in range(n):
        for exps, coeff in targets[i].terms.items():
            rhs[monomials[(i, exps)]] = coeff

    try:
        particular, kernel = solve_linear(rows, rhs)
    except NoSolution:
        raise NoSolution("field has no polynomial preimage along the primitive "
                         "direction; input is likely not invariant")
    if kernel:
        raise NonUniqueSolution("preimage along the primitive direction is not unique")

    out = Derivation.zero(n)
    for c, (_, field) in zip(particular, basis):
        if c != 0:
            out = out + field * Poly.constant(n, c)
    check = nabla_D(out, system)
    if check != delta:
        raise NonUniqueSolution("solved preimage failed re-verification")
    return out


def universal_field(k: int, system: InvariantSystem, group: ReflectionGroup) -> Derivation:
    """The k-fold primitive antiderivative of the Euler field."""
    if k < 0:
        raise ValueError("negative antiderivative count")
    field = euler_field(system.nvars)
    for _ in range(k):
        field = nabla_D_inverse(field, system, group)
    return field
