"""Differential checks of the Jacobian and the connection against sympy.

sympy is a test-only reference, never a runtime dependency; without it
these tests are skipped.  From the basic invariants alone, in sympy's
polynomial arithmetic over Q or Q(sqrt(5)), they recompute on A1-A3, B2,
B3, G2 and I2(5):

  * the expanded Jacobian determinant, which must equal c * Q for the
    recorded scalar c and the defining polynomial Q;
  * the derivative along the primitive direction D = d/dP_l as
    sum_i (dx_i/dP_l) df/dx_i, with dx/dP the inverse of the Jacobian
    matrix (dP_j/dx_i), against `nabla_D` on seeded random invariant fields;
  * nabla_D of nabla_D_inverse, which must give each field back.

On seeded random rational matrices up to 8 x 9, some of them rank
deficient, `rref`, `det` and `Echelon.kernel_basis` are also checked against
sympy's ``rref``, ``det`` and ``nullspace``.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from conftest import echelon_of

from coxbasis.connection import nabla_D, nabla_D_inverse, universal_field
from coxbasis.errors import NotPolynomial
from coxbasis.invariants import invariant_field_basis
from coxbasis.linalg import det, rref
from coxbasis.poly import Poly
from coxbasis.scalars import Quad
from coxbasis.verify import random_invariant_derivation

sympy = pytest.importorskip("sympy")

LABELS = ["A1", "A2", "A3", "B2", "B3", "G2", "I2(5)"]


class Reference:
    """One group's invariants in sympy, with the determinant and the
    adjugate of their Jacobian matrix A[j, i] = dP_j/dx_i."""

    def __init__(self, polys: tuple[Poly, ...], disc: int) -> None:
        n = len(polys)
        self.xs = sympy.symbols("x0:%d" % n)
        self.domain = sympy.QQ if disc == 1 else sympy.QQ.algebraic_field(sympy.sqrt(disc))
        self.root = None if disc == 1 else self.domain.from_sympy(sympy.sqrt(disc))
        exprs = [self.poly(p).as_expr() for p in polys]
        jac = sympy.Matrix(n, n, lambda j, i: sympy.diff(exprs[j], self.xs[i]))
        self.det = self.poly_of(jac.det(method="berkowitz"))
        # dx/dP = A^-1 = adj(A) / det(A)
        adj = jac.adjugate(method="berkowitz")
        self.adj = [[self.poly_of(adj[i, j]) for j in range(n)] for i in range(n)]

    def scalar(self, c):
        if isinstance(c, Quad):
            return self.scalar(c.a) + self.scalar(c.b) * self.root
        return self.domain.convert(sympy.Rational(c.numerator, c.denominator))

    def poly_of(self, expr):
        return sympy.Poly(expr, *self.xs, domain=self.domain)

    def poly(self, p: Poly):
        terms = {e: self.scalar(c) for e, c in p.terms.items()}
        return sympy.Poly.from_dict(terms or {(0,) * len(self.xs): self.domain.zero},
                                    *self.xs, domain=self.domain)

    def partial_P_times_det(self, f: Poly, j: int):
        """det(A) * sum_i (dx_i/dP_j) df/dx_i."""
        g = self.poly(f)
        return sum((self.adj[i][j] * g.diff(x) for i, x in enumerate(self.xs)),
                   self.poly_of(0))


@pytest.fixture(scope="module")
def reference(pipeline):
    cache = {}

    def get(label):
        if label not in cache:
            group, _, system = pipeline(label)
            cache[label] = Reference(system.polys, group.datum.disc)
        return cache[label]

    return get


def sample_fields(system, seed):
    """U_1 and two seeded random invariant fields in each of the two
    smallest degrees that have invariant fields."""
    rng = random.Random(seed)
    degrees = [d for d in range(1, 2 * system.coxeter_number + 1)
               if invariant_field_basis(system, d)][:2]
    fields = [universal_field(1, system)]
    for d in degrees:
        fields += [random_invariant_derivation(system, d, rng) for _ in range(2)]
    return fields


@pytest.mark.parametrize("label", LABELS)
def test_jacobian_determinant_is_scalar_times_defining_polynomial(pipeline, reference, label):
    _, arrangement, system = pipeline(label)
    ref = reference(label)
    assert system.jacobian_scalar != 0
    expected = ref.poly(arrangement.defining_polynomial).mul_ground(
        ref.scalar(system.jacobian_scalar))
    assert ref.det == expected


@pytest.mark.parametrize("label", LABELS)
def test_nabla_partial_P_matches_the_inverse_jacobian(pipeline, reference, label):
    _, _, system = pipeline(label)
    ref = reference(label)
    outcomes = {"polynomial": 0, "not polynomial": 0}
    last = system.nvars - 1
    for delta in sample_fields(system, 2002):
        expected = [ref.partial_P_times_det(f, last) for f in delta.coeffs]
        try:
            out = nabla_D(delta, system)
        except NotPolynomial as exc:
            assert not expected[exc.coordinate].rem(ref.det).is_zero
            outcomes["not polynomial"] += 1
            continue
        assert [ref.poly(f) * ref.det for f in out.coeffs] == expected
        outcomes["polynomial"] += 1
    # U_1 stays polynomial along D; a random field need not
    assert outcomes["polynomial"] >= 1
    assert outcomes["not polynomial"] > 0


@pytest.mark.parametrize("label", LABELS)
def test_nabla_D_inverts_nabla_D_inverse(pipeline, reference, label):
    _, _, system = pipeline(label)
    ref = reference(label)
    last = system.nvars - 1
    for delta in sample_fields(system, 2003):
        lifted = nabla_D_inverse(delta, system)
        assert nabla_D(lifted, system) == delta
        assert ([ref.partial_P_times_det(f, last) for f in lifted.coeffs]
                == [ref.poly(f) * ref.det for f in delta.coeffs])


def rational_matrices(seed: int, square: bool = False):
    """Seeded random rational matrices up to 8 x 9; about a third of them
    are products through a smaller inner dimension, so rank deficient."""
    rng = random.Random(seed)
    for _ in range(12):
        nrows = rng.randint(1, 8)
        ncols = nrows if square else rng.randint(1, 9)
        if rng.random() < 0.35:
            inner = rng.randint(0, min(nrows, ncols))
            left = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(nrows)]
            right = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(ncols)]
                     for _ in range(inner)]
            yield [[sum((a * r[c] for a, r in zip(row, right)), Fraction(0)) for c in range(ncols)]
                   for row in left]
        else:
            yield [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(ncols)]
                   for _ in range(nrows)]


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                         for row in rows])


def test_rref_and_kernel_match_sympy():
    for rows in rational_matrices(8):
        reference = to_sympy(rows)
        expected, expected_pivots = reference.rref()
        reduced, pivots = rref(rows)
        assert pivots == list(expected_pivots)
        assert to_sympy(reduced) == expected
        kernel = echelon_of(rows).kernel_basis(len(rows[0]))
        assert [to_sympy([v]).T for v in kernel] == reference.nullspace()


def test_det_matches_sympy():
    for rows in rational_matrices(9, square=True):
        assert to_sympy([[det(rows)]])[0, 0] == to_sympy(rows).det()
