"""Exact linear algebra over scalar fields and polynomial rings.

Scalar matrices (entries Fraction or Quad) get reduced row echelon form,
kernel bases, inversion and determinants, and an incremental echelon that
grows one vector at a time.  Polynomials and fields enter this linear
algebra through one vectorizer, `coefficient_vector`, over the columns
`monomial_columns` numbers.  Pivoting always takes the first nonzero entry
in a fixed scan order, so every result is deterministic.

Polynomial matrices get determinants by cofactor expansion.  The package
needs them only for the Jacobian cofactors; where the theory fixes a
determinant up to a scalar, that scalar comes from the scalar determinant
of the matrix evaluated at one point.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from typing import Iterable, Sequence

from .poly import Exponents, Poly, monomials_of_degree
from .scalars import Scalar, scalar_inverse

Matrix = list[list[Scalar]]
# column of the coefficient of x^exponents in polynomial `position` of a tuple
Columns = dict[tuple[int, Exponents], int]


def monomial_columns(width: int, nvars: int, degree: int) -> Columns:
    """Columns for tuples of `width` homogeneous polynomials of one degree:
    position-major, then descending grlex, as `monomials_of_degree` yields."""
    keys = ((i, e) for i in range(width) for e in monomials_of_degree(nvars, degree))
    return {key: k for k, key in enumerate(keys)}


def coefficient_vector(polys: Sequence[Poly], columns: Columns) -> list[Scalar]:
    """The coefficients of a tuple of polynomials as one vector in `columns`."""
    v: list[Scalar] = [Fraction(0)] * len(columns)
    for i, f in enumerate(polys):
        for exps, coeff in f.terms.items():
            v[columns[(i, exps)]] = coeff
    return v


def rref(rows: Sequence[Sequence[Scalar]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    m = [list(row) for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = scalar_inverse(m[r][c])
        m[r] = [inv * v for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


class Echelon:
    """Rows in reduced echelon form, grown one vector at a time.

    Each row has a 1 in its pivot column, every other row has a 0 there,
    and the rows are kept in pivot order, so one pass over them reduces a
    vector.  Rows are replaced, never changed in place, so a shallow copy
    of ``rows`` is a checkpoint that can be assigned back.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[tuple[int, list[Scalar]]] = ()) -> None:
        self.rows: list[tuple[int, list[Scalar]]] = list(rows)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, v: Sequence[Scalar]) -> list[Scalar]:
        """The vector minus its components along the rows."""
        v = list(v)
        for pivot, row in self.rows:
            f = v[pivot]
            if f != 0:
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def insert(self, reduced: Sequence[Scalar]) -> int:
        """Add a nonzero vector that `reduce` returned; returns its pivot column."""
        pivot = next(k for k, a in enumerate(reduced) if a != 0)
        inv = scalar_inverse(reduced[pivot])
        new_row = [inv * a for a in reduced]
        for k, (p, row) in enumerate(self.rows):
            f = row[pivot]
            if f != 0:
                self.rows[k] = (p, [a - f * b for a, b in zip(row, new_row)])
        bisect.insort(self.rows, (pivot, new_row), key=lambda t: t[0])
        return pivot

    def add(self, v: Sequence[Scalar]) -> int | None:
        """Reduce a vector and keep it if it is nonzero.

        Returns the pivot column of the new row, or None when the vector
        lies in the span of the rows.
        """
        red = self.reduce(v)
        if all(a == 0 for a in red):
            return None
        return self.insert(red)


def rank(rows: Sequence[Sequence[Scalar]]) -> int:
    return len(rref(rows)[1])


def kernel_basis(rows: Sequence[Sequence[Scalar]], ncols: int | None = None) -> list[list[Scalar]]:
    """Basis of the right kernel, one vector per free column, in column order."""
    if ncols is None:
        if not rows:
            raise ValueError("kernel of an empty matrix needs an explicit column count")
        ncols = len(rows[0])
    if not rows:
        return [[Fraction(1) if j == i else Fraction(0) for j in range(ncols)] for i in range(ncols)]
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis: list[list[Scalar]] = []
    for f in free:
        v: list[Scalar] = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][f]
        basis.append(v)
    return basis


def det(rows: Sequence[Sequence[Scalar]]) -> Scalar:
    """Determinant of a square scalar matrix by exact elimination."""
    m = [list(row) for row in rows]
    n = len(m)
    if n == 0 or any(len(row) != n for row in m):
        raise ValueError("determinant needs a nonempty square matrix")
    out: Scalar = Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            out = -out
        out = out * m[c][c]
        inv = scalar_inverse(m[c][c])
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return out


def invert_matrix(rows: Sequence[Sequence[Scalar]]) -> Matrix:
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix inversion needs a square matrix")
    aug = [list(r) + [Fraction(1) if j == i else Fraction(0) for j in range(n)]
           for i, r in enumerate(rows)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red[:n]]


class PolyMatrix:
    """A rectangular matrix of polynomials with exact determinants."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence[Poly]]) -> None:
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged polynomial matrix")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", len(rows[0]) if rows else 0)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PolyMatrix is immutable")

    def entry(self, i: int, j: int) -> Poly:
        return self.rows[i][j]

    def minor(self, drop_row: int, drop_col: int) -> "PolyMatrix":
        return PolyMatrix([
            [e for j, e in enumerate(row) if j != drop_col]
            for i, row in enumerate(self.rows) if i != drop_row
        ])

    def evaluate(self, point: Sequence[Scalar]) -> Matrix:
        """The scalar matrix of the entries' values at a point."""
        return [[e.evaluate(point) for e in row] for row in self.rows]

    def det(self) -> Poly:
        """Determinant by cofactor expansion along the first column."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        if self.nrows == 0:
            raise ValueError("determinant of an empty matrix")
        return _det_cofactor(self.rows)


def _det_cofactor(rows: list[list[Poly]]) -> Poly:
    n = len(rows)
    nvars = rows[0][0].nvars
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    out = Poly.zero(nvars)
    for i in range(n):
        entry = rows[i][0]
        if entry.is_zero:
            continue
        sub = [[rows[r][c] for c in range(1, n)] for r in range(n) if r != i]
        term = entry * _det_cofactor(sub)
        out = out + term if i % 2 == 0 else out - term
    return out
