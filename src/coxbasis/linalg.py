"""Exact linear algebra over scalar fields and polynomial rings.

Elimination runs in two kernels.  `solve_modular` solves an integer
system with a unique solution over Q modulo one prime, lifts it and
checks it exactly; where it cannot settle a system it returns None and
decides nothing.  `Echelon`, the exact kernel, does all other elimination
on integer numerators: ints over Q, int pairs (a, b) for a + b*sqrt(d)
over Q(sqrt(d)), as in ``poly``.  Its rows stay in reduced echelon form
with unnormalized pivots, and a vector is reduced by cross-multiplying
over the gcd of its components, so no fraction is formed.
`rref` and `invert_matrix` convert Fraction/Quad matrices at the boundary
(`split_scalars`, `join_scalar`); polynomials enter through
`numerator_vector`, and `Echelon.kernel_basis` reads kernels back as
scalars.  Pivots are the first nonzero entries in column order, so
results are deterministic.
Scalar determinants have one kernel, `integer_det`: fraction-free
elimination on the same integer numerators (Bareiss, Math. Comp. 22,
1968), where every intermediate entry is a minor, so each division by
the previous pivot is exact, in Z or in Z[sqrt(d)].  `det` is that kernel
on a Fraction/Quad matrix over its common denominator.
Polynomial matrices have one minor routine, `PolyMatrix.wedge`, the
exterior product of columns built one column at a time; their
determinants and the primitive numerator field are read off it.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from itertools import chain, combinations, product
from typing import Iterable, Sequence

from .poly import Poly, monomial_keys, monomials_of_degree
from .scalars import Scalar, join_scalar, split_scalars

Matrix = list[list[Scalar]]
# column of the coefficient of a monomial's key in polynomial `position` of a tuple
Columns = dict[tuple[int, int], int]


def monomial_columns(width: int, nvars: int, degree: int) -> Columns:
    """Columns for tuples of `width` homogeneous polynomials of one degree:
    position-major, then descending grlex, as `monomials_of_degree` yields."""
    keys = monomial_keys(list(monomials_of_degree(nvars, degree)), nvars)
    return {key: k for k, key in enumerate(product(range(width), keys))}


def numerator_vector(polys: Sequence[Poly], columns: Columns, d: int) -> list:
    """The coefficients of a tuple of polynomials over Q (d = 1) or
    Q(sqrt(d)) as one integer vector in `columns`, times a positive integer."""
    v = [0 if d == 1 else (0, 0)] * len(columns)
    den = math.lcm(*(f.den for f in polys))
    for i, f in enumerate(polys):
        if f.d not in (1, d):
            raise ValueError("polynomial over Q(sqrt(%d)) in a vector over field %d" % (f.d, d))
        s = den // f.den
        for k, c in f.num.items():
            v[columns[(i, k)]] = (c * s if d == 1 else (c * s, 0) if f.d == 1
                                  else (c[0] * s, c[1] * s))
    return v


def _primitive(v: list, d: int) -> list:
    """The vector over the gcd of its integer components."""
    g = math.gcd(*(v if d == 1 else chain.from_iterable(v)))
    if g <= 1:
        return v
    return [a // g for a in v] if d == 1 else [(a // g, b // g) for a, b in v]


def _eliminate(v: list, row: list, p: int, d: int) -> list:
    """row[p]*v - v[p]*row over its content; row[p] is a nonzero rational
    integer, stored as (row[p][0], 0) when d > 1."""
    if d == 1:
        s, f = row[p], v[p]
        g = math.gcd(s, f)
        s, f = s // g, f // g
        return _primitive([s * a - f * b for a, b in zip(v, row)], d)
    s, (fa, fb) = row[p][0], v[p]
    g = math.gcd(s, fa, fb)
    s, fa, fb = s // g, fa // g, fb // g
    dfb = d * fb
    return _primitive([(s * a - fa * ra - dfb * rb, s * b - fa * rb - fb * ra)
                       for (a, b), (ra, rb) in zip(v, row)], d)


class Echelon:
    """Integer rows over Q (d = 1) or Q(sqrt(d)) in reduced echelon form,
    grown one vector at a time: (pivot column, row) pairs in pivot order.

    A row has a nonzero rational integer at its pivot, every other row has
    0 there, and its components have no common factor, so one pass over the
    rows reduces a vector.  Rows are replaced, never changed in place, so a
    shallow copy of ``rows`` is a checkpoint that can be assigned back.
    """

    __slots__ = ("d", "zero", "rows")

    def __init__(self, d: int = 1) -> None:
        self.d = d
        self.zero = 0 if d == 1 else (0, 0)
        self.rows: list[tuple[int, list]] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _check(self, v: Sequence) -> None:
        if self.rows and len(v) != len(self.rows[0][1]):
            raise ValueError("vector of length %d for rows of length %d"
                             % (len(v), len(self.rows[0][1])))

    def reduce(self, v: Sequence) -> list:
        """The vector minus its components along the rows, times a nonzero integer."""
        self._check(v)
        v = list(v)
        for p, row in self.rows:
            if v[p] != self.zero:
                v = _eliminate(v, row, p, self.d)
        return v

    def insert(self, reduced: Sequence) -> int:
        """Add a nonzero vector that `reduce` returned; returns its pivot column."""
        self._check(reduced)
        d, zero = self.d, self.zero
        pivot = next((k for k, a in enumerate(reduced) if a != zero), None)
        if pivot is None:
            raise ValueError("cannot insert a zero vector")
        if d != 1 and reduced[pivot][1]:
            # times the conjugate of the pivot, which makes the pivot its norm
            ca, cb = reduced[pivot][0], -reduced[pivot][1]
            reduced = [(a * ca + d * b * cb, a * cb + b * ca) for a, b in reduced]
        new = _primitive(list(reduced), d)
        for k, (p, row) in enumerate(self.rows):
            if row[pivot] != zero:
                self.rows[k] = (p, _eliminate(row, new, pivot, d))
        bisect.insort(self.rows, (pivot, new), key=lambda t: t[0])
        return pivot

    def add(self, v: Sequence) -> int | None:
        """Reduce a vector and keep it if it is nonzero.

        Returns the pivot column of the new row, or None when the vector
        lies in the span of the rows.
        """
        red = self.reduce(v)
        if all(a == self.zero for a in red):
            return None
        return self.insert(red)

    def scalar_rows(self) -> list[tuple[int, list[Scalar]]]:
        """The boundary view: each row as scalars over its pivot entry."""
        return [(p, [self._scalar(a, row[p]) for a in row]) for p, row in self.rows]

    def column(self, c: int) -> list[Scalar]:
        """Column c of `scalar_rows`."""
        return [self._scalar(row[c], row[p]) for p, row in self.rows]

    def kernel_basis(self, ncols: int) -> list[list[Scalar]]:
        """Basis of the right kernel of the rows in ``ncols`` columns, one
        scalar vector per free column, in column order."""
        if self.rows and ncols != len(self.rows[0][1]):
            raise ValueError("kernel in %d columns of rows of length %d"
                             % (ncols, len(self.rows[0][1])))
        pivots = {p for p, _ in self.rows}
        basis: list[list[Scalar]] = []
        for f in range(ncols):
            if f in pivots:
                continue
            v: list[Scalar] = [Fraction(0)] * ncols
            v[f] = Fraction(1)
            for (p, _), c in zip(self.rows, self.column(f)):
                v[p] = -c
            basis.append(v)
        return basis

    def _scalar(self, a, pivot) -> Scalar:
        return join_scalar(self.d, a, pivot if self.d == 1 else pivot[0])


# the one modulus of `solve_modular`, the Mersenne prime 2^127 - 1
PRIME = (1 << 127) - 1


def solve_modular(rows: Iterable[Sequence[int]], size: int) -> list[Fraction] | None:
    """The unique solution of integer rows [A | b] in `size` unknowns, or None.

    Rows are drawn until the rank of A mod PRIME reaches `size`.  Each is
    reduced mod PRIME against the rows kept so far, in pivot order, and
    kept when it is independent of them.  A nonzero minor mod PRIME is
    nonzero over Z, so the kept square system has one solution x over Q.
    Dixon lifting (Numer. Math. 40, 1982) solves it mod PRIME^s, and
    rational reconstruction (Wang, SYMSAC 1981) reads candidates off that
    until one satisfies every kept integer row exactly.

    None means the modular solve decides nothing: the rows ran out with
    the rank mod PRIME short, a row was inconsistent mod PRIME, or the
    modulus passed twice the square of the kept system's Hadamard bound
    without a candidate.  The rows it drew are then for an exact
    elimination to read again.
    """
    p = PRIME
    kept: list[Sequence[int]] = []
    pivots: list[int] = []
    tails: dict[int, list[int]] = {}  # pivot -> its row mod p from the pivot on, pivot entry 1
    steps: list[tuple[int, int, list]] = []  # per kept row: pivot, inverse, [(pivot, factor)]
    for row in rows:
        r = [a % p for a in row]
        ops = []
        for c in pivots:
            f = r[c] % p
            if f:
                r[c:] = [a - f * b for a, b in zip(r[c:], tails[c])]
                ops.append((c, f))
        pivot = next((c for c, a in enumerate(r) if a % p), None)
        if pivot is None:
            continue
        if pivot == size:
            return None
        inverse = pow(r[pivot], -1, p)
        tails[pivot] = [a * inverse % p for a in r[pivot:]]
        bisect.insort(pivots, pivot)
        steps.append((pivot, inverse, ops))
        kept.append(row)
        if len(kept) == size:
            break
    else:
        return None

    def solve_mod_p(rhs: list[int]) -> list[int]:
        # the forward pass's row operations on rhs, then back-substitution
        t = {}
        for v, (pivot, inverse, ops) in zip(rhs, steps):
            t[pivot] = (v - sum(f * t[c] for c, f in ops)) * inverse % p
        y = [0] * size
        for c in range(size - 1, -1, -1):
            y[c] = (t[c] - sum(a * v for a, v in zip(tails[c][1:], y[c + 1:]))) % p
        return y

    # x = sum_i y_i p^i with A y_i = r_i mod p, r_0 = b and r_(i+1) = (r_i - A y_i) / p;
    # zipped with `size` values, a kept row leaves out its b
    residual = [row[size] for row in kept]
    lifted, modulus, cap = [0] * size, 1, None
    while True:
        y = solve_mod_p(residual)
        lifted = [x + modulus * v for x, v in zip(lifted, y)]
        modulus *= p
        candidate = _reconstruct(lifted, modulus)
        if candidate is not None:
            nums, den = candidate
            if all(sum(a * x for a, x in zip(row, nums)) == den * row[size] for row in kept):
                return [Fraction(x, den) for x in nums]
        if cap is None:
            # by Cramer and Hadamard, x's numerators and denominators are below 2^bits
            bits = sum((sum(a * a for a in row).bit_length() + 1) // 2 for row in kept)
            cap = 1 << (2 * bits + 1)
        if modulus > cap:
            return None
        residual = [(c - sum(a * v for a, v in zip(row, y))) // p
                    for row, c in zip(kept, residual)]


def _reconstruct(residues: list[int], modulus: int) -> tuple[list[int], int] | None:
    """Integers x_j and den > 0 with x_j = den * residue_j mod modulus, each
    x_j / den read by Wang's rational reconstruction with numerator and
    denominator at most sqrt(modulus / 2), or None where one has none.
    Each residue is first multiplied by the denominators found so far, so
    a component over them needs no reconstruction of its own."""
    half = modulus >> 1
    bound = math.isqrt(half)
    den = 1
    nums: list[int] = []
    for u in residues:
        v = u * den % modulus
        if v > half:
            v -= modulus
        if abs(v) > bound:
            # extended Euclid on (modulus, v): r_i = s_i v mod modulus, until r_i <= bound
            r0, r1, s0, s1 = modulus, v % modulus, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
            if abs(s1) > bound:
                return None
            v, s = (r1, s1) if s1 > 0 else (-r1, -s1)
            nums = [x * s for x in nums]
            den *= s
            if den > bound:
                return None
        nums.append(v)
    return nums, den


def _numerators(rows: Sequence[Sequence[Scalar]]) -> tuple[int, list[list], int]:
    """Integer rows of a nonempty scalar matrix over one common denominator."""
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError("ragged matrix")
    d, nums, den = split_scalars([x for row in rows for x in row])
    return d, [nums[k:k + width] for k in range(0, len(nums), width or 1)], den


def rref(rows: Sequence[Sequence[Scalar]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form, zero rows last, and the list of pivot columns."""
    if not rows:
        return [], []
    d, nums, _ = _numerators(rows)
    echelon = Echelon(d)
    for row in nums:
        echelon.add(row)
    zeros = [[Fraction(0)] * len(rows[0]) for _ in range(len(rows) - echelon.rank)]
    return [row for _, row in echelon.scalar_rows()] + zeros, [p for p, _ in echelon.rows]


def times(x, y, d: int):
    """Product of two integer numerators: ints, or int pairs when d > 1."""
    if d == 1:
        return x * y
    return (x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def integer_det(rows: Sequence[Sequence], d: int):
    """Determinant of a nonempty square matrix of integer numerators: an int
    over Q (d = 1), an int pair over Q(sqrt(d)).

    Fraction-free Gaussian elimination (Bareiss): step k replaces each
    entry below and right of the pivot p_k by (p_k*a - f*b) / p_(k-1),
    which is a minor of the matrix, so the division is exact.  Over
    Q(sqrt(d)) it divides by the conjugate over the norm, a rational
    integer.  A zero pivot is swapped with the first nonzero entry below
    it, negating the result; a zero column gives 0.
    """
    m = [list(row) for row in rows]
    n = len(m)
    zero = 0 if d == 1 else (0, 0)
    sign, prev = 1, 1 if d == 1 else (1, 0)
    for k in range(n - 1):
        p = next((i for i in range(k, n) if m[i][0] != zero), None)
        if p is None:
            return zero
        if p != k:
            m[k], m[p] = m[p], m[k]
            sign = -sign
        head = m[k][1:]
        if d == 1:
            pk = m[k][0]
            for i in range(k + 1, n):
                f = m[i][0]
                m[i] = [(pk * a - f * b) // prev for a, b in zip(m[i][1:], head)]
        else:
            (pa, pb), (ra, rb) = m[k][0], prev
            norm, rb = ra * ra - d * rb * rb, -rb
            for i in range(k + 1, n):
                fa, fb = m[i][0]
                row = []
                for (a, b), (ha, hb) in zip(m[i][1:], head):
                    xa = pa * a + d * pb * b - fa * ha - d * fb * hb
                    xb = pa * b + pb * a - fa * hb - fb * ha
                    row.append(((xa * ra + d * xb * rb) // norm, (xa * rb + xb * ra) // norm))
                m[i] = row
        prev = m[k][0]
    out = m[n - 1][0]
    if sign > 0:
        return out
    return -out if d == 1 else (-out[0], -out[1])


def det(rows: Sequence[Sequence[Scalar]]) -> Scalar:
    """Determinant of a square scalar matrix: `integer_det` of its integer
    numerators over the n-th power of their common denominator."""
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ValueError("determinant needs a nonempty square matrix")
    d, nums, den = _numerators(rows)
    return join_scalar(d, integer_det(nums, d), den ** n)


def invert_matrix(rows: Sequence[Sequence[Scalar]]) -> Matrix:
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix inversion needs a square matrix")
    red, pivots = rref([list(r) + [Fraction(int(i == j)) for j in range(n)]
                        for i, r in enumerate(rows)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


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

    def wedge(self, columns: Sequence[int]) -> dict[tuple[int, ...], Poly]:
        """The exterior product of the given columns, in order: the maximal
        minors of the submatrix they form, keyed by increasing row tuples.

        The minors of the first k columns come from those of the first
        k - 1 by one Laplace step along column k, so each minor is
        computed once and nothing recurses.
        """
        if not self.ncols or len(columns) > self.nrows:
            raise ValueError("wedge of %d columns in a %d x %d matrix"
                             % (len(columns), self.nrows, self.ncols))
        nvars = self.rows[0][0].nvars
        minors = {(): Poly.constant(nvars, 1)}
        for k, c in enumerate(columns, 1):
            entries = [row[c] for row in self.rows]
            step = {}
            for rows in combinations(range(self.nrows), k):
                # expand along the new column, the last of k: entry t has
                # sign (-1)^(t + k - 1) and the minor of the other rows
                acc = Poly.zero(nvars)
                for t, i in enumerate(rows):
                    term = entries[i] * minors[rows[:t] + rows[t + 1:]]
                    acc = acc - term if (k - 1 - t) % 2 else acc + term
                step[rows] = acc
            minors = step
        return minors

    def det(self) -> Poly:
        """Determinant: the wedge of all columns."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        if self.nrows == 0:
            raise ValueError("determinant of an empty matrix")
        return self.wedge(range(self.ncols))[tuple(range(self.nrows))]
