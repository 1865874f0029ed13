from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from conftest import (FractionEchelon, det, echelon_of, fraction_det, fraction_rref,
                      kernel_basis, laplace_det, rank)

from coxbasis.linalg import (
    Echelon,
    PolyMatrix,
    invert_matrix,
    rref,
)
from coxbasis.poly import Poly
from coxbasis.scalars import Quad, split_scalars


def random_poly(rng: random.Random, nvars: int, max_deg: int) -> Poly:
    out = Poly.zero(nvars)
    for _ in range(3):
        exps = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        out = out + Poly.monomial(nvars, exps, Fraction(rng.randint(-3, 3)))
    return out


def test_rref_and_rank():
    rows = [
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(2), Fraction(4), Fraction(6)],
        [Fraction(0), Fraction(1), Fraction(1)],
    ]
    reduced, pivots = rref(rows)
    assert pivots == [0, 1]
    assert rank(rows) == 2
    assert reduced[0] == [Fraction(1), Fraction(0), Fraction(1)]
    assert reduced[1] == [Fraction(0), Fraction(1), Fraction(1)]


def test_kernel_basis_annihilates_rows():
    rng = random.Random(5)
    rows = [[Fraction(rng.randint(-4, 4)) for _ in range(5)] for _ in range(3)]
    basis = echelon_of(rows).kernel_basis(5)
    assert len(basis) == 5 - rank(rows)
    for vec in basis:
        for row in rows:
            assert sum(r * v for r, v in zip(row, vec)) == 0


def test_kernel_basis_no_rows():
    basis = Echelon().kernel_basis(3)
    assert len(basis) == 3
    assert rank(basis) == 3


def test_echelon_reduces_and_adds_only_new_directions():
    echelon = Echelon()
    assert echelon.add([0, 2, 4]) == 1
    assert echelon.add([3, 1, 2]) == 0
    # in the span: reduced to zero and not kept
    assert echelon.add([6, 5, 10]) is None
    assert echelon.rank == 2
    # fully inter-reduced, in pivot order; the boundary view has leading ones
    assert echelon.scalar_rows() == [(0, [Fraction(1), Fraction(0), Fraction(0)]),
                                     (1, [Fraction(0), Fraction(1), Fraction(2)])]
    # the integer rows carry no common factor
    assert echelon.rows == [(0, [1, 0, 0]), (1, [0, 1, 2])]
    # a reduction is known up to a nonzero scale: [0, 0, 3] over its content
    assert echelon.reduce([1, 1, 5]) == [0, 0, 1]


def test_echelon_matches_rref_on_random_rows():
    rng = random.Random(29)
    for _ in range(20):
        rows = [[rng.randint(-2, 2) for _ in range(5)] for _ in range(rng.randint(1, 6))]
        echelon = Echelon()
        for row in rows:
            echelon.add(row)
        reduced, pivots = rref([[Fraction(a) for a in row] for row in rows])
        assert echelon.scalar_rows() == list(zip(pivots, reduced))


def test_echelon_checkpoint_and_quadratic_entries():
    # over Q(sqrt 5) the rows are int pairs (a, b) standing for a + b*sqrt(5)
    r5 = Quad(0, 1, 5)
    echelon = Echelon(5)
    assert echelon.add([(1, 0), (0, 0)]) == 0
    checkpoint = list(echelon.rows)
    assert echelon.add([(0, 1), (1, 1)]) == 1
    assert echelon.rank == 2
    assert echelon.scalar_rows() == [(0, [Fraction(1), Fraction(0)]),
                                     (1, [Fraction(0), Fraction(1)])]
    echelon.rows = checkpoint
    assert echelon.rank == 1
    assert echelon.scalar_rows() == [(0, [Fraction(1), Fraction(0)])]
    # the pivot is made rational by the conjugate; the view divides it out
    assert echelon.add([(0, 0), (0, 2)]) == 1
    pivot_entry = echelon.rows[1][1][1]
    assert pivot_entry[0] != 0 and pivot_entry[1] == 0
    assert echelon.add([(0, 1), (1, 1)]) is None
    assert rref([[r5, r5 + 1]]) == ([[Fraction(1), (r5 + 1) / r5]], [0])


def test_echelon_reduce_rejects_a_shorter_vector():
    echelon = Echelon()
    echelon.add([1, 2, 3])
    with pytest.raises(ValueError):
        echelon.reduce([1, 2])


def test_echelon_add_rejects_a_longer_vector():
    echelon = Echelon()
    echelon.add([1, 2, 3])
    with pytest.raises(ValueError):
        echelon.add([0, 1, 2, 3])
    assert echelon.rows == [(0, [1, 2, 3])]


def test_echelon_insert_rejects_the_zero_vector():
    echelon = Echelon()
    with pytest.raises(ValueError):
        echelon.insert([0, 0, 0])
    with pytest.raises(ValueError):
        Echelon(5).insert([(0, 0), (0, 0)])


@pytest.mark.parametrize("ncols", [2, 4])
def test_kernel_basis_rejects_a_column_count_unlike_the_rows(ncols):
    rows = [[Fraction(1), Fraction(2), Fraction(3)]]
    with pytest.raises(ValueError):
        echelon_of(rows).kernel_basis(ncols)


def random_scalar(rng: random.Random, d: int):
    a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    if d == 1 or rng.random() < 0.3:
        return a
    return a + Fraction(rng.randint(-3, 3), rng.randint(1, 2)) * Quad(0, 1, d)


def random_matrix(rng: random.Random, d: int, nrows: int, ncols: int):
    """Full rank or the product of random nrows x r and r x ncols matrices
    for a smaller r, with about one row in ten zeroed."""
    full = min(nrows, ncols)
    r = full if rng.random() < 0.7 else rng.randint(0, full)
    left = [[random_scalar(rng, d) for _ in range(r)] for _ in range(nrows)]
    right = [[random_scalar(rng, d) for _ in range(ncols)] for _ in range(r)]
    return [[Fraction(0)] * ncols if rng.random() < 0.1 else
            [sum((a * row[c] for a, row in zip(lrow, right)), Fraction(0)) for c in range(ncols)]
            for lrow in left]


def seeded_matrices(d: int, square: bool = False):
    rng = random.Random(1000 + d)
    for _ in range(20):
        nrows = rng.randint(1, 6)
        yield random_matrix(rng, d, nrows, nrows if square else rng.randint(1, 6))


@pytest.mark.parametrize("d", [1, 5, 2])
def test_kernel_matches_the_fraction_reference(d):
    for rows in seeded_matrices(d):
        ncols = len(rows[0])
        reduced, pivots = rref(rows)
        assert (reduced, pivots) == fraction_rref(rows)
        assert rank(rows) == len(pivots)
        assert echelon_of(rows).kernel_basis(ncols) == kernel_basis(rows, ncols)
    for square in seeded_matrices(d, square=True):
        assert det(square) == fraction_det(square)
        if fraction_det(square) != 0:
            n = len(square)
            aug = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(square)]
            assert invert_matrix(square) == [row[n:] for row in fraction_rref(aug)[0]]
        else:
            with pytest.raises(ValueError):
                invert_matrix(square)


@pytest.mark.parametrize("d", [1, 5, 2])
def test_echelon_solves_augmented_systems_like_the_reference(d):
    # consistent and inconsistent right-hand sides; add returns the augmented
    # column exactly when a row makes the system inconsistent
    rng = random.Random(2000 + d)
    inconsistent = 0
    for rows in seeded_matrices(d):
        ncols = len(rows[0])
        sol = [random_scalar(rng, d) for _ in range(ncols)]
        rhs = [sum((a * x for a, x in zip(row, sol)), Fraction(0)) for row in rows]
        if rng.random() < 0.5:
            rhs[rng.randrange(len(rhs))] += 1
        augmented = [row + [b] for row, b in zip(rows, rhs)]
        field, nums, _ = split_scalars([x for row in augmented for x in row])
        echelon, reference = Echelon(field), FractionEchelon()
        for k, row in enumerate(augmented):
            got = echelon.add(nums[k * (ncols + 1):(k + 1) * (ncols + 1)])
            assert got == reference.add(row)
            inconsistent += got == ncols
        assert echelon.scalar_rows() == reference.rows
        assert echelon.column(ncols) == [row[ncols] for _, row in reference.rows]
    assert inconsistent > 0


def test_invert_matrix():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    inv = invert_matrix(m)
    assert inv == [[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(2)]]


def test_det_two_by_two_formula():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    m = PolyMatrix([[x * 2, x * y * y * 2], [y * 2, x * x * y * 2]])
    expected = x ** 3 * y * 4 - x * y ** 3 * 4
    assert m.det() == expected


def test_cofactor_det_matches_scalar_det_at_points():
    rng = random.Random(17)
    for n in (2, 3, 4, 5):
        entries = [[random_poly(rng, 2, 2) for _ in range(n)] for _ in range(n)]
        m = PolyMatrix(entries)
        poly_det = m.det()
        for _ in range(3):
            point = [rng.randint(-9, 9) for _ in range(2)]
            assert poly_det.evaluate(point) == det([[e.evaluate(point) for e in row]
                                                    for row in entries])


def test_scalar_det_pivots_and_rejects_bad_shapes():
    # a zero leading entry forces a row swap, which flips the sign
    assert det([[Fraction(0), Fraction(2)], [Fraction(3), Fraction(1)]]) == -6
    assert det([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 0
    r5 = Quad(0, 1, 5)
    assert det([[r5, Fraction(1)], [Fraction(1), r5]]) == 4
    with pytest.raises(ValueError):
        det([[Fraction(1), Fraction(2)]])
    with pytest.raises(ValueError):
        det([])


def test_det_scalar_matrix_matches_fraction_elimination():
    rng = random.Random(23)
    n = 4
    scalars = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
    entries = [[Poly.constant(1, value) for value in row] for row in scalars]
    det = PolyMatrix(entries).det()
    # Oracle: Laplace expansion over Fractions.

    def scalar_det(m):
        if len(m) == 1:
            return m[0][0]
        total = Fraction(0)
        for j in range(len(m)):
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * m[0][j] * scalar_det(minor)
        return total

    expected = scalar_det(scalars)
    assert det == Poly.constant(1, expected)


def test_minor_and_entry():
    x = Poly.variable(1, 0)
    one = Poly.constant(1, 1)
    m = PolyMatrix([[x, one], [one, x]])
    assert m.rows[0][1] == one
    assert m.det() == x * x - one


def test_wedge_minors_match_laplace_expansion():
    rng = random.Random(29)
    for n, k in ((3, 1), (3, 2), (4, 3), (5, 3), (5, 5)):
        entries = [[random_poly(rng, 2, 2) for _ in range(n)] for _ in range(n)]
        columns = rng.sample(range(n), k)
        minors = PolyMatrix(entries).wedge(columns)
        assert len(minors) == math.comb(n, k)
        for rows, minor in minors.items():
            assert minor == laplace_det([[entries[i][c] for c in columns] for i in rows])


def test_wedge_rejects_bad_shapes():
    x = Poly.variable(1, 0)
    with pytest.raises(ValueError):
        PolyMatrix([[x, x]]).wedge([0, 1])
    with pytest.raises(ValueError):
        PolyMatrix([[x], [x]]).det()
    assert PolyMatrix([[x], [x]]).wedge([]) == {(): Poly.constant(1, 1)}
