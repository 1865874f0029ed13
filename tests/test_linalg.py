from __future__ import annotations

import random
from fractions import Fraction

import pytest

from coxbasis.linalg import (
    Echelon,
    PolyMatrix,
    det,
    invert_matrix,
    kernel_basis,
    rank,
    rref,
)
from coxbasis.poly import Poly
from coxbasis.scalars import Quad


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
    basis = kernel_basis(rows, 5)
    assert len(basis) == 5 - rank(rows)
    for vec in basis:
        for row in rows:
            assert sum(r * v for r, v in zip(row, vec)) == 0


def test_kernel_basis_no_rows():
    basis = kernel_basis([], 3)
    assert len(basis) == 3
    assert rank(basis) == 3


def test_echelon_reduces_and_adds_only_new_directions():
    echelon = Echelon()
    assert echelon.add([Fraction(0), Fraction(2), Fraction(4)]) == 1
    assert echelon.add([Fraction(3), Fraction(1), Fraction(2)]) == 0
    # in the span: reduced to zero and not kept
    assert echelon.add([Fraction(6), Fraction(5), Fraction(10)]) is None
    assert echelon.rank == 2
    # fully inter-reduced, in pivot order, with leading ones
    assert echelon.rows == [(0, [Fraction(1), Fraction(0), Fraction(0)]),
                            (1, [Fraction(0), Fraction(1), Fraction(2)])]
    assert echelon.reduce([Fraction(1), Fraction(1), Fraction(5)]) == [0, 0, 3]


def test_echelon_matches_rref_on_random_rows():
    rng = random.Random(29)
    for _ in range(20):
        rows = [[Fraction(rng.randint(-2, 2)) for _ in range(5)] for _ in range(rng.randint(1, 6))]
        echelon = Echelon()
        for row in rows:
            echelon.add(row)
        reduced, pivots = rref(rows)
        assert echelon.rows == list(zip(pivots, reduced))


def test_echelon_checkpoint_and_quadratic_entries():
    r5 = Quad(0, 1, 5)
    echelon = Echelon([(0, [Fraction(1), Fraction(0)])])
    checkpoint = list(echelon.rows)
    assert echelon.add([r5, r5 + 1]) == 1
    assert echelon.rank == 2
    echelon.rows = checkpoint
    assert echelon.rank == 1
    assert echelon.rows == [(0, [Fraction(1), Fraction(0)])]


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
            point = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(2)]
            assert poly_det.evaluate(point) == det(m.evaluate(point))


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
    assert m.entry(0, 1) == one
    assert m.minor(0, 0).det() == x
    assert m.det() == x * x - one
