from __future__ import annotations

import bisect
import math
from fractions import Fraction

import pytest

from coxbasis.coxeter import build_group, identity_matrix, mat_mul, parse_type
from coxbasis.errors import NotDivisible
from coxbasis.invariants import compute_invariants
from coxbasis.scalars import scalar_inverse

_CACHE: dict[str, tuple] = {}
_CLOSURES: dict[str, tuple] = {}


@pytest.fixture(scope="session")
def pipeline():
    """Factory returning (group, arrangement, system) per type label,
    built once per session."""

    def get(label: str):
        if label not in _CACHE:
            datum = parse_type(label)
            group, arrangement = build_group(datum)
            system = compute_invariants(group, arrangement, cache_dir=None)
            _CACHE[label] = (group, arrangement, system)
        return _CACHE[label]

    return get


@pytest.fixture(scope="session")
def closure():
    """Factory returning every element of a group per type label, by a
    breadth-first closure of its generators in Fraction/Quad arithmetic.
    The package never enumerates a group; this is the test-only reference."""

    def get(label: str) -> tuple:
        if label not in _CLOSURES:
            generators = build_group(parse_type(label))[0].generators
            ident = identity_matrix(len(generators[0]))
            seen = {ident: None}
            frontier = [ident]
            while frontier:
                frontier = [w for w in (mat_mul(g, v) for v in frontier for g in generators)
                            if w not in seen and not seen.setdefault(w)]
            _CLOSURES[label] = tuple(seen)
        return _CLOSURES[label]

    return get


# Test-only reference linear algebra: elimination in Fraction/Quad arithmetic
# with normalized pivots.  The package eliminates on integer numerators in
# one kernel, ``coxbasis.linalg.Echelon``; these are what it is checked against.


def fraction_rref(rows):
    """Reduced row echelon form, zero rows last, and the list of pivot columns."""
    m = [list(row) for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
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


class FractionEchelon:
    """Scalar rows in reduced echelon form with leading ones, grown one
    vector at a time."""

    def __init__(self, rows=()):
        self.rows = list(rows)

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, v):
        v = list(v)
        for pivot, row in self.rows:
            f = v[pivot]
            if f != 0:
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def insert(self, reduced):
        pivot = next(k for k, a in enumerate(reduced) if a != 0)
        inv = scalar_inverse(reduced[pivot])
        new_row = [inv * a for a in reduced]
        for k, (p, row) in enumerate(self.rows):
            f = row[pivot]
            if f != 0:
                self.rows[k] = (p, [a - f * b for a, b in zip(row, new_row)])
        bisect.insort(self.rows, (pivot, new_row), key=lambda t: t[0])
        return pivot

    def add(self, v):
        red = self.reduce(v)
        if all(a == 0 for a in red):
            return None
        return self.insert(red)


def fraction_det(rows):
    """Determinant of a square scalar matrix by Gaussian elimination."""
    m = [list(row) for row in rows]
    n = len(m)
    out = Fraction(1)
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


def division_order(p, alpha):
    """Largest k with alpha^k dividing p, by repeated exact division in grlex
    order; ``math.inf`` for p = 0.  The test-only reference for
    ``coxbasis.poly.linear_form_order``."""
    if p.is_zero:
        return math.inf
    order = 0
    while True:
        try:
            p = p.divide_exact(alpha)
        except NotDivisible:
            return order
        order += 1
