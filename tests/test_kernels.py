"""The integer polynomial kernels against a scalar reference.

``Poly`` computes on integer numerators over a common denominator, keyed
by packed ints.  The reference is the plain dict-of-scalars arithmetic on
``Fraction`` and ``Quad`` coefficients, keyed by exponent tuples, that the
kernels replaced; it lives in conftest, except substitution's, below.  Random
polynomials over Q, Q(sqrt(5)) and Q(sqrt(2)) are pushed through both, and
the results must agree term by term.  The order kernel along linear forms
is checked against repeated exact division (``division_order`` in
conftest).
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from conftest import (act, division_order, linear_form_order, numerators, ref_add, ref_divrem,
                      ref_evaluate, ref_mul, ref_partial, same)

from coxbasis.coxeter import build_group, parse_type, reynolds
from coxbasis.poly import Poly
from coxbasis.scalars import Quad

FIELDS = [1, 5, 2]


# --- the scalar reference -------------------------------------------------


def ref_substitute(a, forms, nvars):
    out = {}
    for exps, c in a.items():
        term = {(0,) * nvars: c}
        for f, e in zip(forms, exps):
            for _ in range(e):
                term = ref_mul(term, f)
        out = ref_add(out, term)
    return out


# --- random inputs --------------------------------------------------------


def random_scalar(rng: random.Random, d: int):
    a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    if d == 1 or rng.random() < 0.3:
        return a
    return Quad(a, Fraction(rng.randint(-4, 4), rng.randint(1, 3)), d)


def random_terms(rng: random.Random, nvars: int, d: int, nterms: int, max_deg: int = 3):
    out = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        c = random_scalar(rng, d)
        if c != 0:
            out[exps] = c
    return out


# --- differential tests ---------------------------------------------------


@pytest.mark.parametrize("d", FIELDS)
def test_mul_and_add_match_reference(d):
    rng = random.Random(100 + d)
    for _ in range(25):
        n = rng.randint(1, 4)
        a = random_terms(rng, n, d, rng.randint(0, 7))
        b = random_terms(rng, n, d, rng.randint(0, 7))
        pa, pb = Poly(n, a), Poly(n, b)
        assert same(pa * pb, ref_mul(a, b))
        assert same(pa + pb, ref_add(a, b))
        assert same(pa - pb, ref_add(a, {e: -c for e, c in b.items()}))


def test_mul_mixes_rational_and_quadratic():
    rng = random.Random(3)
    a = random_terms(rng, 3, 1, 6)
    b = random_terms(rng, 3, 5, 6)
    assert same(Poly(3, a) * Poly(3, b), ref_mul(a, b))
    with pytest.raises(ValueError, match="mixed quadratic fields"):
        Poly.constant(1, Quad(0, 1, 5)) * Poly.constant(1, Quad(0, 1, 2))


def test_cancelled_sqrt_parts_demote_to_rationals():
    s5 = Poly.constant(2, Quad(0, 1, 5))
    square = s5 * s5
    assert square.d == 1 and square == Poly.constant(2, 5)
    assert (s5 - s5).is_zero


@pytest.mark.parametrize("d", FIELDS)
def test_partial_matches_reference(d):
    rng = random.Random(200 + d)
    for _ in range(25):
        n = rng.randint(1, 4)
        a = random_terms(rng, n, d, rng.randint(0, 8), max_deg=4)
        i = rng.randrange(n)
        assert same(Poly(n, a).partial(i), ref_partial(a, i))


@pytest.mark.parametrize("d", FIELDS)
def test_substitute_matches_reference(d):
    rng = random.Random(300 + d)
    for _ in range(15):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        a = random_terms(rng, n, d, rng.randint(0, 5))
        forms = [random_terms(rng, m, d, rng.randint(0, 3), max_deg=1) for _ in range(n)]
        result = Poly(n, a).substitute([Poly(m, f) for f in forms])
        assert same(result, ref_substitute(a, forms, m))


@pytest.mark.parametrize("d", FIELDS)
def test_evaluate_matches_reference(d):
    rng = random.Random(400 + d)
    for _ in range(25):
        n = rng.randint(1, 4)
        a = random_terms(rng, n, d, rng.randint(0, 8), max_deg=4)
        p = Poly(n, a)
        point = tuple(rng.randint(-5, 5) for _ in range(n))
        assert p.evaluate(point) == ref_evaluate(a, point)


@pytest.mark.parametrize("d", FIELDS)
def test_divrem_matches_reference(d):
    rng = random.Random(500 + d)
    for _ in range(25):
        n = rng.randint(1, 3)
        a = random_terms(rng, n, d, rng.randint(0, 8))
        b = {}
        while not b:
            b = random_terms(rng, n, d, rng.randint(1, 3), max_deg=2)
        quot, rem = Poly(n, a).divrem(Poly(n, b))
        ref_q, ref_r = ref_divrem(a, b)
        assert same(quot, ref_q)
        assert same(rem, ref_r)


@pytest.mark.parametrize("d", FIELDS)
def test_exact_division_by_fractional_forms(d):
    # forms whose monic numerators are not integral force the rescaling path
    rng = random.Random(600 + d)
    for _ in range(15):
        n = rng.randint(2, 3)
        form = {tuple(1 if j == i else 0 for j in range(n)): random_scalar(rng, d)
                for i in range(n)}
        form = {e: c for e, c in form.items() if c != 0} or {(1,) + (0,) * (n - 1): Fraction(2, 3)}
        q = random_terms(rng, n, d, rng.randint(1, 6))
        if not q:
            continue
        alpha = Poly(n, form)
        product = Poly(n, q) * alpha
        assert product.divrem(alpha) == (Poly(n, q), Poly.zero(n))
        quot, rem = (product + Poly.constant(n, Fraction(1, 7))).divrem(alpha)
        ref_q, ref_r = ref_divrem(ref_add(ref_mul(q, form), {(0,) * n: Fraction(1, 7)}), form)
        assert same(quot, ref_q) and same(rem, ref_r)


def test_representation_is_canonical():
    p = Poly(2, {(1, 0): Fraction(2, 3), (0, 1): Fraction(4, 9)})
    assert p.den == 9 and numerators(p) == {(1, 0): 6, (0, 1): 4}
    q = Poly(2, {(1, 0): Quad(Fraction(1, 2), Fraction(1, 2), 5)})
    assert (q.d, q.den, numerators(q)) == (5, 2, {(1, 0): (1, 1)})
    # the same polynomial reached two ways has one representation
    r = (p * Poly.constant(2, 3)).scale(Fraction(1, 3))
    assert r.num == p.num and (r.den, numerators(r)) == (p.den, numerators(p))
    assert hash(p + p - p) == hash(p)


def test_reynolds_matches_the_average_of_actions(closure):
    rng = random.Random(9)
    for label in ("B3", "H3", "I2(8)"):
        group, _ = build_group(parse_type(label))
        n = group.rank
        p = Poly(n, random_terms(rng, n, group.datum.disc, 3))
        total = Poly.zero(n)
        for w in closure(label):
            total = total + act(w, p)
        assert reynolds(group, p) == total.scale(Fraction(1, len(closure(label))))


# --- orders along linear forms --------------------------------------------


def random_form(rng: random.Random, nvars: int, d: int) -> Poly:
    """A nonzero linear form; some coefficients are zero, so the pivot varies."""
    while True:
        coeffs = [random_scalar(rng, d) if rng.random() < 0.75 else 0 for _ in range(nvars)]
        if any(c != 0 for c in coeffs):
            return Poly.linear(coeffs)


@pytest.mark.parametrize("d", FIELDS)
def test_linear_form_order_matches_repeated_division(d):
    rng = random.Random(700 + d)
    for _ in range(60):
        n = rng.randint(1, 3)
        alpha, beta = random_form(rng, n, d), random_form(rng, n, d)
        g = Poly(n, random_terms(rng, n, d, rng.randint(0, 4)))
        k, j = rng.randint(0, 3), rng.randint(0, 2)
        p = g * alpha ** k * beta ** j
        order = linear_form_order(p, alpha)
        assert order == division_order(p, alpha)
        assert order >= k


# alpha with fractional coefficients, a non-primitive numerator, a pivot
# coefficient other than +-1, and irrational coefficients at and off the pivot
R5, R2 = Quad(0, 1, 5), Quad(0, 1, 2)
PHI = Quad(Fraction(1, 2), Fraction(1, 2), 5)
FORMS = [
    [Fraction(2, 3), Fraction(-4, 3), 0],
    [6, 10, 0],
    [2, 3, 5],
    [0, Fraction(-3, 2), Fraction(9, 4)],
    [1, PHI, 0],
    [2, R5, 1],
    [1 + R5, R5, 0],
    [R5, -R5, 0],
    [R2, -1, 0],
    [2, 0, R2 * 3],
]


@pytest.mark.parametrize("coeffs", FORMS, ids=str)
def test_linear_form_order_on_chosen_forms(coeffs):
    alpha = Poly.linear(coeffs)
    x, y, z = (Poly.variable(3, i) for i in range(3))
    beta = x * 3 - y + z * 2
    rng = random.Random(800)
    d = alpha.d
    for k in range(4):
        for g in (x * y + z * 5 + Poly.constant(3, 7),
                  Poly(3, random_terms(rng, 3, d, 4)),
                  beta ** 2):
            for p in (g * alpha ** k, (g * alpha ** k).scale(Fraction(5, 7))):
                assert linear_form_order(p, alpha) == division_order(p, alpha)
                assert linear_form_order(p, alpha) >= k


def test_linear_form_order_edge_cases():
    x, y, z = (Poly.variable(3, i) for i in range(3))
    alpha = x * 2 + y * 3  # pivot x, the smaller coefficient
    p = (alpha ** 2 * (y - z)).scale(Fraction(1, 14))
    assert p.den == 14 and linear_form_order(p, alpha) == 2
    assert linear_form_order(y ** 3 + z * y * Fraction(1, 2), alpha) == 0
    assert linear_form_order(Poly.constant(3, Fraction(3, 4)), alpha) == 0
    assert linear_form_order(Poly.zero(3), alpha) == float("inf")
    assert linear_form_order(alpha.scale(Fraction(-1, 9)) ** 3 * (z + x), alpha) == 3
    assert linear_form_order(alpha ** 2 * z, alpha.scale(R5)) == 2
