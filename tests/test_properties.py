"""Property tests of polynomials, scalars and the group action.

They need hypothesis and are skipped without it: the packed polynomial
kernels against the tuple-keyed reference of conftest in 1 to 7
variables, the ring axioms, the division identity, orders along linear
forms adding up, contact constraint rows vanishing exactly on the
combinations of high order, the contact orders of fields at the forms of
H3 and I2(5) agreeing with repeated exact division, a field applied to a
polynomial agreeing with the sum of its coefficients times the partials,
the order of ``Quad`` agreeing with the sign of a difference, the report
format round trip, its term lists and its writer, the action of the
group composing along its closure, and the incremental echelon agreeing
with the reduced row echelon form of the same rows.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from conftest import (act, division_contact_orders, fraction_det, grlex_key, laplace_det,
                      linear_form_order, ref_add, ref_divrem, ref_evaluate, ref_mul, ref_order,
                      ref_partial, same, tuple_mul_num)

from coxbasis.certify import order_constraint_rows
from coxbasis.coxeter import build_group, mat_mul, parse_type
from coxbasis.derivations import Derivation
from coxbasis.linalg import Echelon, PolyMatrix, det, integer_det, rref
from coxbasis.poly import Poly, contact_orders, poly_from_json, poly_to_json
from coxbasis.report import dump_json
from coxbasis.scalars import Quad, format_scalar, join_scalar, parse_scalar, split_scalars

FIELDS = [1, 5, 2]

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def polys(draw, nvars=2, field=None):
    d = draw(st.sampled_from(FIELDS)) if field is None else field
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        exps = tuple(draw(st.integers(0, 3)) for _ in range(nvars))
        a = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
        b = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))) if d > 1 else 0
        terms[exps] = Quad(a, b, d) if b else a
    return Poly(nvars, terms)


@st.composite
def tuple_terms(draw, nvars, d, count=5):
    """Up to ``count`` random terms {exponent tuple: scalar} of degree at most
    4, over Q or Q(sqrt(d)); a term's degree is spread over its variables."""
    terms = {}
    for _ in range(draw(st.integers(0, count))):
        exps = [0] * nvars
        for i in draw(st.lists(st.integers(0, nvars - 1), max_size=4)):
            exps[i] += 1
        a = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
        b = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))) if d > 1 else 0
        if a or b:
            terms[tuple(exps)] = Quad(a, b, d) if b else a
    return terms


def tuple_numerators(terms, d):
    """The numerators of a term dict, keyed by exponent tuples, over its
    denominator, as the field d stores them."""
    fd, nums, den = split_scalars(list(terms.values()))
    return dict(zip(terms, nums if fd == d else [(c, 0) for c in nums])), den


KERNEL_CASES = st.tuples(st.integers(1, 7), st.sampled_from([1, 5])).flatmap(
    lambda nd: st.tuples(st.just(nd[0]), st.just(nd[1]), tuple_terms(*nd), tuple_terms(*nd),
                         st.integers(0, nd[0] - 1),
                         st.lists(st.integers(-5, 5), min_size=nd[0], max_size=nd[0])))


@SETTINGS
@given(KERNEL_CASES)
def test_packed_kernels_match_the_tuple_keyed_reference(case):
    n, d, a, b, i, point = case
    pa, pb = Poly(n, a), Poly(n, b)
    (na, da), (nb, db) = tuple_numerators(a, d), tuple_numerators(b, d)
    assert same(pa * pb, {e: join_scalar(d, c, da * db)
                          for e, c in tuple_mul_num(na, nb, d).items()})
    assert same(pa * pb, ref_mul(a, b))
    assert same(pa + pb, ref_add(a, b))
    assert same(pa - pb, ref_add(a, {e: -c for e, c in b.items()}))
    assert same(pa.partial(i), ref_partial(a, i))
    assert join_scalar(pa.d, pa.numerator_at(point), pa.den) == ref_evaluate(a, point)
    assert pa.is_homogeneous() == (len({sum(e) for e in a}) <= 1)
    ordered = sorted(a.items(), key=lambda t: grlex_key(t[0]), reverse=True)
    if a:
        assert pa.leading_term() == ordered[0]
    assert poly_to_json(pa) == [[list(e), format_scalar(c)] for e, c in ordered]
    assert poly_from_json(json.loads(json.dumps(poly_to_json(pa))), n) == pa


@SETTINGS
@given(KERNEL_CASES, st.data())
def test_packed_division_and_orders_match_the_tuple_keyed_reference(case, data):
    n, d, a, b, i, point = case
    if b:
        quot, rem = Poly(n, a).divrem(Poly(n, b))
        ref_quot, ref_rem = ref_divrem(a, b)
        assert same(quot, ref_quot) and same(rem, ref_rem)
    # a field of n coefficients at a nonzero linear form
    coeffs = [data.draw(tuple_terms(n, d, count=3)) for _ in range(n)]
    alpha = {}
    for j in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)):
        ra = Fraction(data.draw(st.integers(1, 5) | st.integers(-5, -1)),
                      data.draw(st.integers(1, 3)))
        rb = data.draw(st.integers(-2, 2)) if d > 1 else 0
        alpha[tuple(int(k == j) for k in range(n))] = Quad(ra, rb, d) if rb else ra
    applied = {}
    for e, c in alpha.items():
        applied = ref_add(applied, ref_mul(coeffs[e.index(1)], {(0,) * n: c}))
    orders = contact_orders([[Poly(n, c) for c in coeffs]], [Poly(n, alpha)])
    assert orders == [(ref_order(applied, alpha),)]


@SETTINGS
@given(st.sampled_from(FIELDS).flatmap(lambda d: st.tuples(polys(field=d), polys(field=d),
                                                           polys(field=d))))
def test_ring_axioms(triple):
    a, b, c = triple
    zero, one = Poly.zero(2), Poly.constant(2, 1)
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and (a - a).is_zero


@SETTINGS
@given(st.sampled_from(FIELDS).flatmap(lambda d: st.tuples(polys(field=d), polys(field=d))))
def test_divrem_identity(pair):
    p, divisor = pair
    hypothesis.assume(not divisor.is_zero)
    quot, rem = p.divrem(divisor)
    assert quot * divisor + rem == p
    lt, _ = divisor.leading_term()
    assert not any(all(x >= y for x, y in zip(e, lt)) for e in rem.terms)


@st.composite
def linear_forms(draw, nvars=2, field=1):
    coeffs = []
    for _ in range(nvars):
        a = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        b = Fraction(draw(st.integers(-2, 2)), draw(st.integers(1, 2))) if field > 1 else 0
        coeffs.append(Quad(a, b, field) if b else a)
    hypothesis.assume(any(c != 0 for c in coeffs))
    return Poly.linear(coeffs)


@SETTINGS
@given(st.sampled_from(FIELDS).flatmap(lambda d: st.tuples(linear_forms(field=d), polys(field=d))),
       st.integers(0, 3))
def test_linear_form_orders_add(pair, k):
    alpha, g = pair
    hypothesis.assume(not g.is_zero)
    assert linear_form_order(alpha ** k * g, alpha) == k + linear_form_order(g, alpha)


@SETTINGS
@given(st.sampled_from(FIELDS).flatmap(lambda d: st.tuples(
    st.just(d), linear_forms(field=d),
    st.lists(st.tuples(st.integers(0, 3), polys(field=d), st.integers(-2, 2)),
             min_size=1, max_size=4))),
    st.integers(1, 3))
# x and x*y share the monomial x in r_0 and r_1 along y: two rows, not one
@hypothesis.example((1, Poly.variable(2, 1), [(0, Poly.variable(2, 0), 1),
                                              (1, Poly.variable(2, 0), -1)]), 2)
def test_constraint_rows_vanish_exactly_on_high_orders(drawn, m):
    # sum_u c_u p_u has order >= m along alpha exactly when every row
    # vanishes on the integer vector c
    d, alpha, parts = drawn
    applied = [alpha ** k * g for k, g, _ in parts]
    c = [c for _, _, c in parts]
    rows = order_constraint_rows(applied, alpha, m, d)
    combination = Poly.zero(2)
    for p, cu in zip(applied, c):
        combination = combination + p.scale(cu)
    if d == 1:
        vanish = all(sum(r * cu for r, cu in zip(row, c)) == 0 for row in rows)
    else:
        vanish = all(sum(r[0] * cu for r, cu in zip(row, c)) == 0
                     and sum(r[1] * cu for r, cu in zip(row, c)) == 0 for row in rows)
    assert vanish == (linear_form_order(combination, alpha) >= m)


# forms beside the arrangement's whose pivot coefficient is not +-1
EXTRA_FORMS = [[2, 3, 0], [Fraction(4, 3), -2, Quad(1, 1, 5)]]


@st.composite
def fields_and_forms(draw):
    """The forms of H3 or I2(5) and two more, and one to three fields over
    Q or Q(sqrt(5)) with coefficients over mixed denominators: random ones,
    alpha^k times a random one for a form alpha, the zero field, and
    g * (a_u d/dx_t - a_t d/dx_u), which annihilates alpha alone."""
    arrangement = build_group(parse_type(draw(st.sampled_from(["H3", "I2(5)"]))))[1]
    n = arrangement.datum.rank
    forms = [h.form for h in arrangement.hyperplanes]
    forms += [Poly.linear(c[:n]) for c in EXTRA_FORMS]
    d = draw(st.sampled_from([1, 5]))
    fields = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["random", "power", "zero", "annihilates"]))
        if kind == "zero":
            fields.append([Poly.zero(n)] * n)
            continue
        coeffs = [draw(polys(nvars=n, field=d)) for _ in range(n)]
        alpha = draw(st.sampled_from(forms))
        if kind == "power":
            lift = alpha ** draw(st.integers(1, 3))
            coeffs = [lift * c for c in coeffs]
        elif kind == "annihilates":
            a = [alpha.terms.get(tuple(int(j == i) for j in range(n)), 0) for i in range(n)]
            t = next(i for i in range(n) if a[i] != 0)
            u = (t + 1) % n
            g = coeffs[0] if not coeffs[0].is_zero else Poly.constant(n, 1)
            coeffs = [g.scale(a[u]) if i == t else g.scale(-a[t]) if i == u else Poly.zero(n)
                      for i in range(n)]
        fields.append(coeffs)
    return fields, forms


@settings(max_examples=30, deadline=None)
@given(fields_and_forms())
def test_contact_orders_match_repeated_division(drawn):
    fields, forms = drawn
    assert contact_orders(fields, forms) == [division_contact_orders(c, forms) for c in fields]


@SETTINGS
@given(st.sampled_from(FIELDS).flatmap(lambda d: st.tuples(
    st.lists(polys(nvars=3, field=d), min_size=3, max_size=3), polys(nvars=3, field=d))))
def test_apply_is_the_sum_of_coefficients_times_partials(drawn):
    coeffs, p = drawn
    expected = Poly.zero(3)
    for i, f in enumerate(coeffs):
        expected = expected + f * p.partial(i)
    assert Derivation(coeffs).apply(p) == expected


@st.composite
def ordered_pairs(draw):
    """A Quad and a Quad of its field, a Fraction or an int, either first."""
    d = draw(st.sampled_from([5, 2]))

    def rational():
        return Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))

    x = Quad(rational(), rational(), d)
    kind = draw(st.sampled_from(["quad", "fraction", "int"]))
    y = (Quad(rational(), rational(), d) if kind == "quad"
         else rational() if kind == "fraction" else draw(st.integers(-6, 6)))
    return (x, y) if draw(st.booleans()) else (y, x)


@settings(max_examples=200, deadline=None)
@given(ordered_pairs())
@hypothesis.example((Quad(1, 0, 5), Fraction(1)))
@hypothesis.example((2, Quad(1, 1, 2)))
def test_quad_order_agrees_with_the_sign_of_the_difference(pair):
    x, y = pair
    diff = x - y
    d = next(v.d for v in pair if isinstance(v, Quad))
    s = (diff if isinstance(diff, Quad) else Quad(diff, 0, d)).sign()
    assert (x < y, x <= y, x > y, x >= y) == (s < 0, s <= 0, s > 0, s >= 0)


@SETTINGS
@given(polys(nvars=3))
def test_format_parse_round_trip(p):
    assert poly_from_json(json.loads(json.dumps(poly_to_json(p))), 3) == p
    for c in p.terms.values():
        assert parse_scalar(format_scalar(c)) == c


@SETTINGS
@given(polys(nvars=3))
def test_json_terms_are_the_formatted_sorted_terms(p):
    terms = sorted(p.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)
    assert poly_to_json(p) == [[list(e), format_scalar(c)] for e, c in terms]


TEXT = st.text() | st.text(alphabet=st.sampled_from(
    ["a", "1", "/", "\"", "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028",
     "\U0001f600", " "]))
TERMS = st.tuples(st.lists(st.integers(-3, 2 ** 70)), TEXT).map(list)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 200, 2 ** 200) | st.floats() | TEXT | TERMS,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(TEXT, inner, max_size=5)
                   | st.dictionaries(st.integers(-5, 5), inner, max_size=3)
                   | st.lists(st.integers() | st.booleans(), max_size=4)),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@hypothesis.example([True, 1])
@hypothesis.example([[1], "a", 3])
@hypothesis.example([[], "x"])
@hypothesis.example([[True], "x"])
@hypothesis.example({"b": [[[0, 2], "-1/2"]], "a": {}, "c": [], "\u00e9\"": -2 ** 100})
@given(JSON_VALUES)
def test_writer_matches_json_dumps(value):
    assert dump_json(value) == json.dumps(value, sort_keys=True, indent=2)


@SETTINGS
@given(label=st.sampled_from(["B3", "H3", "I2(8)"]), data=st.data())
def test_action_composes_along_the_closure(closure, label, data):
    datum = parse_type(label)
    elements = closure(label)
    w1 = data.draw(st.sampled_from(elements))
    w2 = data.draw(st.sampled_from(elements))
    p = data.draw(polys(nvars=datum.rank, field=datum.disc))
    w12 = mat_mul(w1, w2)
    assert w12 in elements
    assert act(w1, act(w2, p)) == act(w12, p)


@st.composite
def scalar_rows(draw):
    d = draw(st.sampled_from(FIELDS))
    ncols = draw(st.integers(1, 5))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        row = []
        for _ in range(ncols):
            a = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
            b = draw(st.integers(-2, 2)) if d > 1 else 0
            row.append(Quad(a, b, d) if b else a)
        rows.append(row)
    return d, rows


@SETTINGS
@given(scalar_rows())
def test_echelon_fed_row_by_row_equals_rref(drawn):
    d, rows = drawn
    echelon = Echelon(d)
    for row in rows:
        # each row over its own denominator, in the field of the matrix
        field, nums, _ = split_scalars(row)
        echelon.add(nums if field == d else [(a, 0) for a in nums])
    reduced, pivots = rref(rows)
    assert echelon.scalar_rows() == list(zip(pivots, reduced))


@st.composite
def square_matrices(draw):
    """A square matrix up to 6 x 6 over Z, Q, Q(sqrt(5)) or Q(sqrt(2)):
    random, singular (its last row a combination of two rows above), with
    a zero row, or with a zero leading entry that forces a row swap."""
    field = draw(st.sampled_from(["Z", 1, 5, 2]))

    def entry():
        if field == "Z":
            return draw(st.integers(-6, 6))
        a = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
        b = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))) if field > 1 else 0
        return Quad(a, b, field) if b else a

    n = draw(st.integers(1, 6))
    rows = [[entry() for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(["random", "singular", "zero row", "swap"]))
    if shape == "singular" and n > 1:
        s, t = entry(), entry()
        rows[-1] = [s * a + t * b for a, b in zip(rows[0], rows[n - 2])]
    elif shape == "zero row":
        rows[draw(st.integers(0, n - 1))] = [0] * n
    elif shape == "swap":
        rows[0][0] = 0
        if n > 1:
            rows[-1][0] = draw(st.integers(1, 6))
    return rows


@settings(max_examples=120, deadline=None)
@given(square_matrices())
def test_bareiss_det_matches_fraction_elimination(rows):
    expected = fraction_det(rows)
    assert det(rows) == expected
    n = len(rows)
    pivot = next((i for i in range(n) if rows[i][0] != 0), None)
    if pivot:
        # a zero leading entry: the row swap negates the determinant
        swapped = list(rows)
        swapped[0], swapped[pivot] = swapped[pivot], swapped[0]
        assert det(swapped) == -expected
    d, nums, den = split_scalars([x for row in rows for x in row])
    value = integer_det([nums[k:k + n] for k in range(0, n * n, n)], d)
    assert join_scalar(d, value, den ** n) == expected


def test_bareiss_det_of_one_entry():
    assert integer_det([[-7]], 1) == -7
    assert integer_det([[(2, -3)]], 5) == (2, -3)
    assert det([[Quad(Fraction(1, 2), 3, 2)]]) == Quad(Fraction(1, 2), 3, 2)


@st.composite
def poly_matrices(draw):
    d = draw(st.sampled_from([1, 5]))
    n = draw(st.integers(1, 4))
    return [[draw(polys(field=d)) for _ in range(n)] for _ in range(n)]


@SETTINGS
@given(poly_matrices(), st.data())
def test_wedge_det_matches_laplace_and_alternates(rows, data):
    det = PolyMatrix(rows).det()
    assert det == laplace_det(rows)
    n = len(rows)
    if n > 1:
        a, b = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        swapped = [list(row) for row in rows]
        for row in swapped:
            row[a], row[b] = row[b], row[a]
        assert PolyMatrix(swapped).det() == -det
