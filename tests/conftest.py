from __future__ import annotations

import bisect
import heapq
import math
from fractions import Fraction

import pytest

from coxbasis import basis, coxeter
from coxbasis.coxeter import (build_group, identity_matrix, mat_mul, parse_type,
                              reflection_matrix, transpose)
from coxbasis.derivations import Derivation
from coxbasis.invariants import compute_invariants, invariant_field_basis
from coxbasis.linalg import Echelon, integer_det, invert_matrix, rref
from coxbasis.poly import (Poly, Powers, contact_orders, linear_combination,
                           order_constraint_rows, poly_from_json, product, substitute_sum,
                           weighted_exponents)
from coxbasis.report import certificate_to_json
from coxbasis.scalars import Quad, join_scalar, split_scalars

_CACHE: dict[str, tuple] = {}
_CLOSURES: dict[str, tuple] = {}


def clear_memos() -> None:
    """Forget what the package keeps per process, as a fresh interpreter
    would: the built groups and arrangements, and with them the invariant
    systems and certified bases kept on the arrangements."""
    coxeter._walked.cache_clear()


@pytest.fixture(autouse=True)
def cold_memos():
    """Every test starts from the package's per-process memos of a fresh
    interpreter.  Universal fields stay on their systems and bases on their
    arrangements, such as those of the session-wide ``pipeline``."""
    clear_memos()


@pytest.fixture
def certifications(monkeypatch):
    """The multiplicity values of every ``ziegler_certify`` call the basis
    layer makes, in order."""
    calls = []

    def counting(members, multiplicity, original=basis.ziegler_certify):
        calls.append(multiplicity.values)
        return original(members, multiplicity)

    monkeypatch.setattr(basis, "ziegler_certify", counting)
    return calls


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


def scalar_inverse(x):
    """1/x for a nonzero int, Fraction or Quad, as a Fraction or Quad."""
    return Fraction(1) / x


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


def rank(rows):
    """The rank of a scalar matrix, the number of pivots of the package's
    ``rref``."""
    return len(rref(rows)[1])


def kernel_basis(rows, ncols):
    """Basis of the right kernel of a scalar matrix in ``ncols`` columns, one
    vector per free column of `fraction_rref`, in column order."""
    reduced, pivots = fraction_rref(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][f]
        basis.append(v)
    return basis


def echelon_of(rows):
    """The package's ``Echelon`` of a scalar matrix, its rows entered as
    integer numerators over one common denominator."""
    d, nums, _ = split_scalars([x for row in rows for x in row])
    echelon = Echelon(d)
    width = len(rows[0]) if rows else 0
    for k in range(0, len(nums), width or 1):
        echelon.add(nums[k:k + width])
    return echelon


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


def det(rows):
    """Determinant of a square scalar matrix: the package's one scalar
    determinant kernel, ``coxbasis.linalg.integer_det``, on its integer
    numerators over the n-th power of their common denominator."""
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ValueError("determinant needs a nonempty square matrix")
    d, nums, den = split_scalars([x for row in rows for x in row])
    return join_scalar(d, integer_det([nums[k:k + n] for k in range(0, n * n, n)], d), den ** n)


def laplace_det(rows):
    """Determinant of a square polynomial matrix by recursive Laplace
    expansion along the first column.  The test-only reference for
    ``coxbasis.linalg.PolyMatrix.wedge``, its determinants and the
    Jacobian cofactor columns."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    out = Poly.zero(rows[0][0].nvars)
    for i in range(n):
        if rows[i][0].is_zero:
            continue
        term = rows[i][0] * laplace_det([row[1:] for r, row in enumerate(rows) if r != i])
        out = out + term if i % 2 == 0 else out - term
    return out


def laplace_cofactor(rows, i, j):
    """The (i, j) cofactor of a square polynomial matrix by `laplace_det`."""
    n = len(rows)
    if n == 1:
        return Poly.constant(rows[0][0].nvars, 1)
    minor = laplace_det([[e for c, e in enumerate(row) if c != j]
                         for r, row in enumerate(rows) if r != i])
    return -minor if (i + j) % 2 else minor


def total_degree(p):
    """Maximum total degree of a polynomial, -inf for zero."""
    return max(map(sum, p.terms), default=-math.inf)


def coefficient(p, exps):
    """The coefficient of one monomial of a polynomial, 0 when absent."""
    return p.terms.get(tuple(exps), Fraction(0))


def numerators(p):
    """The exponents -> numerator view of a polynomial over its ``den``: an
    int over Q, an int pair over Q(sqrt(d)), read off ``terms``."""
    out = {}
    for exps, c in p.terms.items():
        c = c * p.den
        if p.d == 1:
            out[exps] = int(c)
        else:
            out[exps] = (int(c.a), int(c.b)) if isinstance(c, Quad) else (int(c), 0)
    return out


# --- the tuple-keyed reference of the polynomial kernels -------------------
#
# ``Poly`` keys its terms by packed ints.  Below is the arithmetic it
# replaced, keyed by exponent tuples: the numerator product that packed
# each operand per call and unpacked the result, and the scalar sum,
# partial derivative, division and evaluation, with grlex as a tuple key.


def grlex_key(exps):
    return (sum(exps), exps)


def tuple_mul_num(a, b, d):
    """Product of two numerator dicts keyed by exponent tuples, over Q
    (d = 1) or Q(sqrt(d)) (int pairs): a one-term factor shifts the other's
    exponents, and otherwise each exponent tuple is packed into one int per
    call, in a field just wide enough for the product, and the products
    are unpacked again."""

    def times(c1, c2):
        if d == 1:
            return c1 * c2
        (a1, b1), (a2, b2) = c1, c2
        return (a1 * a2 + d * b1 * b2, a1 * b2 + b1 * a2)

    if len(a) > len(b):
        a, b = b, a
    if not a:
        return {}
    if len(a) == 1:
        ((e1, c1),) = a.items()
        return {tuple(x + y for x, y in zip(e1, e2)): times(c1, c2) for e2, c2 in b.items()}
    nvars = len(next(iter(a)))
    bits = (max(map(sum, a)) + max(map(sum, b))).bit_length()
    shifts = tuple(range((nvars - 1) * bits, -1, -bits))
    pa = [(sum(e << s for e, s in zip(exps, shifts)), c) for exps, c in a.items()]
    pb = [(sum(e << s for e, s in zip(exps, shifts)), c) for exps, c in b.items()]
    out = {}
    for k1, c1 in pa:
        for k2, c2 in pb:
            k = k1 + k2
            c = times(c1, c2)
            out[k] = c if k not in out else (
                out[k] + c if d == 1 else (out[k][0] + c[0], out[k][1] + c[1]))
    mask = (1 << bits) - 1
    return {tuple((k >> s) & mask for s in shifts): c for k, c in out.items()
            if c != 0 and c != (0, 0)}


def same(poly, terms):
    """A kernel's result equals the reference term dict, as a polynomial
    (so its keys are those the constructor packs) and term by term."""
    return (poly == Poly(poly.nvars, terms)
            and poly.terms == {e: c for e, c in terms.items() if c != 0})


def _put(out, exps, value):
    if value == 0:
        out.pop(exps, None)
    else:
        out[exps] = value


def ref_add(a, b):
    out = dict(a)
    for exps, c in b.items():
        _put(out, exps, out.get(exps, 0) + c)
    return out


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exps = tuple(x + y for x, y in zip(e1, e2))
            _put(out, exps, out.get(exps, 0) + c1 * c2)
    return out


def ref_partial(a, i):
    out = {}
    for exps, c in a.items():
        if exps[i]:
            out[exps[:i] + (exps[i] - 1,) + exps[i + 1:]] = c * exps[i]
    return out


def ref_evaluate(a, point):
    total = Fraction(0)
    for exps, c in a.items():
        term = c
        for x, e in zip(point, exps):
            term = term * x ** e
        total = total + term
    return total


def ref_divrem(a, b):
    lt = max(b, key=grlex_key)
    inv = scalar_inverse(b[lt])
    work = dict(a)
    heap = [(-sum(e), tuple(-x for x in e)) for e in work]
    heapq.heapify(heap)
    quot, rem = {}, {}
    while heap:
        key = heapq.heappop(heap)
        exps = tuple(-x for x in key[1])
        c = work.pop(exps, None)
        if c is None:
            continue
        if all(x >= y for x, y in zip(exps, lt)):
            t = tuple(x - y for x, y in zip(exps, lt))
            q = c * inv
            quot[t] = q
            for e2, c2 in b.items():
                if e2 != lt:
                    target = tuple(x + y for x, y in zip(t, e2))
                    if target not in work:
                        heapq.heappush(heap, (-sum(target), tuple(-x for x in target)))
                    _put(work, target, work.get(target, 0) - q * c2)
        else:
            rem[exps] = c
    return quot, rem


def ref_order(a, alpha):
    """Largest k with the linear form alpha^k dividing a, by `ref_divrem`;
    ``math.inf`` for a = 0."""
    if not a:
        return math.inf
    order = 0
    while True:
        a, rem = ref_divrem(a, alpha)
        if rem:
            return order
        order += 1


def invariant_basis(system, degree):
    """The monomials in the basic invariants of one x-degree, in coordinates:
    a spanning set of the invariants of that degree."""
    return [system.compose(Poly.monomial(len(system.polys), e))
            for e in weighted_exponents(system.degrees, degree)]


def free_module_graded_dimension(member_degrees, degree, nvars):
    """Graded dimension predicted by a free basis with the given degrees:
    one copy of the polynomials of degree ``degree - d`` per member."""
    return sum(math.comb(degree - d + nvars - 1, nvars - 1)
               for d in member_degrees if degree >= d)


def gradient_numerators(system):
    """N[j][i], the numerator over J of D applied to component i of grad P_j,
    for the primitive derivation D = d/dP_l, as polynomials.  The package
    reads these only at points, from the primitive numerator field and the
    partials of the gradients; this is the test-only reference."""
    field = system.primitive_numerator
    return tuple(tuple(field.apply(f) for f in g.coeffs) for g in system.gradients)


def linear_form_order(p, alpha):
    """Largest k with alpha^k dividing p; ``math.inf`` for p = 0.

    ``alpha`` must be a nonzero homogeneous linear form.  This is the
    one-form case of ``coxbasis.poly.contact_orders``: the field p d/dx_t,
    for a variable t of alpha, takes alpha to alpha_t * p, which has the
    order of p.
    """
    t = next((e.index(1) for e in alpha.terms if 1 in e), 0)
    coeffs = [p if i == t else Poly.zero(p.nvars) for i in range(alpha.nvars)]
    return contact_orders([coeffs], [alpha])[0][0]


def division_order(p, alpha):
    """Largest k with alpha^k dividing p, by repeated exact division in grlex
    order; ``math.inf`` for p = 0.  The test-only reference for
    ``coxbasis.poly.contact_orders`` at one form (`linear_form_order`)."""
    if p.is_zero:
        return math.inf
    order = 0
    while True:
        p, remainder = p.divrem(alpha)
        if not remainder.is_zero:
            return order
        order += 1


def division_contact_orders(coeffs, forms):
    """The contact order of the field with coefficients ``coeffs`` at each
    form: the field applied to the form, sum_i a_i coeffs[i], built with
    ``Poly`` arithmetic, then `division_order`.  The test-only reference for
    ``coxbasis.poly.contact_orders``."""
    n = len(coeffs)
    orders = []
    for alpha in forms:
        applied = Poly.zero(n)
        for i, f in enumerate(coeffs):
            applied = applied + f.scale(coefficient(alpha, tuple(int(j == i) for j in range(n))))
        orders.append(division_order(applied, alpha))
    return tuple(orders)


def all_hyperplane_graded_dimensions(system, arrangement, degree, top):
    """For min_order 1 .. top, the dimension of the invariant fields of one
    degree with contact order at least min_order at every hyperplane, from
    the constraint rows of every hyperplane; the rows of min_order m are
    those of m - 1 and more, so one echelon grows through all of them.  The
    test-only reference for ``coxbasis.verify.invariant_graded_dimension``,
    which reads one hyperplane per W-orbit."""
    basis = invariant_field_basis(system, degree)
    applied = [(h.form, [linear_combination(fld.coeffs, h.form) for _, fld in basis])
               for h in arrangement.hyperplanes]
    echelon = Echelon(arrangement.datum.disc)
    seen = set()
    dimensions = []
    for m in range(1, top + 1):
        for form, polys in applied:
            for row in order_constraint_rows(polys, form, m, echelon.d):
                if tuple(row) not in seen:
                    seen.add(tuple(row))
                    echelon.add(row)
        dimensions.append(len(basis) - echelon.rank)
    return dimensions


def sequential_witness(multiplicity):
    """prod_H alpha_H^{m(H)} as one product of the powers of the forms, one
    factor after another.  The test-only reference for the determinant
    witness of ``coxbasis.report.certificate_to_json``."""
    arrangement = multiplicity.arrangement
    return product((h.form ** mv for h, mv in zip(arrangement.hyperplanes, multiplicity.values)),
                   arrangement.datum.rank)


def report_determinant(cert):
    """The determinant witness the report of a certificate writes, parsed
    back into a polynomial; None when the report has no determinant."""
    data = certificate_to_json(cert).get("determinant")
    return None if data is None else poly_from_json(data, cert.multiplicity.arrangement.datum.rank)


def substitution_rows(applied, alpha, m, d, pivot=None):
    """Integer rows forcing alpha^m to divide a combination of ``applied``,
    by a change of coordinates that makes alpha the pivot variable: every
    monomial of the rewritten polynomials with pivot exponent below m
    gives one row, their numerators over one common denominator.  The
    test-only reference for ``coxbasis.certify.order_constraint_rows``; it
    takes the kept pivot form the kernel may be given and reads none."""
    n = alpha.nvars
    coeffs = [coefficient(alpha, tuple(int(j == t) for j in range(n))) for t in range(n)]
    pivot = next(t for t, a in enumerate(coeffs) if a != 0)
    inv = scalar_inverse(coeffs[pivot])
    # x_pivot = inv * (y_pivot - sum of the other alpha_t y_t)
    subst_coeffs = [-inv * a for a in coeffs]
    subst_coeffs[pivot] = inv
    tables = [tuple(Powers(Poly.linear(subst_coeffs) if t == pivot else Poly.variable(n, t))
                    for t in range(n))]
    rewritten = [substitute_sum(p, tables, n) for p in applied]
    low = {}
    for p in rewritten:
        for exps in p.terms:
            if exps[pivot] < m:
                low.setdefault(exps, len(low))
    den = math.lcm(*(p.den for p in rewritten))
    rows = [[0 if d == 1 else (0, 0)] * len(rewritten) for _ in low]
    for u, p in enumerate(rewritten):
        s = den // p.den
        for exps, c in numerators(p).items():
            slot = low.get(exps)
            if slot is not None:
                rows[slot][u] = (c * s if d == 1 else (c * s, 0) if p.d == 1
                                 else (c[0] * s, c[1] * s))
    return rows


# Test-only reference actions of single group elements.  The package never
# applies one element: it averages over the group through the coset chain of
# ``coxbasis.coxeter.reynolds``.  These are what invariance is checked by.


def act(w, p):
    """Action of a group element on a polynomial, p -> p o w^{-1}: column i
    of w substituted for variable i."""
    n = len(w)
    columns = tuple(Powers(Poly.linear([w[j][i] for j in range(n)])) for i in range(n))
    return substitute_sum(p, [columns], p.nvars)


def act_derivation(w, delta):
    """Action on vector fields: conjugation of the derivation by w."""
    moved = [act(w, f) for f in delta.coeffs]
    return Derivation([linear_combination(moved, Poly.linear(row))
                       for row in transpose(invert_matrix([list(r) for r in w]))])


def is_invariant_poly(group, p):
    return all(act(g, p) == p for g in group.generators)


def is_invariant_derivation(group, delta):
    return all(act_derivation(g, delta) == delta for g in group.generators)


# Test-only reference orbit walks in Fraction/Quad arithmetic.  The package
# walks on integer numerators in ``coxbasis.coxeter.build_group``; this is
# what its coset chain, hyperplanes and orbits are checked against.


def mat_vec(a, v):
    n = len(a)
    return tuple(sum((a[i][k] * v[k] for k in range(1, n)), a[i][0] * v[0]) for i in range(n))


def normalize_form(coeffs):
    """Scale a nonzero covector so its first nonzero coefficient is 1."""
    lead = next((c for c in coeffs if c != 0), None)
    if lead is None:
        raise ValueError("zero covector has no normalization")
    inv = scalar_inverse(lead)
    return tuple(inv * c for c in coeffs)


def fraction_walk(datum):
    """(chain, sorted hyperplane coefficients, orbits) of a type: the coset
    trees of the fundamental weights, the orbit of the normalized simple
    roots and its W-orbits, all by matrix-vector products in scalars.

    The chain is chosen here from the full orbits: from K = all simple
    roots, each step drops the root of K whose weight has the smallest
    orbit under W_K, the highest index on a tie, and the trees are listed
    innermost first."""
    roots = datum.simple_roots
    generators = tuple(reflection_matrix(r, datum.gram) for r in roots)
    inverse = invert_matrix(mat_mul(roots, mat_mul(datum.gram, transpose(roots))))
    weights = [mat_vec(transpose(roots), row) for row in inverse]

    def tree_of(s, left):
        x = weights[s]
        index, tree, queue = {x: 0}, [(-1, -1)], [x]
        for k, y in enumerate(queue):
            for t in left:
                z = mat_vec(generators[t], y)
                if z not in index:
                    index[z] = len(tree)
                    tree.append((k, t))
                    queue.append(z)
        return tuple(tree)

    chain = []
    left = list(range(len(roots)))
    while left:
        trees = {s: tree_of(s, left) for s in left}
        drop = min(left, key=lambda s: (len(trees[s]), -s))
        chain.insert(0, trees[drop])
        left.remove(drop)
    forms = {normalize_form(r): None for r in roots}
    queue = list(forms)
    for y in queue:
        for g in generators:
            z = normalize_form(mat_vec(g, y))
            if z not in forms:
                forms[z] = None
                queue.append(z)
    coeffs = sorted(forms)
    index_of = {c: i for i, c in enumerate(coeffs)}
    orbits, seen = [], set()
    for start in range(len(coeffs)):
        if start in seen:
            continue
        todo, members = [start], {start}
        while todo:
            i = todo.pop()
            for g in generators:
                j = index_of[normalize_form(mat_vec(g, coeffs[i]))]
                if j not in members:
                    members.add(j)
                    todo.append(j)
        seen |= members
        orbits.append(tuple(sorted(members)))
    return tuple(chain), tuple(coeffs), tuple(orbits)
