"""Finite Coxeter groups, their reflection arrangements, and the W-action.

Each supported type carries a fixed coordinate realization: a Gram matrix
for the invariant form on coordinate covectors and a list of simple roots
written as covector coefficient vectors.  The A series is realized in its
essential rank with the Cartan matrix as Gram form; B, D use orthonormal
coordinates and differ only in the last simple root; G2, H3 and the
dihedral types take their Gram matrix and field from one table, where G2
and I2(6) share a matrix and I2(3) is A2.  I2(5), I2(8) and H3 live over
a real quadratic extension.  The order is the product of the degrees
(Chevalley, Amer. J. Math. 77, 1955), written once per family.

Group elements are exact matrices R acting on covector coefficients,
c -> R c.  The action on polynomials substitutes column i of R for
variable i, which realizes p -> p o w^{-1} without inverting anything.
The group is never enumerated.  Dropping simple roots one at a time gives
a chain of parabolic subgroups W_K > W_J; each step keeps one coset
u W_J per point of the orbit of a fundamental weight, whose stabilizer
in W_K is W_J, and drops the root whose orbit is smallest.  Reynolds
averages run through this chain with one substitution per coset, the sum
of the indices in all instead of |W|, reusing the powers of the
representatives' column forms; the matrices u are built, as integer
combinations of the generators' column forms, the first time a Reynolds
average runs.
Hyperplanes are the orbit of the simple roots under the simple
reflections, normalized so the first nonzero coefficient is 1, and are
kept sorted by coefficient vector so all downstream artifacts are
deterministic; each simple root not yet reached starts one W-orbit.  The
coset trees and the hyperplane orbits come out of one breadth-first walk
(`_orbit_walk`) on integer numerators (ints over Q, interleaved int pairs
over Q(sqrt(d))), so Fraction and Quad appear only in the generators and
the final hyperplane coefficients.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from operator import mul
from typing import Callable, Iterator, NamedTuple, Sequence

from .errors import GroupClosureFailed, OrderBoundExceeded, UnsupportedType
from .linalg import invert_matrix
from .poly import (PivotForm, Poly, Powers, linear_combination, pivot_form, product,
                   sample_points, substitute_sum)
from .scalars import Quad, Scalar, join_scalar, split_scalars

MatrixT = tuple[tuple[Scalar, ...], ...]

DEFAULT_ORDER_BOUND = 100000


class CoxeterDatum(NamedTuple):
    """Coordinate realization of one finite Coxeter type."""

    family: str
    rank: int
    param: int | None
    label: str
    gram: MatrixT
    simple_roots: tuple[tuple[Scalar, ...], ...]
    degrees: tuple[int, ...]
    disc: int  # 1 for rational realizations, else the quadratic discriminant

    @property
    def coxeter_number(self) -> int:
        return self.degrees[-1]

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(d - 1 for d in self.degrees)

    @property
    def num_hyperplanes(self) -> int:
        return self.coxeter_number * self.rank // 2

    @property
    def field_label(self) -> str:
        return "Q" if self.disc == 1 else "Q(sqrt(%d))" % self.disc

    def group_order(self) -> int:
        return math.prod(self.degrees)


def _degrees(family: str, rank: int, param: int | None) -> Iterator[int]:
    """The degrees of the basic invariants, lazily, so a huge rank costs nothing."""
    if family == "A":
        yield from range(2, rank + 2)
    elif family == "B":
        yield from range(2, 2 * rank + 1, 2)
    elif family == "D":
        yield from range(2, 2 * rank - 1, 2)
        yield rank
    elif family == "G2":
        yield from (2, 6)
    elif family == "H3":
        yield from (2, 6, 10)
    elif family == "I2":
        yield from (2, param)
    else:
        raise UnsupportedType("unknown type %r" % family)


def _label(family: str, rank: int, param: int | None) -> str:
    return ("I2(%d)" % param if family == "I2" else
            family if family in ("G2", "H3") else "%s%d" % (family, rank))


def check_order_bound(family: str, rank: int, param: int | None, order_bound: int) -> None:
    """Raise OrderBoundExceeded if the type's group is larger than the bound.

    The order, the product of the degrees, is multiplied out only until it
    passes the bound, so no rank makes this slow and the message holds a
    number about the size of the bound: the order itself, or a lower bound
    for it.
    """
    order = 1
    degrees = _degrees(family, rank, param)
    for f in degrees:
        order *= f
        if order > order_bound:
            more = "" if next(degrees, None) is None else "at least "
            raise OrderBoundExceeded("type %s: group of order %s%d exceeds the bound %d"
                                     % (_label(family, rank, param), more, order, order_bound))


def _frac_matrix(rows: Sequence[Sequence[Scalar]]) -> MatrixT:
    return tuple(tuple(Fraction(v) if isinstance(v, int) else v for v in row) for row in rows)


# the Gram matrix and field of each type realized on the unit simple roots
# besides the A series, whose Gram matrix is its Cartan matrix
_G2 = ((6, -3), (-3, 2))
_TAU = Quad(Fraction(-1, 2), Fraction(-1, 2), 5)  # -2 cos(pi/5) = -(1 + sqrt(5))/2
_UNIT_ROOT_GRAMS: dict[str, tuple[tuple[tuple[Scalar, ...], ...], int]] = {
    "G2": (_G2, 1),
    "H3": (((2, _TAU, 0), (_TAU, 2, -1), (0, -1, 2)), 5),
    "I2(4)": (((2, -1), (-1, 1)), 1),
    "I2(5)": (((2, _TAU), (_TAU, 2)), 5),
    "I2(6)": (_G2, 1),
    # unequal root lengths keep the entries inside Q(sqrt(2))
    "I2(8)": (((Quad(4, 2, 2), Quad(-2, -1, 2)), (Quad(-2, -1, 2), 2)), 2),
}
_LEAST_RANK = {"A": 1, "B": 2, "D": 4}


def make_datum(family: str, rank: int, param: int | None = None) -> CoxeterDatum:
    """Build the coordinate realization for one type."""
    family = family.upper()
    if family in _LEAST_RANK and rank < _LEAST_RANK[family]:
        raise UnsupportedType("%s series needs rank >= %d" % (family, _LEAST_RANK[family]))
    if family == "I2" and (param or 0) < 3:
        raise UnsupportedType("I2(m) needs m >= 3")
    if family == "I2" and param == 3:  # the realization of A2
        return make_datum("A", 2)._replace(family="I2", param=3, label="I2(3)")
    param = param if family == "I2" else None
    label = _label(family, rank, param)
    disc = 1
    if family == "A":
        # the Cartan matrix, on the unit roots of the essential rank
        gram = _frac_matrix([[2 if i == j else -1 if abs(i - j) == 1 else 0
                              for j in range(rank)] for i in range(rank)])
        roots = identity_matrix(rank)
    elif family in ("B", "D"):
        # e_i - e_(i+1), then e_n for B and e_(n-1) + e_n for D
        roots = _frac_matrix([[1 if j == i else -1 if j == i + 1 else 0 for j in range(rank)]
                              for i in range(rank - 1)]
                             + [[0] * (rank - 2) + ([0, 1] if family == "B" else [1, 1])])
        gram = identity_matrix(rank)
    elif label in _UNIT_ROOT_GRAMS:
        gram, disc = _UNIT_ROOT_GRAMS[label]
        rank, gram, roots = len(gram), _frac_matrix(gram), identity_matrix(len(gram))
    elif family == "I2":
        raise UnsupportedType("%s is not realized over Q or a quadratic field here" % label)
    else:
        raise UnsupportedType("unknown type %r" % family)
    return CoxeterDatum(family, rank, param, label, gram, roots,
                        tuple(sorted(_degrees(family, rank, param))), disc)


_LABEL = re.compile(r"([ABD])(\d*)|(G2|H3)|I2(?:\((\d+)\))?")


def parse_type(text: str, rank: int | None = None,
               order_bound: int | None = None) -> CoxeterDatum:
    """Parse a type label such as ``B3``, ``I2(5)``, or (``A``, rank=2).

    A label is ``[ABD]<n>``, ``G2``, ``H3``, ``I2(<m>)``, or a family letter
    (or ``I2``) with the rank given apart; for ``I2`` that rank is m.  A
    rank given next to a full label must agree with it (2 or m for
    ``I2(<m>)``).  Anything else raises UnsupportedType naming the label.
    With an order bound, a larger group raises OrderBoundExceeded before
    any of its rank-sized data is built.  The datum is the one the memo
    of recent types (``_walked``) keeps, so a label parsed again returns
    the same datum, built once.
    """
    t = text.strip().upper().replace(" ", "")
    if not t:
        raise UnsupportedType("empty type label")
    match = _LABEL.fullmatch(t)
    if match is None:
        raise UnsupportedType("cannot read the type label %r" % text)
    family, digits, exceptional, m = match.groups()
    if family is None:
        family, digits = (exceptional, exceptional[1]) if exceptional else ("I2", m)
    if digits:
        try:
            given = int(digits)
        except ValueError:  # more digits than int() reads
            raise UnsupportedType("cannot read the type label %r" % text) from None
        allowed = (2, given) if family == "I2" else (given,)
        if rank is not None and rank not in allowed:
            raise UnsupportedType("type %r does not have rank %d" % (text, rank))
        rank = given
    elif rank is None:
        raise UnsupportedType("type %r needs a rank" % text)
    args = ("I2", 2, rank) if family == "I2" else (family, rank, None)
    if order_bound is not None:
        check_order_bound(*args, order_bound)
    return _walked(*args).datum


def mat_mul(a: MatrixT, b: MatrixT) -> MatrixT:
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(1, n)), a[i][0] * b[0][j]) for j in range(n))
        for i in range(n)
    )


def transpose(a: MatrixT) -> MatrixT:
    return tuple(zip(*a))


def identity_matrix(n: int) -> MatrixT:
    return tuple(tuple(Fraction(1 if j == i else 0) for j in range(n)) for i in range(n))


def reflection_matrix(root: Sequence[Scalar], gram: MatrixT) -> MatrixT:
    """Reflection in the hyperplane of a root, acting on covector coefficients.

    R = 1 - 2 root (gram root)^T / (root^T gram root), so the rows where the
    root has a zero coordinate are those of the identity.
    """
    n = len(root)
    g_root = [sum((row[k] * root[k] for k in range(1, n)), row[0] * root[0]) for row in gram]
    norm = sum((root[k] * g_root[k] for k in range(1, n)), root[0] * g_root[0])
    factor = 2 / norm
    ident = identity_matrix(n)
    return tuple(tuple(e - factor * r * g for e, g in zip(ident[i], g_root)) if r else ident[i]
                 for i, r in enumerate(root))


class Hyperplane(NamedTuple):
    """A reflecting hyperplane: its normalized coefficients and form."""

    coeffs: tuple[Scalar, ...]
    form: Poly


class ReflectionGroup:
    """A finite real reflection group: its generators and a coset chain.

    ``generators`` are the simple reflections as Fraction/Quad matrices.
    Each stage of ``chain`` is a breadth-first tree over the cosets u W_J
    of W_K, for a set K of simple roots and J = K less one root: entry k
    is (parent, t) with u_k = g_t u_parent, t the index of the generator,
    and entry 0, the identity coset, is (-1, -1).  The stages run
    innermost first, each K the J of the stage after it, and the order is
    the product of their lengths.  ``build_group`` says which root each
    stage drops.  The matrices u are built, as the integer column forms of
    ``coset_powers``, when a Reynolds average first needs them.
    """

    def __init__(self, datum: CoxeterDatum, generators: tuple[MatrixT, ...],
                 chain: tuple[tuple[tuple[int, int], ...], ...]) -> None:
        self.datum = datum
        self.generators = generators
        self.chain = chain
        self.order = math.prod(len(tree) for tree in chain)

    @property
    def rank(self) -> int:
        return self.datum.rank

    @functools.cached_property
    def coset_powers(self) -> tuple[tuple[tuple[Powers, ...], ...], ...]:
        """Per stage and coset, the power tables of the column forms of its
        matrix u, built on first use and kept so every Reynolds average
        reuses them.  Column i of g u is column i of u with the columns
        of g put for the variables, one integer combination per column."""
        columns = [_column_forms(g) for g in self.generators]
        identity = tuple(Poly.variable(self.rank, i) for i in range(self.rank))
        stages = []
        for tree in self.chain:
            reps = [identity]
            for parent, t in tree[1:]:
                reps.append(tuple(linear_combination(columns[t], f) for f in reps[parent]))
            stages.append(tuple(tuple(Powers(f) for f in u) for u in reps))
        return tuple(stages)


class Arrangement:
    """The set of reflecting hyperplanes, in canonical sorted order, and
    their W-orbits as recorded by the root walk of ``build_group``; it
    keeps its first sample point off the hyperplanes, the pivot form of
    each hyperplane per field, the invariants ``compute_invariants``
    selects for it and the certified bases ``basis.base_basis`` finds for
    its W-invariant multiplicities."""

    def __init__(self, datum: CoxeterDatum, hyperplanes: tuple[Hyperplane, ...],
                 orbits: tuple[tuple[int, ...], ...]) -> None:
        self.datum = datum
        self.hyperplanes = hyperplanes
        self._orbits = orbits
        self.invariants: object = None
        # (base source, multiplicity values) -> (source, members, certificate)
        self.bases: dict[tuple[str, tuple[int, ...]], tuple] = {}
        # (hyperplane index, field d) -> its `pivot_form`
        self._pivots: dict[tuple[int, int], PivotForm] = {}

    def __len__(self) -> int:
        return len(self.hyperplanes)

    @functools.cached_property
    def defining_polynomial(self) -> Poly:
        return product((h.form for h in self.hyperplanes), self.datum.rank)

    @functools.cached_property
    def generic_point(self) -> tuple[tuple[int, ...], tuple[Scalar, ...]]:
        """The first point of ``poly.sample_points`` where no form vanishes,
        and the forms' values there."""
        for point in sample_points(self.datum.rank):
            values = tuple(h.form.evaluate(point) for h in self.hyperplanes)
            if all(values):
                return point, values

    def pivot_form(self, k: int, d: int) -> PivotForm:
        """``poly.pivot_form`` of hyperplane k over the field d, found on
        first use and kept: the contact orders and the constraint rows of
        ``certify`` and ``verify`` read it."""
        held = self._pivots.get((k, d))
        if held is None:
            held = self._pivots[k, d] = pivot_form(self.hyperplanes[k].form, d)
        return held

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """W-orbits of hyperplanes as index tuples, canonically ordered."""
        return self._orbits


def build_group(datum: CoxeterDatum, order_bound: int = DEFAULT_ORDER_BOUND) -> tuple[ReflectionGroup, Arrangement]:
    """Build the group's coset chain and its reflection arrangement.

    The expected order is known from the type, so the bound is checked
    before any work is done.  Dropping simple roots one at a time gives a
    chain of parabolic subgroups; at the step K > J = K - {s} the
    fundamental weight x of s (<alpha_t, x> = 0 for t != s, 1 for s, under
    the Gram form) has stabilizer W_J in W_K (Humphreys, Reflection Groups
    and Coxeter Groups, 1.10 and 1.12), so the points of the orbit W_K x
    are the cosets u W_J.  Any chain gives the same exact average, so the
    chain is built from the top, K = all roots, and each step drops the s
    of K with the smallest orbit, the highest such index on a tie; a trial
    walk stops once it is larger than the smallest found.  That keeps the
    A_n chain [2, ..., n + 1] and turns B6's [2, 3, 4, 5, 6, 64] into
    [2, 4, 6, 8, 10, 12] and D6's [2, 3, 4, 5, 6, 32] into
    [2, 3, 4, 8, 10, 12], which makes the D-type invariants an order of
    magnitude cheaper.  The hyperplanes are the orbit of the simple
    roots, walked one W-orbit at a time by the same breadth-first walk.

    The walks run on integer numerators: the simple reflections are split
    once over one common denominator, the orbit points are kept in lowest
    terms and the root forms primitive, and only the h*l/2 hyperplanes
    are converted back to Fraction/Quad.  The product of the indices must
    be the type's order and the root orbit its hyperplane count; a
    mismatch raises GroupClosureFailed.

    The group and arrangement of the 16 types used most recently are kept
    (``_walked``) beside their datum, with the invariants, universal
    fields and certified bases that later stages keep on them, so a
    process pays for each once per type; they are found by the type's
    (family, rank, param), and the bound and both comparisons run on every
    call.  A datum built by hand that differs from the package's
    realization of its (supported) type is walked anew and not kept.
    """
    check_order_bound(datum.family, datum.rank, datum.param, order_bound)
    expected = datum.group_order()
    kept = _walked(datum.family, datum.rank, datum.param)
    group, arrangement = kept.walk if kept.datum == datum else _walk(datum)
    if group.order != expected:
        raise GroupClosureFailed("coset chain gives order %d, expected %d"
                                 % (group.order, expected))
    if len(arrangement) != datum.num_hyperplanes:
        raise GroupClosureFailed("found %d reflecting hyperplanes, expected %d"
                                 % (len(arrangement), datum.num_hyperplanes))
    return group, arrangement


class _Kept:
    """What a process keeps of one type: its datum, and the group and
    arrangement of ``build_group``, walked when first asked for."""

    def __init__(self, datum: CoxeterDatum) -> None:
        self.datum = datum

    @functools.cached_property
    def walk(self) -> tuple[ReflectionGroup, Arrangement]:
        return _walk(self.datum)


@functools.lru_cache(maxsize=16)
def _walked(family: str, rank: int, param: int | None) -> _Kept:
    """The memo of recent types, the package's only one, by (family,
    rank, param): so neither the datum nor the group is built twice and
    no matrix is hashed to find them."""
    return _Kept(make_datum(family, rank, param))


def _walk(datum: CoxeterDatum) -> tuple[ReflectionGroup, Arrangement]:
    """The group and arrangement of ``build_group``, before its checks."""
    roots = datum.simple_roots
    n = datum.rank
    generators = tuple(reflection_matrix(r, datum.gram) for r in roots)
    # the fundamental weights x_s solve (roots gram) x_s = e_s, so they are
    # the columns of the inverse of roots gram
    weights = transpose(invert_matrix(mat_mul(roots, datum.gram)))
    d, matrices, den, vectors = _integer_data(generators, weights + roots)
    # from the top: drop the node of K whose coset tree is smallest, the
    # highest such index; a trial walk stops once it is larger than the best
    chain = []
    left = list(range(n))
    while left:
        best: list[tuple[int, int]] = []
        for s in left:
            _, tree, _ = _orbit_walk([_lowest(vectors[s], den)], left, matrices,
                                     lambda w, y: _lowest(w, den * y[-1]),
                                     len(best) if best else datum.group_order())
            if not best or len(tree) <= len(best):
                best, drop = tree, s
        chain.append(tuple(best))
        left.remove(drop)
    group = ReflectionGroup(datum, generators, tuple(reversed(chain)))
    forms, _, orbits = _orbit_walk([_primitive(r, d) for r in vectors[n:]], range(n), matrices,
                                   lambda w, y: _primitive(w, d), datum.num_hyperplanes)
    coeffs = [_form_scalars(z, d) for z in forms]
    order = sorted(range(len(coeffs)), key=coeffs.__getitem__)
    position = {k: i for i, k in enumerate(order)}
    hyperplanes = tuple(Hyperplane(coeffs[k], Poly.linear(list(coeffs[k]))) for k in order)
    orbit_indices = tuple(sorted(tuple(sorted(position[k] for k in orbit)) for orbit in orbits))
    return group, Arrangement(datum, hyperplanes, orbit_indices)


# --- integer walks ---------------------------------------------------------
#
# Over Q a vector is a list of int numerators.  Over Q(sqrt(d)) it holds
# the interleaved pairs (a_i, b_i) of its entries a_i + b_i*sqrt(d), and a
# matrix entry a + b*sqrt(d) acts on one pair as the int block
# [[a, d*b], [b, a]], so the walks run on plain ints in both fields.


def _integer_data(generators: Sequence[MatrixT], vectors: Sequence[Sequence[Scalar]]
                  ) -> tuple[int, list[list[list[int]]], int, list[list[int]]]:
    """The generators as int matrices and the vectors as int lists, all
    numerators over one common denominator: (d, matrices, den, vectors)."""
    n = len(vectors[0])
    d, nums, den = split_scalars([c for m in generators for row in m for c in row]
                                 + [c for v in vectors for c in v])
    rows = [nums[k:k + n] for k in range(0, len(nums), n)]
    mats, vecs = rows[:n * len(generators)], rows[n * len(generators):]
    if d != 1:
        vecs = [[x for pair in v for x in pair] for v in vecs]
        mats = [r for row in mats for r in ([x for a, b in row for x in (a, d * b)],
                                            [x for a, b in row for x in (b, a)])]
    size = len(mats) // len(generators)
    return d, [mats[i:i + size] for i in range(0, len(mats), size)], den, vecs


def _apply(g: list[list[int]], v: Sequence[int]) -> list[int]:
    return [sum(map(mul, row, v)) for row in g]


def _lowest(nums: list[int], den: int) -> tuple[int, ...]:
    """nums / den in lowest terms, as the numerators with the denominator appended."""
    g = math.gcd(den, *nums)
    if g != 1:
        nums = [x // g for x in nums]
        den //= g
    return (*nums, den)


def _primitive(w: list[int], d: int) -> tuple[int, ...]:
    """The primitive int vector on the line of w whose leading entry is a
    positive integer; over Q(sqrt(d)) w is first multiplied by the
    conjugate of its leading entry, which makes that entry rational."""
    lead = next(i for i, c in enumerate(w) if c)
    if d != 1:
        lead -= lead % 2
        a, b = w[lead], -w[lead + 1]
        if b:
            w = [x for i in range(0, len(w), 2)
                 for x in (w[i] * a + d * w[i + 1] * b, w[i] * b + w[i + 1] * a)]
    g = math.gcd(*w)
    if w[lead] < 0:
        g = -g
    return tuple(x // g for x in w)


def _form_scalars(z: tuple[int, ...], d: int) -> tuple[Scalar, ...]:
    """The coefficients of a primitive form scaled so the leading one is 1."""
    lead = next(c for c in z if c)
    return tuple(join_scalar(d, c, lead) for c in (z if d == 1 else zip(z[::2], z[1::2])))


def _orbit_walk(seeds: Sequence[tuple[int, ...]], indices: Sequence[int],
                generators: Sequence[list[list[int]]],
                step: Callable[[list[int], tuple[int, ...]], tuple[int, ...]], bound: int
                ) -> tuple[list[tuple[int, ...]], list[tuple[int, int]], list[range]]:
    """Breadth-first over the orbits of the seeds under the int matrices of
    the given indices; ``step(image, point)`` normalizes the image of a
    point, so equal points are equal tuples.  Returns the points in the
    order found, per point its parent's position and the index of the
    matrix that reaches it from the parent ((-1, -1) for a seed), and
    each orbit as the range of its positions.  A seed already reached
    starts no walk, since orbits are equal or disjoint.  Stops once past
    bound points."""
    index: dict[tuple[int, ...], int] = {}
    points: list[tuple[int, ...]] = []
    tree: list[tuple[int, int]] = []
    orbits: list[range] = []
    for x in seeds:
        if x in index or len(points) > bound:
            continue
        start = k = len(points)
        index[x] = k
        points.append(x)
        tree.append((-1, -1))
        while k < len(points) <= bound:
            y = points[k]
            for t in indices:
                z = step(_apply(generators[t], y), y)
                if z not in index:
                    index[z] = len(points)
                    points.append(z)
                    tree.append((k, t))
            k += 1
        orbits.append(range(start, len(points)))
    return points, tree, orbits


def _column_forms(w: MatrixT) -> tuple[Poly, ...]:
    n = len(w)
    return tuple(Poly.linear([w[j][i] for j in range(n)]) for i in range(n))


def reynolds(group: ReflectionGroup, p: Poly) -> Poly:
    """Average of p over the group, the projection onto invariants.

    The action is a left action, so with W_K the union of the cosets u W_J the
    sum over W_K of w p is the sum over u of u applied to the sum over
    W_J.  Each stage of the chain is one substitute_sum, innermost first,
    and the total is divided by |W| once at the end.
    """
    for tables in group.coset_powers:
        p = substitute_sum(p, tables, p.nvars)
    return p.scale(Fraction(1, group.order))


class Multiplicity:
    """A multiplicity on the arrangement, one integer per hyperplane."""

    def __init__(self, arrangement: Arrangement, values: Sequence[int]) -> None:
        values = tuple(values)
        if not all(type(v) is int for v in values):
            raise ValueError("multiplicity values must be integers")
        if len(values) != len(arrangement):
            raise ValueError("need %d multiplicity values, got %d"
                             % (len(arrangement), len(values)))
        if any(v < 0 for v in values):
            raise ValueError("multiplicities must be nonnegative")
        self.arrangement = arrangement
        self.values = values

    @classmethod
    def constant(cls, arrangement: Arrangement, value: int) -> "Multiplicity":
        return cls(arrangement, [value] * len(arrangement))

    @classmethod
    def from_orbit_values(cls, arrangement: Arrangement, per_orbit: Sequence[int]) -> "Multiplicity":
        orbs = arrangement.orbits()
        if len(per_orbit) != len(orbs):
            raise ValueError("need %d orbit values, got %d" % (len(orbs), len(per_orbit)))
        values = [0] * len(arrangement)
        for orbit, v in zip(orbs, per_orbit):
            for i in orbit:
                values[i] = v
        return cls(arrangement, values)

    def total(self) -> int:
        return sum(self.values)

    def shifted(self, amount: int) -> "Multiplicity":
        return Multiplicity(self.arrangement, [v + amount for v in self.values])

    def is_zero_one(self) -> bool:
        return all(v in (0, 1) for v in self.values)

    def per_orbit(self) -> list[int] | None:
        """Orbit-wise values if constant on every orbit, else None."""
        out = []
        for orbit in self.arrangement.orbits():
            vals = {self.values[i] for i in orbit}
            if len(vals) != 1:
                return None
            out.append(vals.pop())
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Multiplicity):
            return self.arrangement is other.arrangement and self.values == other.values
        return NotImplemented
