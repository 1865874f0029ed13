"""Finite Coxeter groups, their reflection arrangements, and the W-action.

Each supported type carries a fixed coordinate realization: a Gram matrix
for the invariant form on coordinate covectors and a list of simple roots
written as covector coefficient vectors.  The A series is realized in its
essential rank with the Cartan matrix as Gram form; B, D use standard
orthonormal coordinates; G2 and the dihedral types use rank-2 root
coordinates; I2(5), I2(8) and H3 live over a real quadratic extension.

Group elements are exact matrices R acting on covector coefficients,
c -> R c.  The action on polynomials substitutes column i of R for
variable i, which realizes p -> p o w^{-1} without inverting anything.
The group is never enumerated.  Dropping simple roots from the end gives
a chain of parabolic subgroups W_K > W_J; each step keeps one coset
u W_J per point of the orbit of a fundamental weight, whose stabilizer
in W_K is W_J.  Reynolds averages run through this chain with one
substitution per coset, the sum of the indices in all instead of |W|,
reusing the powers of the representatives' column forms; the matrices u
are built the first time a Reynolds average runs.
Hyperplanes are the orbit of the simple roots under the simple
reflections, normalized so the first nonzero coefficient is 1, and are
kept sorted by coefficient vector so all downstream artifacts are
deterministic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .derivations import Derivation
from .errors import GroupClosureFailed, OrderBoundExceeded, UnsupportedType
from .linalg import invert_matrix
from .poly import Poly, Powers, product, substitute_sum
from .scalars import Quad, Scalar, scalar_inverse

MatrixT = tuple[tuple[Scalar, ...], ...]

DEFAULT_ORDER_BOUND = 100000


@dataclass(frozen=True)
class CoxeterDatum:
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
        f, n = self.family, self.rank
        if f == "A":
            return math.factorial(n + 1)
        if f == "B":
            return 2 ** n * math.factorial(n)
        if f == "D":
            return 2 ** (n - 1) * math.factorial(n)
        if f == "G2":
            return 12
        if f == "H3":
            return 120
        if f == "I2":
            return 2 * self.param
        raise UnsupportedType("no order formula for %r" % f)


def _frac_matrix(rows: Sequence[Sequence[int | Fraction]]) -> MatrixT:
    return tuple(tuple(Fraction(v) if isinstance(v, int) else v for v in row) for row in rows)


def _unit_roots(n: int) -> tuple[tuple[Scalar, ...], ...]:
    return tuple(tuple(Fraction(1 if j == i else 0) for j in range(n)) for i in range(n))


def _cartan_gram_a(n: int) -> MatrixT:
    return _frac_matrix([[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)]
                         for i in range(n)])


def make_datum(family: str, rank: int, param: int | None = None) -> CoxeterDatum:
    """Build the coordinate realization for one type."""
    family = family.upper()
    if family == "A":
        if rank < 1:
            raise UnsupportedType("A series needs rank >= 1")
        return CoxeterDatum("A", rank, None, "A%d" % rank,
                            _cartan_gram_a(rank), _unit_roots(rank),
                            tuple(range(2, rank + 2)), 1)
    if family == "B":
        if rank < 2:
            raise UnsupportedType("B series needs rank >= 2")
        roots = []
        for i in range(rank - 1):
            r = [Fraction(0)] * rank
            r[i], r[i + 1] = Fraction(1), Fraction(-1)
            roots.append(tuple(r))
        last = [Fraction(0)] * rank
        last[rank - 1] = Fraction(1)
        roots.append(tuple(last))
        gram = _frac_matrix([[1 if i == j else 0 for j in range(rank)] for i in range(rank)])
        return CoxeterDatum("B", rank, None, "B%d" % rank, gram, tuple(roots),
                            tuple(2 * i for i in range(1, rank + 1)), 1)
    if family == "D":
        if rank < 4:
            raise UnsupportedType("D series needs rank >= 4")
        roots = []
        for i in range(rank - 1):
            r = [Fraction(0)] * rank
            r[i], r[i + 1] = Fraction(1), Fraction(-1)
            roots.append(tuple(r))
        last = [Fraction(0)] * rank
        last[rank - 2], last[rank - 1] = Fraction(1), Fraction(1)
        roots.append(tuple(last))
        gram = _frac_matrix([[1 if i == j else 0 for j in range(rank)] for i in range(rank)])
        degrees = tuple(sorted(list(range(2, 2 * rank - 1, 2)) + [rank]))
        return CoxeterDatum("D", rank, None, "D%d" % rank, gram, tuple(roots), degrees, 1)
    if family == "G2":
        gram = _frac_matrix([[6, -3], [-3, 2]])
        return CoxeterDatum("G2", 2, None, "G2", gram, _unit_roots(2), (2, 6), 1)
    if family == "H3":
        tau_num = Fraction(1, 2)  # off-diagonal entry is -(1+sqrt(5))/2
        off = Quad(-tau_num, -tau_num, 5)
        gram = (
            (Fraction(2), off, Fraction(0)),
            (off, Fraction(2), Fraction(-1)),
            (Fraction(0), Fraction(-1), Fraction(2)),
        )
        return CoxeterDatum("H3", 3, None, "H3", gram, _unit_roots(3), (2, 6, 10), 5)
    if family == "I2":
        m = param or 0
        if m < 3:
            raise UnsupportedType("I2(m) needs m >= 3")
        label = "I2(%d)" % m
        degrees = (2, m)
        if m == 3:
            return CoxeterDatum("I2", 2, 3, label, _cartan_gram_a(2), _unit_roots(2), degrees, 1)
        if m == 4:
            gram = _frac_matrix([[2, -1], [-1, 1]])
            return CoxeterDatum("I2", 2, 4, label, gram, _unit_roots(2), degrees, 1)
        if m == 6:
            gram = _frac_matrix([[6, -3], [-3, 2]])
            return CoxeterDatum("I2", 2, 6, label, gram, _unit_roots(2), degrees, 1)
        if m == 5:
            # 2 cos(pi/5) = (1+sqrt(5))/2
            off = Quad(Fraction(-1, 2), Fraction(-1, 2), 5)
            gram = ((Fraction(2), off), (off, Fraction(2)))
            return CoxeterDatum("I2", 2, 5, label, gram, _unit_roots(2), degrees, 5)
        if m == 8:
            # unequal root lengths keep the entries inside Q(sqrt(2))
            long2 = Quad(4, 2, 2)
            off = Quad(-2, -1, 2)
            gram = ((long2, off), (off, Fraction(2)))
            return CoxeterDatum("I2", 2, 8, label, gram, _unit_roots(2), degrees, 2)
        raise UnsupportedType("I2(%d) is not realized over Q or a quadratic field here" % m)
    raise UnsupportedType("unknown type %r" % family)


def parse_type(text: str, rank: int | None = None) -> CoxeterDatum:
    """Parse a type label such as ``B3``, ``I2(5)``, or (``A``, rank=2)."""
    t = text.strip().upper().replace(" ", "")
    if not t:
        raise UnsupportedType("empty type label")
    if t.startswith("I2"):
        rest = t[2:].strip("()")
        m = int(rest) if rest else (rank if rank is not None else 0)
        return make_datum("I2", 2, m)
    if t in ("G2", "H3"):
        return make_datum(t, int(t[1]))
    family = t[0]
    digits = t[1:]
    if digits:
        return make_datum(family, int(digits))
    if rank is None:
        raise UnsupportedType("type %r needs a rank" % text)
    return make_datum(family, rank)


def mat_mul(a: MatrixT, b: MatrixT) -> MatrixT:
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(1, n)), a[i][0] * b[0][j]) for j in range(n))
        for i in range(n)
    )


def mat_vec(a: MatrixT, v: Sequence[Scalar]) -> tuple[Scalar, ...]:
    n = len(a)
    return tuple(sum((a[i][k] * v[k] for k in range(1, n)), a[i][0] * v[0]) for i in range(n))


def transpose(a: MatrixT) -> MatrixT:
    return tuple(zip(*a))


def identity_matrix(n: int) -> MatrixT:
    return tuple(tuple(Fraction(1 if j == i else 0) for j in range(n)) for i in range(n))


@functools.lru_cache(maxsize=None)
def mat_inverse(a: MatrixT) -> MatrixT:
    inv = invert_matrix([list(r) for r in a])
    return tuple(tuple(row) for row in inv)


def reflection_matrix(root: Sequence[Scalar], gram: MatrixT) -> MatrixT:
    """Reflection in the hyperplane of a root, acting on covector coefficients."""
    n = len(root)
    g_root = mat_vec(gram, root)
    norm = sum((root[k] * g_root[k] for k in range(1, n)), root[0] * g_root[0])
    factor = 2 * scalar_inverse(norm)
    return tuple(
        tuple((Fraction(1) if i == j else Fraction(0)) - factor * root[i] * g_root[j]
              for j in range(n))
        for i in range(n)
    )


@dataclass(frozen=True)
class Hyperplane:
    """A reflecting hyperplane: its normalized coefficients and form."""

    coeffs: tuple[Scalar, ...]
    form: Poly


class ReflectionGroup:
    """A finite real reflection group: its generators and a coset chain.

    Stage s of ``chain`` is a breadth-first tree over the cosets u W_J of
    W_K, for K = {0, ..., s} and J = K - {s}: entry k is (parent, t) with
    u_k = g_t u_parent, and entry 0, the identity coset, is (-1, -1).  So
    the stages run innermost first, and the order is the product of their
    lengths.  The matrices u are built when a Reynolds average first needs
    them.
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
        reuses them."""
        stages = []
        for tree in self.chain:
            reps = [identity_matrix(self.rank)]
            for parent, t in tree[1:]:
                reps.append(mat_mul(self.generators[t], reps[parent]))
            stages.append(tuple(tuple(Powers(form) for form in _column_forms(u)) for u in reps))
        return tuple(stages)


class Arrangement:
    """The set of reflecting hyperplanes, in canonical sorted order."""

    def __init__(self, datum: CoxeterDatum, hyperplanes: tuple[Hyperplane, ...],
                 group: ReflectionGroup) -> None:
        self.datum = datum
        self.hyperplanes = hyperplanes
        self.group = group
        self._orbits: tuple[tuple[int, ...], ...] | None = None
        self._defining_polynomial: Poly | None = None

    def __len__(self) -> int:
        return len(self.hyperplanes)

    @property
    def defining_polynomial(self) -> Poly:
        if self._defining_polynomial is None:
            self._defining_polynomial = product((h.form for h in self.hyperplanes),
                                                self.datum.rank)
        return self._defining_polynomial

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """W-orbits of hyperplanes as index tuples, canonically ordered."""
        if self._orbits is not None:
            return self._orbits
        index_of = {h.coeffs: i for i, h in enumerate(self.hyperplanes)}
        seen: set[int] = set()
        orbit_list: list[tuple[int, ...]] = []
        for start in range(len(self.hyperplanes)):
            if start in seen:
                continue
            todo = [start]
            members = {start}
            while todo:
                i = todo.pop()
                for g in self.group.generators:
                    image = normalize_form(mat_vec(g, self.hyperplanes[i].coeffs))
                    j = index_of[image]
                    if j not in members:
                        members.add(j)
                        todo.append(j)
            seen |= members
            orbit_list.append(tuple(sorted(members)))
        self._orbits = tuple(orbit_list)
        return self._orbits


def normalize_form(coeffs: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """Scale a nonzero covector so its first nonzero coefficient is 1."""
    lead = None
    for c in coeffs:
        if c != 0:
            lead = c
            break
    if lead is None:
        raise ValueError("zero covector has no normalization")
    inv = scalar_inverse(lead)
    return tuple(inv * c for c in coeffs)


def build_group(datum: CoxeterDatum, order_bound: int = DEFAULT_ORDER_BOUND) -> tuple[ReflectionGroup, Arrangement]:
    """Build the group's coset chain and its reflection arrangement.

    The expected order is known from the type, so the bound is checked
    before any work is done.  Dropping simple roots from the end gives a
    chain of parabolic subgroups; at the step K > J = K - {s} the
    fundamental weight x of s (<alpha_t, x> = 0 for t != s, 1 for s, under
    the Gram form) has stabilizer W_J in W_K (Humphreys, Reflection Groups
    and Coxeter Groups, 1.10 and 1.12), so the points of the orbit W_K x
    are the cosets u W_J.  The hyperplanes are the orbit of the normalized
    simple roots.  The product of the indices must be the type's order and
    the root orbit its hyperplane count; a mismatch raises
    GroupClosureFailed.
    """
    expected = datum.group_order()
    if expected > order_bound:
        raise OrderBoundExceeded("group of order %d exceeds the bound %d" % (expected, order_bound))
    roots = datum.simple_roots
    generators = tuple(reflection_matrix(r, datum.gram) for r in roots)
    # the fundamental weights are the rows of the inverse Gram matrix of the
    # simple roots (it is symmetric), written in the simple roots
    inverse = invert_matrix(mat_mul(roots, mat_mul(datum.gram, transpose(roots))))
    weights = [mat_vec(transpose(roots), row) for row in inverse]
    chain = tuple(_coset_tree(weights[s], generators[:s + 1], expected)
                  for s in range(datum.rank))
    group = ReflectionGroup(datum, generators, chain)
    if group.order != expected:
        raise GroupClosureFailed("coset chain gives order %d, expected %d"
                                 % (group.order, expected))

    forms = {normalize_form(r): None for r in roots}
    queue = list(forms)
    for y in queue:
        if len(forms) > datum.num_hyperplanes:
            break
        for g in generators:
            z = normalize_form(mat_vec(g, y))
            if z not in forms:
                forms[z] = None
                queue.append(z)
    if len(forms) != datum.num_hyperplanes:
        raise GroupClosureFailed("found %d reflecting hyperplanes, expected %d"
                                 % (len(forms), datum.num_hyperplanes))
    hyperplanes = tuple(Hyperplane(c, Poly.linear(list(c))) for c in sorted(forms))
    return group, Arrangement(datum, hyperplanes, group)


def _coset_tree(x: tuple[Scalar, ...], generators: Sequence[MatrixT],
                bound: int) -> tuple[tuple[int, int], ...]:
    """Breadth-first over the orbit of x under the reflections: per orbit
    point, its parent's index and the reflection that reaches it from the
    parent (-1, -1 for x).  Stops once past bound points."""
    index = {x: 0}
    tree = [(-1, -1)]
    queue = [x]
    for k, y in enumerate(queue):
        if len(tree) > bound:
            break
        for t, g in enumerate(generators):
            z = mat_vec(g, y)
            if z not in index:
                index[z] = len(tree)
                tree.append((k, t))
                queue.append(z)
    return tuple(tree)


def _column_forms(w: MatrixT) -> tuple[Poly, ...]:
    n = len(w)
    return tuple(Poly.linear([w[j][i] for j in range(n)]) for i in range(n))


@functools.lru_cache(maxsize=256)
def _act_powers(w: MatrixT) -> tuple[Powers, ...]:
    return tuple(Powers(form) for form in _column_forms(w))


def act(w: MatrixT, p: Poly) -> Poly:
    """Action of a group element on a polynomial, p -> p o w^{-1}.

    The power tables of w's column forms are kept for the elements acted
    with most recently, so repeated actions of one element reuse them.
    """
    return substitute_sum(p, [_act_powers(w)], p.nvars)


def act_derivation(w: MatrixT, delta: Derivation) -> Derivation:
    """Action on vector fields: conjugation of the derivation by w."""
    n = delta.nvars
    inv_t = transpose(mat_inverse(w))
    moved = [act(w, f) for f in delta.coeffs]
    out = []
    for i in range(n):
        acc = Poly.zero(n)
        for k in range(n):
            if not moved[k].is_zero:
                acc = acc + moved[k].scale(inv_t[i][k])
        out.append(acc)
    return Derivation(out)


def reynolds(group: ReflectionGroup, p: Poly) -> Poly:
    """Average of p over the group, the projection onto invariants.

    act is a left action, so with W_K the union of the cosets u W_J the
    sum over W_K of w p is the sum over u of u applied to the sum over
    W_J.  Each stage of the chain is one substitute_sum, innermost first,
    and the total is divided by |W| once at the end.
    """
    for tables in group.coset_powers:
        p = substitute_sum(p, tables, p.nvars)
    return p.scale(Fraction(1, group.order))


def is_invariant_poly(group: ReflectionGroup, p: Poly) -> bool:
    return all(act(g, p) == p for g in group.generators)


def is_invariant_derivation(group: ReflectionGroup, delta: Derivation) -> bool:
    return all(act_derivation(g, delta) == delta for g in group.generators)


class Multiplicity:
    """A multiplicity on the arrangement, one integer per hyperplane."""

    def __init__(self, arrangement: Arrangement, values: Sequence[int]) -> None:
        values = tuple(int(v) for v in values)
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
                values[i] = int(v)
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
            return self.values == other.values
        return NotImplemented
