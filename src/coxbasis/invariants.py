"""Basic invariants, their Jacobian, and derived data.

Invariants are chosen in one pass, degree by degree in increasing order:
the Reynolds averages of the monomials of one degree (walked in the global
monomial order) are reduced against the products of the invariants already
chosen, and the first nonzero reductions are kept.  By Chevalley's theorem
(Amer. J. Math. 77, 1955) homogeneous invariants of the basic degrees that
are independent modulo the decomposables always form a basic system, so
no choice is ever revisited; the Jacobian check of `InvariantSystem` stays
as an alarm.  Each chosen invariant is normalized to leading coefficient
1, so the whole system is deterministic.

The Jacobian matrix M[i][j] = dP_j/dx_i of homogeneous invariants of the
basic degrees has determinant J = c * Q, with Q the defining polynomial
of the arrangement and c a scalar, nonzero exactly when the invariants
are basic.  So c is found by evaluating M at one integer point off the
arrangement, c = det M(p) / Q(p) (``certify.determinant_scalar``), and J
is recorded as c * Q without expanding the determinant.  The system's
field is the type's: the realization's field holds every invariant,
gradient and J.  The cofactors of the last column of M give the
coordinate expression of the primitive derivation
D = d/dP_l = (1/J) sum_i C_i d/dx_i: the numerator field C is
`InvariantSystem.primitive_numerator` and the denominator
`InvariantSystem.jacobian`, and the connection layer reads both off the
system.  C is read off the wedge product of the first l - 1 columns of M
(`PolyMatrix.wedge`) on first use; the connection's inverse evaluates it
at points and multiplies it out in its re-check, dividing nothing.

The invariant fields of one degree have the basis g(P) grad P_j over
invariant monomials g (`invariant_field_basis`), so a field there is its
Q[P]-coordinates {(j, exponents of g): c}.  `InvariantSystem.field_keys`
lists the coordinates of one degree, once per degree, and
`InvariantSystem.compose_field` builds a field from them; the connection's inverse, the Hodge comparison
and the random fields of ``verify`` all go through these two.

A system is kept on its arrangement and its universal fields, field keys
and fingerprint on it, and the certified bases of ``basis.base_basis``
and the hyperplanes' pivot forms beside it on the arrangement, so the
memo of recent types (``coxeter._walked``, 16 types) is the one memo of
a type's datum, group, arrangement, invariants and everything kept on
them.  The system keeps its arrangement in turn and reads its type from
the arrangement's datum, so after ``compute_invariants`` it is the one
handle on a type's state: the requests and suites downstream take it
alone.
"""

from __future__ import annotations

import functools
import hashlib
import json
from typing import Mapping, Sequence

from .certify import determinant_scalar
from .coxeter import Arrangement, Multiplicity, ReflectionGroup, reynolds
from .derivations import Derivation, euler_field
from .errors import JacobianDegenerate
from .linalg import Echelon, PolyMatrix, monomial_columns, numerator_vector
from .poly import (Poly, Powers, linear_combination, monomials_of_degree, poly_to_json,
                   substitute_sum, weighted_exponents)
from .scalars import Scalar, format_scalar, join_scalar

# the coordinates (j, exponents of g) of the invariant field g(P) grad P_j
FieldKey = tuple[int, tuple[int, ...]]


class InvariantSystem:
    """A full set of basic invariants of the arrangement's type, with the
    Jacobian data derived from them.

    Invariance is what makes J = c * Q, so callers must have checked it.
    Raises JacobianDegenerate when c is 0, so the invariants are not basic.
    """

    def __init__(self, arrangement: Arrangement, polys: tuple[Poly, ...]) -> None:
        datum = arrangement.datum
        self.arrangement = arrangement
        self.label = datum.label
        self.nvars = datum.rank
        self.degrees = datum.degrees
        # the d of Q(sqrt(d)) of the type's realization, 1 for Q: it holds
        # the invariants, their gradients and J
        self.field = datum.disc
        self.polys = polys
        self.jacobian_partials = m = jacobian_matrix(polys)
        self.jacobian_scalar = determinant_scalar(m, Multiplicity.constant(arrangement, 1))
        if self.jacobian_scalar == 0:
            raise JacobianDegenerate("Jacobian of the invariants vanishes")
        # J = c * Q, never expanded
        self.jacobian = arrangement.defining_polynomial.scale(self.jacobian_scalar)
        # the invariant form on covectors has the Gram matrix; pairing the
        # partials of P_j against it is what makes the gradient field equivariant
        forms = [Poly.linear(row) for row in datum.gram]
        self.gradients = tuple(Derivation([linear_combination([row[j] for row in m.rows], form)
                                           for form in forms]) for j in range(len(polys)))
        # the powers of P_1 .. P_l, grown as `compose` asks for them
        self._tables = tuple(Powers(p) for p in polys)
        # k -> nabla_D^{-k} E for k = 0 .. K, extended by `connection.universal_field`
        self.universal_fields: dict[int, Derivation] = {0: euler_field(self.nvars)}
        # degree -> `field_keys`, and the `fingerprint`, each kept from its first use
        self._field_keys: dict[int, tuple[FieldKey, ...]] = {}
        self._fingerprint: str | None = None

    @functools.cached_property
    def primitive_numerator(self) -> Derivation:
        """J d/dP_l, the numerator field C of the primitive derivation,
        computed on first use."""
        n = self.nvars
        minors = self.jacobian_partials.wedge(range(n - 1))
        # C_i is (-1)^(i+l) times the minor of the first l - 1 columns off row i
        return Derivation([(-1) ** (i + n - 1) * minors[tuple(r for r in range(n) if r != i)]
                           for i in range(n)])

    @property
    def coxeter_number(self) -> int:
        return self.degrees[-1]

    def compose(self, g: Poly) -> Poly:
        """g(P_1, .., P_l) in coordinates, for g a polynomial in l variables."""
        return substitute_sum(g, [self._tables], self.nvars)

    def field_keys(self, degree: int) -> tuple[FieldKey, ...]:
        """The coordinates (j, exponents of g) of the fields g(P) grad P_j of
        one coefficient degree: j ascending, then g of degree
        degree - (deg P_j - 1) in `weighted_exponents` order.  Listed on
        first use and kept per degree."""
        keys = self._field_keys.get(degree)
        if keys is None:
            keys = self._field_keys[degree] = tuple(
                (j, exps) for j, d in enumerate(self.degrees)
                for exps in weighted_exponents(self.degrees, degree - (d - 1)))
        return keys

    def compose_field(self, coords: Mapping[FieldKey, Scalar]) -> Derivation:
        """The field sum c P^e grad P_j over its coordinates {(j, e): c},
        composing one g_j = sum c P^e per j."""
        out = Derivation.zero(self.nvars)
        for j, grad in enumerate(self.gradients):
            g = Poly(len(self.polys), {e: c for (jj, e), c in coords.items() if jj == j})
            if not g.is_zero:
                out = out + grad * self.compose(g)
        return out

    def fingerprint(self) -> str:
        """The sha256 of the system's invariants and Jacobian scalar,
        hashed on first use and kept."""
        if self._fingerprint is None:
            blob = json.dumps({
                "label": self.label,
                "nvars": self.nvars,
                "degrees": list(self.degrees),
                "polys": [poly_to_json(p) for p in self.polys],
                "jacobian_scalar": format_scalar(self.jacobian_scalar),
            }, sort_keys=True, separators=(",", ":"))
            self._fingerprint = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        return self._fingerprint


def jacobian_matrix(polys: Sequence[Poly]) -> PolyMatrix:
    """Matrix with entry (i, j) equal to dP_j/dx_i."""
    n = polys[0].nvars
    return PolyMatrix([[polys[j].partial(i) for j in range(len(polys))] for i in range(n)])


def jacobian_factors(system: InvariantSystem) -> bool:
    """Reference check that the expanded Jacobian determinant equals c * Q.

    The pipeline never expands this determinant; the check does, so it
    tests the recorded scalar against an independent computation.
    """
    reference = jacobian_matrix(system.polys).det()
    return (system.jacobian_scalar != 0 and
            reference == system.jacobian)


def compute_invariants(group: ReflectionGroup, arrangement: Arrangement,
                       cache_dir: object = None) -> InvariantSystem:
    """Select basic invariants for the group, once per arrangement.

    The system is kept on the arrangement, which ``build_group`` keeps for
    the 16 types built most recently.  ``cache_dir`` is accepted and
    ignored: nothing is read from or written to disk.  A group and an
    arrangement of different types raise ValueError.
    """
    if group.datum != arrangement.datum:
        raise ValueError("the group is of type %s but the arrangement of type %s"
                         % (group.datum.label, arrangement.datum.label))
    if arrangement.invariants is None:
        arrangement.invariants = _select_invariants(group, arrangement)
    return arrangement.invariants


def _select_invariants(group: ReflectionGroup, arrangement: Arrangement) -> InvariantSystem:
    datum = group.datum
    n = datum.rank
    field = datum.disc
    chosen: list[Poly] = []
    tables: list[Powers] = []
    for degree in sorted(set(datum.degrees)):
        count = datum.degrees.count(degree)
        columns = monomial_columns(1, n, degree)
        monos = list(monomials_of_degree(n, degree))
        # echelon spanning the decomposables of this degree, then the picks
        echelon = Echelon(field)
        for exps in weighted_exponents(datum.degrees[:len(chosen)], degree):
            prod = substitute_sum(Poly.monomial(len(chosen), exps), [tables], n)
            echelon.add(numerator_vector((prod,), columns, field))
        picked = []
        for exps in monomials_of_degree(n, degree):
            if len(picked) == count:
                break
            avg = reynolds(group, Poly.monomial(n, exps))
            if avg.is_zero:
                continue
            red = echelon.reduce(numerator_vector((avg,), columns, field))
            # the reduction is known up to a scale, which monic() discards
            terms = {monos[k]: join_scalar(field, c, 1) for k, c in enumerate(red)
                     if c != echelon.zero}
            if terms:
                echelon.insert(red)
                picked.append(Poly(n, terms).monic())
        if len(picked) < count:
            raise JacobianDegenerate("only %d independent invariants of degree %d for %s"
                                     % (len(picked), degree, datum.label))
        chosen += picked
        tables += map(Powers, picked)
    return InvariantSystem(arrangement, tuple(chosen))


def invariant_field_degrees(system: InvariantSystem) -> list[int]:
    """The degrees 0..2h that have a nonzero invariant field."""
    return [d for d in range(2 * system.coxeter_number + 1)
            if system.field_keys(d)]


def invariant_field_basis(system: InvariantSystem,
                          degree: int) -> list[tuple[FieldKey, Derivation]]:
    """Basis of the invariant polynomial fields of one coefficient degree.

    Every invariant field of degree d is uniquely sum_j g_j grad(P_j)
    with g_j an invariant polynomial of degree d - (deg P_j - 1).  The
    basis therefore consists of invariant monomials times gradients; each
    entry is keyed by its coordinates (j, exponents of g).
    """
    return [(key, system.compose_field({key: 1})) for key in system.field_keys(degree)]
