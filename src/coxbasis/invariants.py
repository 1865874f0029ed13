"""Basic invariants, their Jacobian, and derived data.

Invariants are produced degree by degree: Reynolds averages of monomials
(walked in the global monomial order) are reduced against the subalgebra
generated by the invariants already chosen, and the first candidates with
nonzero reduction win.  A final check confirms the Jacobian of the full
set is nonzero; if it is not, the selection backtracks to the next
candidate combination.  Each chosen invariant is normalized to leading
coefficient 1, so the whole system is deterministic.

The Jacobian matrix M[i][j] = dP_j/dx_i of homogeneous invariants of the
basic degrees has determinant J = c * Q, with Q the defining polynomial
of the arrangement and c a scalar, nonzero exactly when the invariants
are basic.  So c is found by evaluating M at one rational point off the
arrangement, c = det M(p) / Q(p), and J is recorded as c * Q without
expanding the determinant.  The cofactors of M give the coordinate
expression of the fields d/dP_j: `partial_P_field` (column j of the
cofactor matrix over J) is their one definition, and the connection layer
divides its action by J.  Each cofactor column is expanded on first use;
the pipeline reads only the primitive one, j = l - 1.

The invariant fields of one degree have the basis g(P) grad P_j over
invariant monomials g (`invariant_field_basis`); the connection's inverse
and the Hodge comparison both work in it.

Systems can be cached to disk as JSON, keyed by type, rank and field,
with every coefficient stored as an exact string.  The file is read on
every call and stays authoritative: a loaded system is revalidated before
use and recomputed on any mismatch.  The one shortcut is in memory: when
the file's text equals, character for character, the text this process
last validated or wrote for the same type, the system built from it then
is returned again, with the fields and powers it has computed since.  A
cache that cannot be written is skipped with a warning on stderr.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import sys
import tempfile
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import Iterator, Sequence

from .coxeter import Arrangement, CoxeterDatum, ReflectionGroup, act, reynolds
from .derivations import Derivation, euler_field
from .errors import JacobianDegenerate
from .linalg import Echelon, PolyMatrix, det, monomial_columns, numerator_vector
from .poly import (Poly, dump_json, monomials_of_degree, point_off, poly_from_json,
                   poly_to_json)
from .scalars import Scalar, common_field, format_scalar, join_scalar, scalar_inverse


class InvariantSystem:
    """A full set of basic invariants with Jacobian data attached."""

    def __init__(self, label: str, nvars: int, degrees: tuple[int, ...],
                 polys: tuple[Poly, ...], jacobian: Poly, jacobian_scalar: Scalar,
                 jacobian_partials: PolyMatrix,
                 gradients: tuple[Derivation, ...]) -> None:
        self.label = label
        self.nvars = nvars
        self.degrees = degrees
        self.polys = polys
        self.jacobian = jacobian
        self.jacobian_scalar = jacobian_scalar
        self.jacobian_partials = jacobian_partials
        self.gradients = gradients
        self._powers: dict[tuple[int, int], Poly] = {}
        self._cofactor_columns: dict[int, tuple[Poly, ...]] = {}
        # k -> nabla_D^{-k} E for k = 0 .. K, extended by `connection.universal_field`
        self.universal_fields: dict[int, Derivation] = {0: euler_field(nvars)}

    def cofactor_column(self, j: int) -> tuple[Poly, ...]:
        """Column j of the Jacobian cofactor matrix, computed on first use.

        The pipeline reads only the primitive column j = l - 1; the others
        are expanded only when d/dP_j for a lower j is asked for.
        """
        column = self._cofactor_columns.get(j)
        if column is None:
            column = self._cofactor_columns[j] = _cofactor_column(self.jacobian_partials, j)
        return column

    @property
    def cofactors(self) -> tuple[tuple[Poly, ...], ...]:
        """The whole cofactor matrix C[i][j]; expands every column."""
        columns = [self.cofactor_column(j) for j in range(self.nvars)]
        return tuple(zip(*columns))

    @property
    def coxeter_number(self) -> int:
        return self.degrees[-1]

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(d - 1 for d in self.degrees)

    @functools.cached_property
    def field(self) -> int:
        """The d of Q(sqrt(d)) holding the invariants, their gradients and J;
        1 for Q."""
        polys = chain(self.polys, (self.jacobian,), *(g.coeffs for g in self.gradients))
        return functools.reduce(common_field, (f.d for f in polys), 1)

    @functools.cached_property
    def gradient_numerators(self) -> tuple[tuple[Poly, ...], ...]:
        """N[j][i], the numerator over J of D applied to component i of
        grad P_j, for the primitive derivation D = d/dP_l.

        Only the connection's inverse needs these, so they are computed on
        first use, never by cache loading or `info`.
        """
        field, _ = partial_P_field(self, self.nvars - 1)
        return tuple(tuple(field.apply(f) for f in g.coeffs) for g in self.gradients)

    def power(self, j: int, e: int) -> Poly:
        """P_j**e with caching; these powers recur in every expansion."""
        if e == 0:
            return Poly.constant(self.nvars, Fraction(1))
        key = (j, e)
        got = self._powers.get(key)
        if got is None:
            got = self.power(j, e - 1) * self.polys[j]
            self._powers[key] = got
        return got

    def expand(self, exps: Sequence[int]) -> Poly:
        """Expand a monomial in the invariants to coordinates."""
        out = Poly.constant(self.nvars, Fraction(1))
        for j, e in enumerate(exps):
            if e:
                out = out * self.power(j, e)
        return out

    def invariant_exponents(self, degree: int) -> Iterator[tuple[int, ...]]:
        """Exponent vectors of invariant monomials of the given x-degree."""
        yield from _weighted_exponents(self.degrees, degree)

    def invariant_basis(self, degree: int) -> list[Poly]:
        """Monomials in the invariants spanning the invariants of one degree."""
        return [self.expand(e) for e in self.invariant_exponents(degree)]

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "nvars": self.nvars,
            "degrees": list(self.degrees),
            "polys": [poly_to_json(p) for p in self.polys],
            "jacobian_scalar": format_scalar(self.jacobian_scalar),
        }

    def fingerprint(self) -> str:
        blob = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class _LazyCandidates:
    """Candidate invariants, produced on demand in monomial order."""

    def __init__(self, gen: Iterator[Poly]) -> None:
        self._gen = gen
        self._items: list[Poly] = []

    def get(self, idx: int) -> Poly | None:
        while len(self._items) <= idx:
            nxt = next(self._gen, None)
            if nxt is None:
                return None
            self._items.append(nxt)
        return self._items[idx]


def _weighted_exponents(weights: Sequence[int], total: int) -> Iterator[tuple[int, ...]]:
    if total < 0:
        return
    if not weights:
        if total == 0:
            yield ()
        return
    w = weights[0]
    for e in range(total // w, -1, -1):
        for rest in _weighted_exponents(weights[1:], total - e * w):
            yield (e,) + rest


def jacobian_matrix(polys: Sequence[Poly]) -> PolyMatrix:
    """Matrix with entry (i, j) equal to dP_j/dx_i."""
    n = polys[0].nvars
    return PolyMatrix([[polys[j].partial(i) for j in range(len(polys))] for i in range(n)])


def jacobian_factors(system: InvariantSystem, arrangement: Arrangement) -> bool:
    """Reference check that the expanded Jacobian determinant equals c * Q.

    The pipeline never expands this determinant; the check does, so it
    tests the recorded scalar against an independent computation.
    """
    reference = jacobian_matrix(system.polys).det()
    return (system.jacobian_scalar != 0 and
            reference == arrangement.defining_polynomial.scale(system.jacobian_scalar))


def _cofactor_column(m: PolyMatrix, j: int) -> tuple[Poly, ...]:
    n = m.nrows
    if n == 1:
        return (Poly.constant(m.entry(0, 0).nvars, Fraction(1)),)
    out = []
    for i in range(n):
        minor = m.minor(i, j).det()
        out.append(minor if (i + j) % 2 == 0 else -minor)
    return tuple(out)


# per type, the cache text this process last validated or wrote, and the
# system built from it
_KNOWN_TEXTS: dict[CoxeterDatum, tuple[str, InvariantSystem]] = {}


def compute_invariants(group: ReflectionGroup, arrangement: Arrangement,
                       cache_dir: str | Path | None = None) -> InvariantSystem:
    """Select basic invariants for the group, optionally using a disk cache.

    With a cache dir the file is read on every call; see the module
    docstring for when its system is reused from memory.
    """
    datum = group.datum
    if cache_dir is None:
        return _select_invariants(group, arrangement)
    path = Path(cache_dir) / ("invariants_%s_%s.json"
                              % (datum.label.replace("(", "").replace(")", ""),
                                 "Q" if datum.disc == 1 else "Qsqrt%d" % datum.disc))
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, ValueError):
        text = None
    if text is not None:
        known = _KNOWN_TEXTS.get(datum)
        if known is not None and known[0] == text:
            return known[1]
        system = _load_cache(text, group, arrangement)
        if system is not None:
            _KNOWN_TEXTS[datum] = (text, system)
            return system
    system = _select_invariants(group, arrangement)
    try:
        _KNOWN_TEXTS[datum] = (_store_cache(path, system), system)
    except OSError as exc:
        sys.stderr.write("warning: invariant cache not written: %s\n" % exc)
    return system


def _select_invariants(group: ReflectionGroup, arrangement: Arrangement) -> InvariantSystem:
    datum = group.datum
    n = datum.rank
    field = datum.disc
    levels: list[tuple[int, int]] = []
    for d in sorted(set(datum.degrees)):
        levels.append((d, datum.degrees.count(d)))

    point, _ = point_off([h.form for h in arrangement.hyperplanes], n)

    def candidates_at(degree: int) -> "_LazyCandidates":
        def gen():
            for exps in monomials_of_degree(n, degree):
                avg = reynolds(group, Poly.monomial(n, exps))
                if not avg.is_zero:
                    yield avg
        return _LazyCandidates(gen())

    def dfs(level: int, chosen: list[tuple[int, Poly]]) -> list[Poly] | None:
        if level == len(levels):
            # J = c * Q for invariants of the basic degrees, so J(p) decides J != 0
            polys = [p for _, p in chosen]
            return polys if det(jacobian_matrix(polys).evaluate(point)) != 0 else None
        degree, count = levels[level]
        cands = candidates_at(degree)
        columns = monomial_columns(1, n, degree)
        monos = [e for _, e in columns]

        # echelon spanning the subalgebra of lower invariants at this degree
        echelon = Echelon(field)
        weights = [d for d, _ in chosen]
        for exps in _weighted_exponents(weights, degree):
            prod = Poly.constant(n, Fraction(1))
            for (_, p), e in zip(chosen, exps):
                prod = prod * p ** e
            echelon.add(numerator_vector((prod,), columns, field))

        def pick(start: int, picked: list[Poly]) -> list[Poly] | None:
            if len(picked) == count:
                return dfs(level + 1, chosen + [(degree, p) for p in picked])
            idx = start
            while True:
                cand = cands.get(idx)
                if cand is None:
                    return None
                red = echelon.reduce(numerator_vector((cand,), columns, field))
                idx += 1
                # the reduction is known up to a scale, which monic() discards
                terms = {monos[k]: join_scalar(field, c, 1) for k, c in enumerate(red)
                         if c != echelon.zero}
                if not terms:
                    continue
                reduced_poly = Poly(n, terms).monic()
                checkpoint = list(echelon.rows)
                echelon.insert(red)
                result = pick(idx, picked + [reduced_poly])
                if result is not None:
                    return result
                echelon.rows = checkpoint

        return pick(0, [])

    polys = dfs(0, [])
    if polys is None:
        raise JacobianDegenerate("no candidate invariants give a nonzero Jacobian for %s"
                                 % datum.label)
    return _finish_system(datum.label, n, datum.degrees, tuple(polys), arrangement, datum.gram)


def _finish_system(label: str, nvars: int, degrees: tuple[int, ...], polys: tuple[Poly, ...],
                   arrangement: Arrangement, gram) -> InvariantSystem:
    """Attach the Jacobian data to homogeneous invariants of the basic degrees.

    Invariance is what makes J = c * Q, so callers must have checked it.
    """
    m = jacobian_matrix(polys)
    point, values = point_off([h.form for h in arrangement.hyperplanes], nvars)
    jac_scalar = det(m.evaluate(point)) * scalar_inverse(math.prod(values, start=Fraction(1)))
    if jac_scalar == 0:
        raise JacobianDegenerate("Jacobian of the invariants vanishes")
    jac = arrangement.defining_polynomial.scale(jac_scalar)
    # the invariant form on covectors has matrix `gram`; pairing the partials
    # of P_j against it is what makes the gradient field equivariant
    gradients = []
    for j in range(len(polys)):
        coeffs = []
        for i in range(nvars):
            acc = Poly.zero(nvars)
            for i2 in range(nvars):
                entry = m.entry(i2, j)
                if not entry.is_zero and gram[i][i2] != 0:
                    acc = acc + entry.scale(gram[i][i2])
            coeffs.append(acc)
        gradients.append(Derivation(coeffs))
    return InvariantSystem(label, nvars, tuple(degrees), polys, jac, jac_scalar,
                           m, tuple(gradients))


def partial_P_field(system: InvariantSystem, j: int) -> tuple[Derivation, Poly]:
    """The field d/dP_j as (polynomial numerator field, denominator J).

    The numerator coefficients form column j of the Jacobian cofactor
    matrix, so d/dP_j = (1/J) * sum_i C[i][j] d/dx_i.
    """
    return Derivation(system.cofactor_column(j)), system.jacobian


def invariant_field_degrees(system: InvariantSystem) -> list[int]:
    """The degrees 0..2h that have a nonzero invariant field.

    Degree d has one exactly when some invariant g_j of degree
    d - (deg P_j - 1) exists, so only the exponents are enumerated.
    """
    return [d for d in range(2 * system.coxeter_number + 1)
            if any(next(system.invariant_exponents(d - (deg - 1)), None) is not None
                   for deg in system.degrees)]


def invariant_field_basis(system: InvariantSystem, degree: int) -> list[tuple[tuple[int, int, tuple[int, ...]], Derivation]]:
    """Basis of the invariant polynomial fields of one coefficient degree.

    Every invariant field of degree d is uniquely sum_j g_j grad(P_j)
    with g_j an invariant polynomial of degree d - (deg P_j - 1).  The
    basis therefore consists of invariant monomials times gradients; each
    entry is keyed by (j, degree of g, exponents of g).
    """
    out = []
    for j, d in enumerate(system.degrees):
        g_degree = degree - (d - 1)
        if g_degree < 0:
            continue
        for exps in system.invariant_exponents(g_degree):
            g = system.expand(exps)
            out.append(((j, g_degree, exps), system.gradients[j] * g))
    return out


def _valid_invariants(label: str, nvars: int, degrees: tuple[int, ...],
                      polys: tuple[Poly, ...], group: ReflectionGroup) -> bool:
    """Loaded invariants match the group: degrees, normalization, invariance."""
    datum = group.datum
    if label != datum.label or degrees != datum.degrees or nvars != datum.rank:
        return False
    if len(polys) != len(degrees):
        return False
    for p, d in zip(polys, degrees):
        if p.is_zero or not p.is_homogeneous() or p.homogeneous_degree() != d:
            return False
        if p.leading_coefficient() != 1:
            return False
        if any(act(g, p) != p for g in group.generators):
            return False
    return True


def _load_cache(text: str, group: ReflectionGroup, arrangement: Arrangement) -> InvariantSystem | None:
    """The system a cache file's text holds, or None if it does not hold a
    valid one for the group."""
    try:
        data = json.loads(text)
    except ValueError:
        return None
    try:
        label = data["label"]
        nvars = int(data["nvars"])
        degrees = tuple(int(d) for d in data["degrees"])
        polys = tuple(poly_from_json(p, nvars) for p in data["polys"])
        # J = c * Q holds only for invariants, so they are checked first;
        # coefficients from a foreign quadratic field raise ValueError here
        valid = _valid_invariants(label, nvars, degrees, polys, group)
    except (KeyError, ValueError, TypeError):
        return None
    if not valid:
        return None
    try:
        return _finish_system(label, nvars, degrees, polys, arrangement, group.datum.gram)
    except JacobianDegenerate:
        return None


def _store_cache(path: Path, system: InvariantSystem) -> str:
    """Write the system to its cache file atomically; returns the text written."""
    path.parent.mkdir(parents=True, exist_ok=True)
    blob = dump_json(system.to_json_dict())
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return blob
