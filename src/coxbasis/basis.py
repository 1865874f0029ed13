"""Construction of certified bases for shifted derivation modules.

Given a free base basis for multiplicity m (values 0 and 1), the members
nabla_{delta_i}(antiderivative^k of the Euler field) form a basis for
multiplicity m + 2k.  The base basis comes from one of four sources:
coordinate fields for m = 0, invariant gradients for m = 1, a
user-supplied list (certified before use), or a degree-by-degree search
that works directly from the membership conditions and certifies what it
finds.  Every constructed basis is re-certified; a failed certificate on
the constructed members is an internal alarm, not a user error.  At k = 0
the members are the base itself (nabla_delta E = delta), and the base's
certificate is theirs.

The base and its certificate depend on the type and m alone, never on k.
So a base that is not the user's, for an m constant on every W-orbit of
hyperplanes, is kept on the arrangement (``Arrangement.bases``), beside
its invariant system: a process certifies it once for every shift, and at
most 2^(number of orbits) multiplicities per source are kept.  A user's
base and a multiplicity that is not W-invariant are certified on every
request.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .certify import Certificate, graded_member_basis, ziegler_certify
from .connection import universal_field
from .coxeter import Multiplicity
from .derivations import Derivation, nabla
from .errors import CertificateFailed, NotABasis
from .invariants import InvariantSystem
# rref stays bound here for the per-layer tracer of perfbench/tracer.py
from .linalg import Echelon, monomial_columns, numerator_vector, rref  # noqa: F401
from .poly import Poly, monomials_of_degree

BASE_SOURCES = ("auto", "coordinate", "gradient", "oracle", "user")


class BasisRequest:
    """What to build: a multiplicity with values in {0, 1} and a shift k."""

    def __init__(self, system: InvariantSystem, multiplicity: Multiplicity, k: int,
                 base_source: str = "auto",
                 user_base: Sequence[Derivation] | None = None) -> None:
        if multiplicity.arrangement is not system.arrangement:
            raise ValueError("the multiplicity is on an arrangement of type %s, not on the "
                             "arrangement of the %s invariants"
                             % (multiplicity.arrangement.datum.label, system.label))
        if k < 0:
            raise ValueError("the shift k must be nonnegative")
        if not multiplicity.is_zero_one():
            raise ValueError("base multiplicities must have values in {0, 1}")
        if base_source not in BASE_SOURCES:
            raise ValueError("unknown base source %r" % base_source)
        if (base_source == "user") != (user_base is not None):
            raise ValueError("a user_base goes with base source 'user' and no other")
        self.system = system
        self.multiplicity = multiplicity
        self.k = k
        self.base_source = base_source
        self.user_base = user_base


class BasisResult(NamedTuple):
    """A constructed basis together with its certificate, which holds the
    shifted multiplicity m + 2k."""

    request: BasisRequest
    base_source: str
    base_members: tuple[Derivation, ...]
    base_certificate: Certificate | None
    universal: Derivation
    members: tuple[Derivation, ...]
    certificate: Certificate


def base_basis(request: BasisRequest) -> tuple[str, tuple[Derivation, ...], Certificate | None]:
    """Produce and, where needed, certify a base basis for the multiplicity.

    A base that is not the user's, for a W-invariant multiplicity, is kept
    on the arrangement under its source and multiplicity values, so each
    is found and certified once; a failure is not kept.
    """
    mult = request.multiplicity
    source = request.base_source
    if source == "auto":
        per = set(mult.values)
        if per == {0} or not per:
            source = "coordinate"
        elif per == {1}:
            source = "gradient"
        else:
            source = "oracle"
    if source == "user" or mult.per_orbit() is None:
        return _certified_base(request, source)
    key = (source, mult.values)
    bases = mult.arrangement.bases
    if key not in bases:
        bases[key] = _certified_base(request, source)
    return bases[key]


def _certified_base(request: BasisRequest,
                    source: str) -> tuple[str, tuple[Derivation, ...], Certificate | None]:
    """The base of one resolved source, found and certified afresh."""
    mult = request.multiplicity
    n = mult.arrangement.datum.rank
    if source == "coordinate":
        if any(v != 0 for v in mult.values):
            raise NotABasis("coordinate fields only span the module of the zero multiplicity")
        return source, tuple(Derivation.coordinate(n, i) for i in range(n)), None
    if source == "gradient":
        members = tuple(request.system.gradients)
        message = "gradient fields are not a basis for this multiplicity"
    elif source == "user":
        members = tuple(request.user_base or ())
        _check_user_shape(members, n, mult.total())
        message = "user-supplied base failed certification"
    else:
        members = _oracle_search(mult)
        message = "search produced %d generators but they failed certification" % len(members)
    cert = ziegler_certify(members, mult)
    if not cert.is_free:
        raise NotABasis(message, certificate=cert)
    return source, members, cert


def _check_user_shape(members: Sequence[Derivation], n: int, mult_sum: int) -> None:
    """Reject a proposed base that cannot be certified at all: a basis has
    exactly n members, each nonzero and homogeneous, and their degrees are
    nonnegative and sum to sum(m), so none exceeds it.  The degree check
    comes before any contact order, whose cost grows with the degree."""
    if len(members) != n:
        raise NotABasis("user-supplied base has %d members, a basis needs %d"
                        % (len(members), n), failure={"members": len(members), "required": n})
    for i, m in enumerate(members):
        problem = "zero" if m.is_zero else None if m.is_homogeneous() else "not homogeneous"
        if problem is not None:
            raise NotABasis("user-supplied base member %d is %s" % (i, problem),
                            failure={"member": i, "problem": problem})
        degree = m.degree()
        if degree > mult_sum:
            raise NotABasis("user-supplied base member %d has degree %d, above the "
                            "multiplicity sum %d" % (i, degree, mult_sum),
                            failure={"member": i, "degree": degree, "multiplicity_sum": mult_sum})


def _oracle_search(mult: Multiplicity) -> tuple[Derivation, ...]:
    """Minimal generators of the derivation module, degree by degree.

    Walks degrees 0 .. sum(m).  At each degree the graded piece is
    computed from the membership constraints alone, the span of earlier
    generators times polynomials is subtracted, and whatever survives is
    appended.  A free module of rank n has exactly n generators with
    degrees summing to sum(m), so anything else aborts the search.
    """
    n = mult.arrangement.datum.rank
    field = mult.arrangement.datum.disc
    bound = mult.total()
    generators: list[Derivation] = []
    for degree in range(0, bound + 1):
        piece = graded_member_basis(mult, degree)
        if not piece:
            continue
        columns = monomial_columns(n, n, degree)
        echelon = Echelon(field)
        for gen in generators:
            shift = degree - gen.degree()
            for exps in monomials_of_degree(n, shift):
                echelon.add(numerator_vector((gen * Poly.monomial(n, exps)).coeffs, columns, field))
        for cand in piece:
            if echelon.add(numerator_vector(cand.coeffs, columns, field)) is None:
                continue
            generators.append(cand)
            if len(generators) > n:
                raise NotABasis("module needs more than %d generators; it is not free" % n)
        if len(generators) == n and sum(g.degree() for g in generators) == bound:
            return tuple(generators)
    raise NotABasis("search exhausted degrees 0..%d with %d generators"
                    % (bound, len(generators)))


def build_basis(request: BasisRequest) -> BasisResult:
    """Build and certify the basis for the shifted multiplicity."""
    source, base, base_cert = base_basis(request)
    univ = universal_field(request.k, request.system)
    members = tuple(nabla(delta, univ) for delta in base)
    if request.k == 0 and base_cert is not None and members == base:
        # nabla_delta E = delta: the base's certificate is this one
        cert = base_cert
    else:
        shifted = request.multiplicity.shifted(2 * request.k)
        cert = ziegler_certify(members, shifted)
    if not cert.is_free:
        raise CertificateFailed(
            "constructed members failed certification with verdict %s" % cert.verdict,
            certificate=cert)
    h = request.system.coxeter_number
    expected = tuple(request.k * h + b.degree() for b in base)
    if cert.member_degrees != expected:
        raise CertificateFailed(
            "member degrees %s do not match the predicted %s"
            % (cert.member_degrees, expected), certificate=cert)
    return BasisResult(
        request=request,
        base_source=source,
        base_members=base,
        base_certificate=base_cert,
        universal=univ,
        members=members,
        certificate=cert,
    )
