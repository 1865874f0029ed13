from __future__ import annotations

import re

import pytest
from conftest import clear_memos, is_invariant_derivation

from coxbasis.basis import BasisRequest, BasisResult, base_basis, build_basis
from coxbasis.certify import VERDICT_FREE
from coxbasis.coxeter import Multiplicity, build_group, parse_type
from coxbasis.derivations import Derivation
from coxbasis.errors import CertificateFailed, NotABasis
from coxbasis.invariants import compute_invariants
from coxbasis.poly import Poly


def make_request(pipeline, label, mult_values, k, **kw):
    _, arrangement, system = pipeline(label)
    if isinstance(mult_values, int):
        mult = Multiplicity.constant(arrangement, mult_values)
    else:
        mult = Multiplicity.from_orbit_values(arrangement, mult_values)
    return BasisRequest(system=system, multiplicity=mult, k=k, **kw)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "G2"])
@pytest.mark.parametrize("m", [0, 1])
@pytest.mark.parametrize("k", [1, 2])
def test_constant_multiplicity_sweep(pipeline, label, m, k):
    request = make_request(pipeline, label, m, k)
    result = build_basis(request)
    h = request.system.coxeter_number
    arrangement = request.system.arrangement
    assert result.certificate.verdict == VERDICT_FREE
    base_degrees = tuple(b.degree() for b in result.base_members)
    assert result.certificate.member_degrees == tuple(k * h + d for d in base_degrees)
    expected_sum = 2 * k * len(arrangement) + request.multiplicity.total()
    assert sum(result.certificate.member_degrees) == expected_sum
    assert result.certificate.multiplicity.values == tuple(m + 2 * k for _ in arrangement.hyperplanes)


def test_base_source_selection(pipeline):
    req0 = make_request(pipeline, "B2", 0, 1)
    source, members, cert = base_basis(req0)
    assert source == "coordinate"
    assert cert is None
    assert members == tuple(Derivation.coordinate(2, i) for i in range(2))

    req1 = make_request(pipeline, "B2", 1, 1)
    source, members, cert = base_basis(req1)
    assert source == "gradient"
    assert cert is not None and cert.is_free
    assert members == req1.system.gradients

    reqm = make_request(pipeline, "B2", [1, 0], 1)
    source, members, cert = base_basis(reqm)
    assert source == "oracle"
    assert cert is not None and cert.is_free


def test_oracle_base_for_mixed_multiplicity(pipeline):
    # both mixed 0/1 patterns on the two B2 orbits have free base modules
    for values in ([1, 0], [0, 1]):
        request = make_request(pipeline, "B2", values, 0, base_source="oracle")
        source, members, cert = base_basis(request)
        assert cert.is_free
        assert sorted(m.degree() for m in members) == [1, 1]
        assert sum(cert.member_degrees) == request.multiplicity.total() == 2


def test_oracle_matches_gradient_for_constant_one(pipeline):
    request = make_request(pipeline, "A2", 1, 0, base_source="oracle")
    source, members, cert = base_basis(request)
    assert source == "oracle"
    assert cert.is_free
    assert tuple(m.degree() for m in members) == request.system.arrangement.datum.exponents


def test_basis_result_is_an_immutable_keyword_record(pipeline):
    result = build_basis(make_request(pipeline, "A2", 1, 1))
    rebuilt = BasisResult(**result._asdict())
    assert rebuilt == result
    assert rebuilt.certificate.multiplicity == result.certificate.multiplicity
    for name, value in (("certificate", None), ("members", ()), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(result, name, value)


def test_mixed_multiplicity_shift(pipeline):
    request = make_request(pipeline, "B2", [1, 0], 1)
    result = build_basis(request)
    assert result.certificate.is_free
    assert result.base_source == "oracle"
    assert sum(result.certificate.member_degrees) == 2 * len(request.system.arrangement) + 2
    assert result.certificate.multiplicity.per_orbit() == [3, 2]


def test_k_zero_returns_certified_base(pipeline):
    request = make_request(pipeline, "B2", 1, 0)
    result = build_basis(request)
    assert result.members == request.system.gradients
    assert result.universal.degree() == 1  # the Euler field itself
    assert result.certificate.is_free


def test_members_are_invariant_exactly_for_full_invariant_base(pipeline):
    # gradient base members are invariant, so the shifted members are too
    group = pipeline("A2")[0]
    result = build_basis(make_request(pipeline, "A2", 1, 1))
    for member in result.members:
        assert is_invariant_derivation(group, member)


def test_user_base_accepted_and_certified(pipeline):
    request0 = make_request(pipeline, "B2", 1, 1)
    gradients = request0.system.gradients
    request = make_request(pipeline, "B2", 1, 1, base_source="user",
                           user_base=list(gradients))
    result = build_basis(request)
    assert result.base_source == "user"
    assert result.certificate.is_free
    ref = build_basis(request0)
    assert result.members == ref.members


@pytest.mark.parametrize("source", ["auto", "coordinate", "gradient", "oracle"])
def test_user_base_beside_another_source_is_an_error(pipeline, source):
    coordinates = [Derivation.coordinate(2, i) for i in range(2)]
    with pytest.raises(ValueError, match="user_base goes with base source 'user'"):
        make_request(pipeline, "A2", 1, 1, base_source=source, user_base=coordinates)


def test_user_base_rejected_when_not_a_basis(pipeline):
    bad = [Derivation.coordinate(2, 0), Derivation.coordinate(2, 1)]
    request = make_request(pipeline, "B2", 1, 0, base_source="user", user_base=bad)
    with pytest.raises(NotABasis) as info:
        build_basis(request)
    assert info.value.certificate is not None
    assert info.value.certificate.verdict != VERDICT_FREE


@pytest.mark.parametrize("members, failure", [
    ([Derivation.zero(2), Derivation.coordinate(2, 1)], {"member": 0, "problem": "zero"}),
    ([Derivation([Poly.variable(2, 0) ** 2, Poly.variable(2, 1)]), Derivation.coordinate(2, 1)],
     {"member": 0, "problem": "not homogeneous"}),
    ([Derivation.coordinate(2, 0)], {"members": 1, "required": 2}),
    ([Derivation([Poly.variable(2, 0) ** 3, Poly.zero(2)]), Derivation.coordinate(2, 1)],
     {"member": 0, "degree": 3, "multiplicity_sum": 0}),
])
def test_user_base_that_cannot_be_certified_is_not_a_basis(pipeline, members, failure):
    request = make_request(pipeline, "B2", 0, 0, base_source="user", user_base=members)
    with pytest.raises(NotABasis) as info:
        base_basis(request)
    assert info.value.failure == failure
    assert info.value.certificate is None


def test_coordinate_source_rejects_nonzero_multiplicity(pipeline):
    request = make_request(pipeline, "B2", 1, 0, base_source="coordinate")
    with pytest.raises(NotABasis):
        base_basis(request)


def test_request_validation(pipeline):
    _, arrangement, system = pipeline("B2")
    mult = Multiplicity.constant(arrangement, 1)
    with pytest.raises(ValueError):
        BasisRequest(system=system, multiplicity=mult, k=-1)
    with pytest.raises(ValueError):
        BasisRequest(system=system, multiplicity=Multiplicity.constant(arrangement, 2), k=1)
    with pytest.raises(ValueError):
        BasisRequest(system=system, multiplicity=mult, k=1, base_source="nonsense")
    with pytest.raises(ValueError):
        BasisRequest(system=system, multiplicity=mult, k=1, base_source="user")


@pytest.mark.parametrize("system_label, mult_label", [
    ("G2", "B2"),     # once a G2-labelled report of B2's basis
    ("B2", "G2"),     # once a NotABasis, exit 2
    ("B2", "I2(4)"),  # once accepted: I2(4) has B2's four hyperplanes
])
def test_multiplicity_on_another_arrangement_is_an_error(pipeline, system_label, mult_label):
    system = pipeline(system_label)[2]
    mult = Multiplicity.constant(pipeline(mult_label)[1], 1)
    with pytest.raises(ValueError, match=re.escape("arrangement of type %s," % mult_label)):
        BasisRequest(system, mult, 1)


def test_multiplicity_on_an_equal_arrangement_that_is_another_is_an_error(pipeline):
    # the certified bases are kept on the system's arrangement, so a second
    # build of the same type is refused rather than silently given a base
    system = pipeline("B2")[2]
    clear_memos()
    _, rebuilt = build_group(parse_type("B2"))
    assert rebuilt is not system.arrangement and rebuilt.datum == system.arrangement.datum
    with pytest.raises(ValueError, match="not on the arrangement of the B2 invariants"):
        BasisRequest(system, Multiplicity.constant(rebuilt, 1), 1)
    assert rebuilt.bases == {} and rebuilt.invariants is None


def fresh_request(label, mult_values, k, **kw):
    """A request on the type's arrangement from cleared memos, which holds
    no certified base yet."""
    group, arrangement = build_group(parse_type(label))
    system = compute_invariants(group, arrangement)
    if isinstance(mult_values, int):
        mult = Multiplicity.constant(arrangement, mult_values)
    else:
        mult = Multiplicity(arrangement, mult_values)
    return BasisRequest(system=system, multiplicity=mult, k=k, **kw)


@pytest.mark.parametrize("source", ["auto", "oracle"])
def test_base_is_certified_once_for_every_shift(source, certifications):
    first = build_basis(fresh_request("B3", 1, 1, base_source=source))
    assert len(certifications) == 2
    request = first.request
    for k in (2, 0):
        again = build_basis(BasisRequest(request.system, request.multiplicity, k,
                                         base_source=source))
        assert again.base_members is first.base_members
        assert again.base_certificate is first.base_certificate
    # the base once, then the members at k = 1 and 2; at k = 0 they are the base
    m = request.multiplicity
    assert certifications == [m.values, m.shifted(2).values, m.shifted(4).values]
    assert again.certificate is first.base_certificate
    assert again.members == first.base_members


def test_only_invariant_multiplicities_keep_their_base():
    request = fresh_request("B3", 0, 0)
    arrangement = request.system.arrangement
    invariant = [Multiplicity.from_orbit_values(arrangement, per_orbit).values
                 for per_orbit in ([0, 0], [0, 1], [1, 0], [1, 1])]
    mixed = [1] + [0] * (len(arrangement) - 1)
    for values in invariant + [mixed]:
        result = build_basis(fresh_request("B3", list(values), 1))
        assert result.request.system.arrangement is arrangement
    assert Multiplicity(arrangement, mixed).per_orbit() is None
    assert sorted(values for _, values in arrangement.bases) == sorted(invariant)
    assert {source for source, _ in arrangement.bases} == {"coordinate", "oracle", "gradient"}


def test_failed_base_is_not_kept():
    request = fresh_request("B2", 1, 0, base_source="coordinate")
    for _ in range(2):
        with pytest.raises(NotABasis):
            base_basis(request)
    assert request.system.arrangement.bases == {}
