"""Acceptance gate: every advertised guarantee as one checked criterion.

Each test prints one line with the measured result and a PASS/FAIL tag
before asserting, so a full run reads as a checklist.  All comparisons
are exact; the only tolerances are the wall clock budgets, which are
generous on purpose.
"""

from __future__ import annotations

import time

import pytest

from conftest import free_module_graded_dimension, is_invariant_derivation

from coxbasis.basis import BasisRequest, build_basis
from coxbasis.certify import (
    VERDICT_FREE,
    contact_order,
    graded_member_basis,
)
from coxbasis.cli import main
from coxbasis.connection import nabla_D, universal_field
from coxbasis.coxeter import (
    Multiplicity,
    build_group,
    parse_type,
)
from coxbasis.derivations import nabla
from coxbasis.invariants import compute_invariants, jacobian_matrix
from coxbasis.verify import euler_suite, hodge_suite, shift_suite

GROUPS = ("A1", "A2", "A3", "B2", "B3", "G2")

_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_report(capsys):
    """Let report() write to the real terminal even under capture."""
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def fresh(label):
    datum = parse_type(label)
    group, arrangement = build_group(datum)
    system = compute_invariants(group, arrangement)
    return group, arrangement, system


def report(number, ok, detail):
    line = "criterion %d %s: %s" % (number, "PASS" if ok else "FAIL", detail)
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line)
    else:
        print(line)
    assert ok, detail


def test_criterion_1_structure():
    start = time.monotonic()
    checked = []
    for label in GROUPS:
        group, arrangement, system = fresh(label)
        datum = group.datum
        n, h = datum.rank, datum.coxeter_number
        count_ok = len(arrangement) == h * n // 2
        gap_ok = n < 2 or datum.degrees[-2] < h
        # the expanded determinant is an independent reference for the scalar
        jac_ok = (system.jacobian_scalar != 0 and
                  jacobian_matrix(system.polys).det()
                  == arrangement.defining_polynomial.scale(system.jacobian_scalar))
        checked.append(count_ok and gap_ok and jac_ok)
    elapsed = time.monotonic() - start
    ok = all(checked) and elapsed < 30.0
    report(1, ok, "hyperplane count, degree gap, and Jacobian factorization "
                  "on %d groups in %.2fs (budget 30s)" % (len(GROUPS), elapsed))


def test_criterion_2_basis_sweep():
    worst = 0.0
    runs = 0
    for label in GROUPS:
        for m in (0, 1):
            for k in (1, 2):
                start = time.monotonic()
                group, arrangement, system = fresh(label)
                mult = Multiplicity.constant(arrangement, m)
                request = BasisRequest(system, mult, k)
                result = build_basis(request)
                elapsed = time.monotonic() - start
                worst = max(worst, elapsed)
                runs += 1
                h = group.datum.coxeter_number
                base_degrees = tuple(b.degree() for b in result.base_members)
                assert result.certificate.verdict == VERDICT_FREE
                degrees = result.certificate.member_degrees
                assert degrees == tuple(k * h + d for d in base_degrees)
                assert sum(degrees) == 2 * k * len(arrangement) + mult.total()
                assert result.certificate.determinant_scalar != 0
                assert elapsed <= 60.0, "%s m=%d k=%d took %.1fs" % (label, m, k, elapsed)
    report(2, True, "%d certified builds, all Free-with-basis with exact degree "
                    "sums, worst case %.2fs (budget 60s each)" % (runs, worst))


def test_criterion_3_higher_constant_multiplicities(tmp_path):
    codes = []
    for label in ("A2", "B2"):
        for m_total in (2, 3, 4, 5):
            base_m = m_total % 2
            k = m_total // 2
            out = tmp_path / ("r_%s_%d.json" % (label, m_total))
            code = main(["basis", "--type", label, "--m", str(base_m),
                         "--k", str(k), "--no-cache", "--out", str(out)])
            codes.append(code)
    ok = codes == [0] * 8
    report(3, ok, "exit codes %s for the eight m = 2..5 builds on A2 and B2" % codes)


def test_criterion_4_contact_order_shift(pipeline):
    results = []
    for label in ("A1", "A2", "B2"):
        group, arrangement, system = pipeline(label)
        out = shift_suite(system, samples=20, seed=0)
        results.append((label, out["passed"], out["samples"], out["orders_checked"]))
        assert out["samples"] >= 20
        assert out["failures"] == []
    ok = all(r[1] for r in results)
    detail = ", ".join("%s %d samples %d orders" % (r[0], r[2], r[3]) for r in results)
    report(4, ok, "orders shift by exactly +2/-2: " + detail)


def test_criterion_5_lower_connection_membership(pipeline):
    checked = 0
    for label in ("A2", "B2"):
        group, arrangement, system = pipeline(label)
        u1 = universal_field(1, system)
        candidates = [u1] + [nabla(g, u1) for g in system.gradients]
        candidates = [c for c in candidates if is_invariant_derivation(group, c)]
        assert len(candidates) == 3
        for delta in candidates:
            out = nabla_D(delta, system)  # raises if not polynomial
            assert is_invariant_derivation(group, out)
            for h in arrangement.hyperplanes:
                assert out.is_zero or contact_order(out, h.form) >= 1
            checked += 1
    report(5, True, "%d primitive derivatives are polynomial, invariant, "
                    "and tangent to the arrangement" % checked)


def test_criterion_6_hodge_window(pipeline):
    out_a1 = hodge_suite(pipeline("A1")[2], 1, list(range(6)))
    out_a2 = hodge_suite(pipeline("A2")[2], 1, [1, 2])
    ok = out_a1["passed"] and out_a2["passed"]
    pairs = [(e["image_dimension"], e["invariant_kernel_dimension"])
             for e in out_a1["entries"] + out_a2["entries"]]
    report(6, ok, "image and high-order kernel dimensions agree: %s" % pairs)


def test_criterion_7_graded_dimension_equivalence(pipeline):
    checks = 0
    for label in ("A2", "B2"):
        group, arrangement, system = pipeline(label)
        for m in (0, 1):
            for k in (1, 2):
                mult = Multiplicity.constant(arrangement, m)
                result = build_basis(BasisRequest(system, mult, k))
                shifted = result.certificate.multiplicity
                degrees = result.certificate.member_degrees
                top = max(degrees) + 2
                for d in range(top + 1):
                    direct = len(graded_member_basis(shifted, d))
                    predicted = free_module_graded_dimension(degrees, d, group.rank)
                    assert direct == predicted, (label, m, k, d, direct, predicted)
                    checks += 1
    report(7, True, "%d graded dimensions match the free-module prediction "
                    "exactly" % checks)


def test_criterion_8_one_orbit_multiplicity(pipeline):
    group, arrangement, system = pipeline("B2")
    outcomes = []
    for values in ([1, 0], [0, 1]):
        mult = Multiplicity.from_orbit_values(arrangement, values)
        result = build_basis(BasisRequest(system, mult, 1))
        assert result.base_source == "oracle"
        assert mult.total() == 2
        assert result.certificate.verdict == VERDICT_FREE
        assert sum(result.certificate.member_degrees) == 2 * len(arrangement) + 2
        outcomes.append(result.certificate.member_degrees)
    report(8, True, "oracle base found for both single-orbit patterns; "
                    "member degrees %s and %s" % tuple(outcomes))


def test_criterion_9_euler_identities(pipeline):
    results = []
    for label in GROUPS:
        out = euler_suite(pipeline(label)[2], samples=20, seed=0)
        results.append((label, out["passed"]))
        assert out["samples"] == 20
        assert out["failures"] == []
    ok = all(p for _, p in results)
    report(9, ok, "20 exact samples per group on %s" % (", ".join(GROUPS)))
