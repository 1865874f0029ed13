"""Property suites run over seeded random samples.

Each suite draws exact random inputs from a seeded generator (fields with
integer coefficients in [-4, 4]), checks an identity that must hold
exactly, and reports sample counts and failures.  Suites never use
floating point; a failure is a counterexample, not a tolerance issue.

`shift_suite` reads the contact orders of a field and of its lift at
every hyperplane from one call of ``poly.contact_orders``.

`hodge_suite` makes its comparison itself: the images of the invariant
fields of one degree under the k-fold inverse of nabla_D are compared, by
dimension, with the invariant fields k*h degrees higher whose contact
order is at least 2k + 1 at every hyperplane.  It reads the contact
conditions of one hyperplane per W-orbit only, and that is exact: every
combination theta of the invariant fields is W-invariant, so
theta(w.alpha) = w.theta(alpha), and w.theta(alpha) has the order along
w.alpha that theta(alpha) has along alpha; the order of theta at wH is
its order at H.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from typing import Sequence

# contact_order stays bound here for the per-layer tracer of perfbench/tracer.py
from .certify import contact_order, order_to_json  # noqa: F401
from .connection import nabla_D, nabla_D_inverse
from .derivations import Derivation, euler_field, nabla
from .invariants import (InvariantSystem, invariant_field_basis, invariant_field_degrees,
                         jacobian_factors)
from .linalg import Echelon
from .poly import (Poly, contact_orders, linear_combination, monomials_of_degree,
                   order_constraint_rows)
from .scalars import format_scalar


# the random fields draw their integer coefficients from [-4, 4]
_COEFF_RANGE = 4


def random_homogeneous_derivation(nvars: int, degree: int, rng: random.Random) -> Derivation:
    """A random homogeneous field with small integer coefficients."""
    monos = list(monomials_of_degree(nvars, degree))
    while True:
        coeffs = []
        for _ in range(nvars):
            terms = {e: Fraction(rng.randint(-_COEFF_RANGE, _COEFF_RANGE)) for e in monos}
            coeffs.append(Poly(nvars, terms))
        delta = Derivation(coeffs)
        if not delta.is_zero:
            return delta


def random_invariant_derivation(system: InvariantSystem, degree: int,
                                rng: random.Random) -> Derivation | None:
    """A random invariant homogeneous field of one degree, None if the
    graded piece is zero."""
    keys = system.field_keys(degree)
    if not keys:
        return None
    while True:
        out = system.compose_field({key: rng.randint(-_COEFF_RANGE, _COEFF_RANGE) for key in keys})
        if not out.is_zero:
            return out


def euler_suite(system: InvariantSystem, samples: int, seed: int) -> dict:
    """nabla_delta(E) = delta and nabla_E(delta) = deg(delta) * delta."""
    rng = random.Random(seed)
    n = system.nvars
    e = euler_field(n)
    failures = []
    for s in range(samples):
        degree = rng.randint(0, 3)
        delta = random_homogeneous_derivation(n, degree, rng)
        if nabla(delta, e) != delta:
            failures.append({"sample": s, "identity": "nabla_delta(E) = delta"})
        if nabla(e, delta) != delta * Fraction(degree):
            failures.append({"sample": s, "identity": "nabla_E(delta) = deg * delta"})
    return {"suite": "euler", "group": system.label, "seed": seed,
            "samples": samples, "failures": failures, "passed": not failures}


def shift_suite(system: InvariantSystem, samples: int, seed: int) -> dict:
    """Contact orders shift by exactly +2 under the primitive
    antiderivative and -2 back under the primitive derivative."""
    rng = random.Random(seed)
    arrangement = system.arrangement
    forms = [h.form for h in arrangement.hyperplanes]
    degrees = [d for d in invariant_field_degrees(system) if d >= 1]
    failures = []
    checked = 0
    for s in range(samples):
        degree = rng.choice(degrees)
        delta = random_invariant_derivation(system, degree, rng)
        if delta is None:
            continue
        lifted = nabla_D_inverse(delta, system)
        back = nabla_D(lifted, system)
        if back != delta:
            failures.append({"sample": s, "identity": "nabla_D o inverse = id"})
            continue
        orders = contact_orders([delta.coeffs, lifted.coeffs], forms, arrangement.pivot_form)
        for h, before, after in zip(arrangement.hyperplanes, *orders):
            if before == float("inf"):
                continue
            checked += 1
            if after != before + 2:
                failures.append({
                    "sample": s, "hyperplane": [str(c) for c in h.coeffs],
                    "order_before": order_to_json(before), "order_after": order_to_json(after),
                })
    return {"suite": "shift", "group": system.label, "seed": seed,
            "samples": samples, "orders_checked": checked,
            "failures": failures, "passed": not failures}


def jacobian_suite(system: InvariantSystem) -> dict:
    """The expanded Jacobian determinant equals the recorded nonzero scalar
    times the defining polynomial."""
    ok = jacobian_factors(system)
    return {"suite": "jacobian", "group": system.label,
            "scalar": format_scalar(system.jacobian_scalar),
            "failures": [] if ok else [{"identity": "J = c * Q"}], "passed": ok}


def invariant_graded_dimension(system: InvariantSystem, degree: int, min_order: int) -> int:
    """Dimension of the invariant fields of one degree with contact order
    at least min_order at every hyperplane, read at one hyperplane per
    W-orbit: an invariant field has the same order at every hyperplane of
    an orbit."""
    basis = invariant_field_basis(system, degree)
    if not basis:
        return 0
    echelon = Echelon(system.field)
    arrangement = system.arrangement
    for orbit in arrangement.orbits():
        h = arrangement.hyperplanes[orbit[0]]
        applied = [linear_combination(fld.coeffs, h.form) for _, fld in basis]
        for row in order_constraint_rows(applied, h.form, min_order, echelon.d,
                                         functools.partial(arrangement.pivot_form, orbit[0])):
            echelon.add(row)
    return len(basis) - echelon.rank


def hodge_suite(system: InvariantSystem, k: int, source_degrees: Sequence[int]) -> dict:
    """Compare k-fold antiderivative images with high-order invariant fields.

    For each source degree d, the invariant fields of degree d are mapped
    through the k-fold inverse of nabla_D, which is injective; the
    dimension of the image is compared with the dimension of the
    invariant fields of degree d + k*h having contact order at least 2k+1
    everywhere.  Every entry whose dimensions differ is a failure.
    """
    if k < 0:
        raise ValueError("negative antiderivative count")
    entries = []
    for d in source_degrees:
        target = d + k * system.coxeter_number
        basis = invariant_field_basis(system, d)
        # each preimage is re-checked exactly, nabla_D^k(preimage) = field,
        # so the preimages of the basis are independent: the image has its size
        for _, field in basis:
            for _ in range(k):
                field = nabla_D_inverse(field, system)
        image_dim = len(basis)
        kernel_dim = invariant_graded_dimension(system, target, 2 * k + 1)
        entries.append({
            "source_degree": d,
            "target_degree": target,
            "image_dimension": image_dim,
            "invariant_kernel_dimension": kernel_dim,
            "equal": image_dim == kernel_dim,
        })
    failures = [e for e in entries if not e["equal"]]
    return {"suite": "hodge", "group": system.label, "k": k,
            "entries": entries, "failures": failures, "passed": not failures}
