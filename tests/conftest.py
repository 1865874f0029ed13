from __future__ import annotations

import pytest

from coxbasis.coxeter import build_group, identity_matrix, mat_mul, parse_type
from coxbasis.invariants import compute_invariants

_CACHE: dict[str, tuple] = {}
_CLOSURES: dict[str, tuple] = {}


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
