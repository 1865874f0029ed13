"""The modular solve of the primitive inverse against the exact Echelon.

Over Q, `connection.nabla_D_inverse` solves its evaluated system with
`linalg.solve_modular` first and hands the rows to `Echelon` only when
that solve decides nothing.  These tests cross-check the two kernels on
the universal fields of the rational types and on random integer systems,
plant an unlucky prime to exercise the fallback, and count how often the
lifting leaves the exact kernel anything to do.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from coxbasis import connection, linalg
from coxbasis.connection import nabla_D_inverse, universal_field
from coxbasis.coxeter import build_group, parse_type
from coxbasis.errors import NoSolution, NonUniqueSolution
from coxbasis.invariants import compute_invariants
from coxbasis.linalg import Echelon, solve_modular


def fresh_system(label):
    """A type's invariant system with no universal field kept yet."""
    group, arrangement = build_group(parse_type(label))
    return compute_invariants(group, arrangement, cache_dir=None)


@pytest.fixture
def echelons(monkeypatch):
    """The exact eliminations the inverse starts, one entry (the field) each."""
    started = []

    class Counted(Echelon):
        __slots__ = ()

        def __init__(self, d: int = 1) -> None:
            started.append(d)
            super().__init__(d)

    monkeypatch.setattr(connection, "Echelon", Counted)
    return started


def echelon_inverse(monkeypatch, delta, system):
    """The inverse with the modular solve switched off: `Echelon` alone."""
    with monkeypatch.context() as patch:
        patch.setattr(connection, "solve_modular", lambda rows, size: None)
        return nabla_D_inverse(delta, system)


@pytest.mark.parametrize("label, top", [
    ("A1", 3), ("A2", 3), ("A3", 3), ("B2", 3), ("B3", 3), ("G2", 3),
    ("A4", 3), ("B4", 3), ("D4", 3), ("B5", 2)])
def test_modular_inverse_agrees_with_echelon_on_universal_fields(monkeypatch, echelons,
                                                                 label, top):
    system = fresh_system(label)
    for k in range(1, top + 1):
        delta = universal_field(k - 1, system)
        lifted = nabla_D_inverse(delta, system)
        assert echelons == []
        assert lifted == universal_field(k, system)
        assert echelon_inverse(monkeypatch, delta, system) == lifted
        echelons.clear()


@pytest.mark.parametrize("label", ["G2", "A2", "B2"])
def test_lifting_leaves_the_exact_kernel_nothing_up_to_k_10(echelons, label):
    # G2 at k >= 7 has solutions too tall for one prime: only lifting keeps
    # them off Echelon
    system = fresh_system(label)
    universal_field(10, system)
    assert echelons == []


def test_an_unlucky_prime_falls_back_to_the_same_field(monkeypatch):
    system = fresh_system("B2")
    delta = universal_field(1, system)
    expected = universal_field(2, system)
    original_points, original_solve = connection.sample_points, connection.solve_modular
    drawn, modular = [], []

    def counted_points(nvars):
        for point in original_points(nvars):
            drawn.append(point)
            yield point

    def recorded_solve(rows, size):
        solution = original_solve(rows, size)
        modular.append((solution, len(drawn)))
        return solution

    monkeypatch.setattr(connection, "sample_points", counted_points)
    echelon_only = echelon_inverse(monkeypatch, delta, system)
    echelon_points = len(drawn)
    assert echelon_only == expected
    monkeypatch.setattr(connection, "solve_modular", recorded_solve)
    for prime in (2, 3, 5, 7):
        monkeypatch.setattr(linalg, "PRIME", prime)
        drawn.clear()
        modular.clear()
        assert nabla_D_inverse(delta, system) == expected
        [(solution, modular_points)] = modular
        assert solution is None
        # Echelon reads the drawn rows again before it draws a new point
        assert len(drawn) == max(modular_points, echelon_points)
    # mod 2 the rank stays short: the modular pass drew the whole stream once
    monkeypatch.setattr(linalg, "PRIME", 2)
    drawn.clear()
    nabla_D_inverse(delta, system)
    size = len(list(system.field_keys(delta.degree() + system.coxeter_number)))
    assert len([p for p in drawn if system.jacobian.evaluate(p) != 0]) == (
        size + connection._SPARE_POINTS)


def test_modular_solve_lifts_past_one_prime():
    # x = 2^200 / 3 needs more than one 127-bit prime to reconstruct
    rows = [[3, 0, 1 << 200], [0, 7, -(1 << 150)], [1, 1, 5]]
    assert solve_modular(iter(rows), 2) == [Fraction(1 << 200, 3), Fraction(-(1 << 150), 7)]


def test_modular_solve_leaves_the_verdicts_to_echelon():
    # rank short over Q, and inconsistent over Q: no answer either way
    assert solve_modular(iter([[1, 2, 3], [2, 4, 6]]), 2) is None
    assert solve_modular(iter([[1, 2, 3], [2, 4, 7], [0, 1, 1]]), 2) is None
    # a dependent row is skipped, the next independent one completes the rank
    assert solve_modular(iter([[1, 2, 3], [2, 4, 6], [0, 1, 1]]), 2) == [1, 1]


hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

KINDS = ["full", "short", "inconsistent"]


def random_system(rng: random.Random, kind: str, size: int, bits: int) -> list[list[int]]:
    """Integer rows [A | b] in `size` unknowns.

    "full" rows have rank `size`; "short" rows are integer combinations of
    fewer independent rows; "inconsistent" ones are short rows with one
    combination whose right-hand side is off by one, drawn early.  Every
    kind mixes in integer combinations of its independent rows, so
    dependent rows come in between.
    """
    span = 1 << bits

    def fresh() -> list[int]:
        return [rng.randint(-span, span) for _ in range(size + 1)]

    def combination(basis: list[list[int]]) -> list[int]:
        factors = [rng.randint(-3, 3) for _ in basis]
        return [sum(f * row[c] for f, row in zip(factors, basis)) for c in range(size + 1)]

    rank = size if kind == "full" else rng.randint(1, size - 1) if size > 1 else 0
    basis = [fresh() for _ in range(rank)]
    rows = basis + [combination(basis) if basis else [0] * (size + 1)
                    for _ in range(rng.randint(1, size + 2))]
    rng.shuffle(rows)
    if kind == "inconsistent":
        bad = combination(basis) if basis else [0] * (size + 1)
        bad[size] += 1
        rows.insert(rng.randint(0, min(rank, len(rows))), bad)
    return rows


def echelon_verdict(rows: list[list[int]], size: int):
    """What the exact kernel alone says about the rows, read in order."""
    echelon = Echelon()
    for row in rows:
        if echelon.add(row) == size:
            return NoSolution
        if echelon.rank == size:
            return echelon.column(size)
    return NonUniqueSolution


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(seed=st.integers(0, 2 ** 32), kind=st.sampled_from(KINDS),
                  size=st.integers(1, 7), bits=st.sampled_from([1, 8, 40, 130]))
def test_modular_solve_or_its_fallback_matches_echelon(seed, kind, size, bits):
    rows = random_system(random.Random(seed), kind, size, bits)
    want = echelon_verdict(rows, size)
    try:
        got = connection._solution(iter(rows), size, 1)
    except (NoSolution, NonUniqueSolution) as exc:
        got = type(exc)
    assert got == want
    modular = solve_modular(iter(rows), size)
    if isinstance(want, list):
        # a full rank proves the one solution; the prime is no alarm here
        assert modular == want
    else:
        assert modular is None
