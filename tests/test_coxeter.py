from __future__ import annotations

import hashlib
import random
import re
from fractions import Fraction

import pytest

from conftest import (act, act_derivation, fraction_walk, is_invariant_derivation,
                      is_invariant_poly, kernel_basis, mat_vec, normalize_form)
from coxbasis.coxeter import (
    CoxeterDatum,
    Multiplicity,
    build_group,
    identity_matrix,
    make_datum,
    mat_mul,
    parse_type,
    reflection_matrix,
    reynolds,
    transpose,
)
from coxbasis import coxeter
from coxbasis.derivations import Derivation, euler_field
from coxbasis.errors import GroupClosureFailed, OrderBoundExceeded, UnsupportedType
from coxbasis.poly import Poly, Powers, monomials_of_degree, substitute_sum
from coxbasis.verify import random_homogeneous_derivation

ORDERS = {
    "A1": (2, 1, 2),
    "A2": (6, 3, 3),
    "A3": (24, 6, 4),
    "B2": (8, 4, 4),
    "B3": (48, 9, 6),
    "G2": (12, 6, 6),
}


@pytest.mark.parametrize("label", sorted(ORDERS))
def test_orders_and_hyperplane_counts(pipeline, label):
    group, arrangement, _ = pipeline(label)
    order, num_hyp, h = ORDERS[label]
    assert group.order == order
    assert len(arrangement) == num_hyp
    assert group.datum.coxeter_number == h
    assert num_hyp == h * group.rank // 2
    assert sum(group.datum.exponents) == num_hyp


def test_degree_tables():
    assert parse_type("A3").degrees == (2, 3, 4)
    assert parse_type("B3").degrees == (2, 4, 6)
    assert parse_type("D4").degrees == (2, 4, 4, 6)
    assert parse_type("G2").degrees == (2, 6)
    assert parse_type("H3").degrees == (2, 6, 10)
    assert parse_type("I2(5)").degrees == (2, 5)
    assert parse_type("I2(8)").degrees == (2, 8)
    assert parse_type("A5").exponents == (1, 2, 3, 4, 5)
    assert parse_type("H3").group_order() == 120
    assert parse_type("D4").group_order() == 192
    assert parse_type("I2(8)").group_order() == 16


def test_field_labels():
    assert parse_type("B3").field_label == "Q"
    assert parse_type("I2(5)").field_label == "Q(sqrt(5))"
    assert parse_type("H3").field_label == "Q(sqrt(5))"
    assert parse_type("I2(8)").field_label == "Q(sqrt(2))"


def test_parse_type():
    assert parse_type("b3").label == "B3"
    assert parse_type(" I2(5) ").label == "I2(5)"
    assert parse_type("A", rank=2).label == "A2"
    assert parse_type("I2", rank=6).param == 6
    # a rank next to a full label must agree with it
    assert parse_type("A3", rank=3).label == "A3"
    assert parse_type("G2", rank=2).label == "G2"
    assert parse_type("I2(5)", rank=5).label == "I2(5)"
    assert parse_type("I2(5)", rank=2).label == "I2(5)"
    for label, rank in [("A2", 3), ("A3", 5), ("I2(5)", 7), ("G2", 5), ("H3", 2)]:
        with pytest.raises(UnsupportedType, match="%d" % rank):
            parse_type(label, rank)
    for label in ["Ax", "B3.5", "Z3", "I2(5", "I25", "G", "A-1", "I2()", "B(3)"]:
        with pytest.raises(UnsupportedType, match=re.escape(repr(label))):
            parse_type(label)
    with pytest.raises(UnsupportedType):
        parse_type("A")
    with pytest.raises(UnsupportedType):
        parse_type("E6")
    for blank in ("", " ", "\t"):
        with pytest.raises(UnsupportedType):
            parse_type(blank)
    with pytest.raises(UnsupportedType):
        parse_type("I2(7)")
    with pytest.raises(UnsupportedType):
        make_datum("D", 3)


PINNED = (["A%d" % n for n in range(8)] + ["B%d" % n for n in range(1, 7)]
          + ["D%d" % n for n in range(3, 7)] + ["E6", "G2", "H3"]
          + ["I2(%d)" % m for m in range(3, 9)])
# sha256 of `datum_lines(PINNED)`, written down before the realizations were
# merged into one table and the order read off the degrees
PINNED_DIGEST = "db961e195515c6cadc411b4a3289b7dfb691a5e584e0ffc9b339b3d9a47cb813"


def datum_lines(labels: list[str]) -> str:
    """Per label the repr of its datum, the type of every Gram and root entry
    and the group order, or the type and message of the refusal."""
    lines = []
    for label in labels:
        try:
            datum = parse_type(label)
        except UnsupportedType as exc:
            lines.append("%s refused: %s: %s" % (label, type(exc).__name__, exc))
            continue
        entries = [c for row in datum.gram + datum.simple_roots for c in row]
        lines.append("%r %s %d" % (datum, [type(c).__name__ for c in entries],
                                   datum.group_order()))
    return "\n".join(lines)


def test_every_realization_is_pinned():
    # every label within the default order bound, the realized dihedral types,
    # and the refused A0, B1, D3, E6 and I2(7)
    assert all(parse_type(label, order_bound=coxeter.DEFAULT_ORDER_BOUND)
               for label in PINNED if label not in ("A0", "B1", "D3", "E6", "I2(7)"))
    for label in ("A8", "B7", "D7"):
        with pytest.raises(OrderBoundExceeded):
            parse_type(label, order_bound=coxeter.DEFAULT_ORDER_BOUND)
    text = datum_lines(PINNED)
    assert text.count("refused") == 5
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_DIGEST


def test_generators_preserve_gram(pipeline):
    for label in ("A2", "B2", "G2", "I2(5)", "I2(8)"):
        group, _, _ = pipeline(label)
        gram = group.datum.gram
        for g in group.generators:
            assert mat_mul(transpose(g), mat_mul(gram, g)) == gram


def test_reflections_negate_their_forms(pipeline):
    group, arrangement, _ = pipeline("B2")
    ident = identity_matrix(group.rank)
    reflections = [reflection_matrix(h.coeffs, group.datum.gram) for h in arrangement.hyperplanes]
    for h, r in zip(arrangement.hyperplanes, reflections):
        assert mat_mul(r, r) == ident
        assert act(r, h.form) == -h.form
    q = arrangement.defining_polynomial
    for r in reflections:
        assert act(r, q) == -q
    # built once per arrangement, not on every access
    assert arrangement.defining_polynomial is q


def test_act_is_multiplicative_group_action(closure):
    rng = random.Random(31)
    elements = closure("A2")
    for _ in range(10):
        w1 = rng.choice(elements)
        w2 = rng.choice(elements)
        p = Poly.monomial(2, (rng.randint(0, 2), rng.randint(0, 2)), Fraction(rng.randint(1, 3)))
        q = Poly.monomial(2, (rng.randint(0, 2), rng.randint(0, 2)), Fraction(rng.randint(-3, -1)))
        assert act(w1, act(w2, p)) == act(mat_mul(w1, w2), p)
        assert act(w1, p * q) == act(w1, p) * act(w1, q)
    assert act(identity_matrix(2), Poly.variable(2, 0)) == Poly.variable(2, 0)


def test_act_derivation_is_conjugation(closure):
    # The moved field applied to the moved polynomial equals the moved value.
    rng = random.Random(37)
    p = Poly.monomial(2, (2, 1), Fraction(1)) + Poly.monomial(2, (0, 2), Fraction(-2))
    for w in closure("B2"):
        delta = random_homogeneous_derivation(2, rng.randint(0, 2), rng)
        lhs = act_derivation(w, delta).apply(act(w, p))
        assert lhs == act(w, delta.apply(p))


def test_reynolds_on_b2(pipeline):
    group, _, _ = pipeline("B2")
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    avg = reynolds(group, x ** 2)
    assert avg == (x ** 2 + y ** 2) * Fraction(1, 2)
    assert reynolds(group, x).is_zero
    assert reynolds(group, avg) == avg
    assert is_invariant_poly(group, avg)


def test_euler_field_is_invariant(pipeline):
    for label in ("A2", "B2", "G2"):
        group, _, _ = pipeline(label)
        assert is_invariant_derivation(group, euler_field(group.rank))
        d0 = Derivation.coordinate(group.rank, 0)
        assert not is_invariant_derivation(group, d0)


WALKED = ["A%d" % n for n in range(1, 7)] + ["B%d" % n for n in range(2, 7)] + [
    "D4", "D5", "D6", "G2", "H3", "I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(8)"]


@pytest.mark.parametrize("label", WALKED)
def test_integer_walks_match_the_fraction_walk(label):
    datum = parse_type(label)
    group, arrangement = build_group(datum)
    chain, coeffs, orbits = fraction_walk(datum)
    assert group.chain == chain
    assert tuple(h.coeffs for h in arrangement.hyperplanes) == coeffs
    assert arrangement.orbits() == orbits


@pytest.mark.parametrize("label, indices", [
    # the A_n, H3 and dihedral chains drop the last root at every step
    ("A6", [2, 3, 4, 5, 6, 7]),
    ("H3", [2, 5, 12]),
    ("I2(8)", [2, 8]),
    # B_n and D_n drop the first root, B6 > B5 > .. and D6 > D5 > D4 > A3
    ("B6", [2, 4, 6, 8, 10, 12]),
    ("D6", [2, 3, 4, 8, 10, 12]),
])
def test_chain_drops_the_smallest_index_first(label, indices):
    group, _ = build_group(parse_type(label))
    assert [len(tree) for tree in group.chain] == indices


@pytest.mark.parametrize("label", ["B4", "H3", "I2(8)"])
def test_group_is_built_on_integer_numerators(label, monkeypatch):
    # the scalars are split once and only the hyperplanes are joined back;
    # the Fraction/Quad walk helpers are trapped should anything call them
    calls = {"split_scalars": 0, "join_scalar": 0, "mat_vec": 0, "normalize_form": 0}

    def counting(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    for name, function in [("split_scalars", coxeter.split_scalars),
                           ("join_scalar", coxeter.join_scalar),
                           ("mat_vec", mat_vec), ("normalize_form", normalize_form)]:
        monkeypatch.setattr(coxeter, name, counting(name, function), raising=False)
    datum = parse_type(label)
    _, arrangement = build_group(datum)
    arrangement.orbits()
    assert calls == {"split_scalars": 1, "join_scalar": datum.rank * datum.num_hyperplanes,
                     "mat_vec": 0, "normalize_form": 0}


def test_orbits(pipeline):
    _, arr_a2, _ = pipeline("A2")
    assert arr_a2.orbits() == ((0, 1, 2),)
    _, arr_b2, _ = pipeline("B2")
    assert arr_b2.orbits() == ((0, 2), (1, 3))
    _, arr_g2, _ = pipeline("G2")
    assert sorted(len(o) for o in arr_g2.orbits()) == [3, 3]


def test_b2_hyperplanes_are_sorted_normal_forms(pipeline):
    _, arrangement, _ = pipeline("B2")
    coeffs = [h.coeffs for h in arrangement.hyperplanes]
    assert coeffs == [
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(-1)),
        (Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(1)),
    ]


def test_normalize_form():
    assert normalize_form((Fraction(0), Fraction(2))) == (Fraction(0), Fraction(1))
    assert normalize_form((Fraction(-2), Fraction(4))) == (Fraction(1), Fraction(-2))
    with pytest.raises(ValueError):
        normalize_form((Fraction(0), Fraction(0)))


def test_multiplicity(pipeline):
    _, arrangement, _ = pipeline("B2")
    const = Multiplicity.constant(arrangement, 1)
    assert const.values == (1, 1, 1, 1)
    assert const.total() == 4
    assert const.is_zero_one()
    per = Multiplicity.from_orbit_values(arrangement, [1, 0])
    assert per.values == (1, 0, 1, 0)
    assert per.per_orbit() == [1, 0]
    assert per.shifted(2).values == (3, 2, 3, 2)
    assert Multiplicity(arrangement, [1, 0, 0, 0]).per_orbit() is None
    with pytest.raises(ValueError):
        Multiplicity(arrangement, [1, 1])
    with pytest.raises(ValueError):
        Multiplicity(arrangement, [1, 1, 1, -1])
    with pytest.raises(ValueError):
        Multiplicity.from_orbit_values(arrangement, [1])


def test_multiplicity_values_must_be_ints(pipeline):
    # nothing is truncated or converted: 1.5, 0.9, True and "1" were once
    # read as (1, 0, 1, 1)
    _, arrangement, _ = pipeline("B2")
    bad = [[1.5, 0.9, True, "1"], [1, 1, 1, 1.0], [1, 1, 1, True], [Fraction(1)] * 4]
    for values in bad:
        with pytest.raises(ValueError, match="multiplicity values must be integers"):
            Multiplicity(arrangement, values)
    for value in (1.0, True, "1"):
        with pytest.raises(ValueError, match="must be integers"):
            Multiplicity.constant(arrangement, value)
    for per_orbit in ([1, 0.5], [False, 1], ["1", "0"]):
        with pytest.raises(ValueError, match="must be integers"):
            Multiplicity.from_orbit_values(arrangement, per_orbit)
    assert Multiplicity(arrangement, (v for v in [2, 0, 2, 0])).values == (2, 0, 2, 0)


def test_order_bound_checked_before_enumeration():
    with pytest.raises(OrderBoundExceeded):
        build_group(parse_type("H3"), order_bound=10)


def test_order_bound_is_decided_from_the_label():
    orders = {"A5": 720, "B5": 3840, "B6": 46080, "D5": 1920, "D6": 23040,
              "G2": 12, "H3": 120, "I2(5)": 10}
    for label, order in orders.items():
        datum = parse_type(label, order_bound=order)
        assert datum.group_order() == order
        with pytest.raises(OrderBoundExceeded, match=r"type %s: group of order %d exceeds "
                           r"the bound %d$" % (re.escape(label), order, order - 1)):
            parse_type(label, order_bound=order - 1)
    # a huge rank is refused after a few factors, with a lower bound for the order
    with pytest.raises(OrderBoundExceeded, match=r"type B1000000000000: group of order "
                       r"at least 645120 exceeds the bound 100000$"):
        parse_type("B1000000000000", order_bound=100000)
    with pytest.raises(OrderBoundExceeded, match="type D100000: .* at least "):
        coxeter.check_order_bound("D", 100000, None, 100000)


CROSS_CHECKED = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4", "G2", "H3",
                 "I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(8)"]


@pytest.mark.parametrize("label", CROSS_CHECKED)
def test_hyperplanes_are_the_reflections_of_the_closure(label, closure):
    # the normalized (-1)-eigenvectors of the reflections among all elements,
    # and their orbits under all elements
    group, arrangement = build_group(parse_type(label))
    n = group.rank
    ident = identity_matrix(n)
    forms = set()
    for w in closure(label):
        trace = sum((w[i][i] for i in range(1, n)), w[0][0])
        if w != ident and trace == n - 2 and mat_mul(w, w) == ident:
            (vector,) = kernel_basis([[w[i][j] + (i == j) for j in range(n)] for i in range(n)], n)
            forms.add(normalize_form(vector))
    assert tuple(h.coeffs for h in arrangement.hyperplanes) == tuple(sorted(forms))
    assert group.order == len(closure(label))
    index_of = {h.coeffs: i for i, h in enumerate(arrangement.hyperplanes)}
    orbits = {tuple(sorted({index_of[normalize_form(mat_vec(w, h.coeffs))] for w in closure(label)}))
              for h in arrangement.hyperplanes}
    assert arrangement.orbits() == tuple(sorted(orbits))


@pytest.mark.parametrize("label", CROSS_CHECKED)
def test_reynolds_matches_the_closure_average(label, closure):
    # every monomial up to degree h for rank <= 3, the basic degrees for rank 4
    group, _ = build_group(parse_type(label))
    n = group.rank
    elements = closure(label)
    tables = [[Powers(Poly.linear([w[j][i] for j in range(n)])) for i in range(n)]
              for w in elements]
    datum = group.datum
    degrees = range(datum.coxeter_number + 1) if n <= 3 else sorted(set(datum.degrees))
    for degree in degrees:
        for exps in monomials_of_degree(n, degree):
            p = Poly.monomial(n, exps)
            expected = substitute_sum(p, tables, n).scale(Fraction(1, len(elements)))
            assert reynolds(group, p) == expected


def test_reynolds_substitutes_once_per_coset(monkeypatch):
    # cosets of B2 in B3 (6), of B1 in B2 (4) and of 1 in B1 (2): 12, not |W| = 48
    group, _ = build_group(parse_type("B3"))
    assert [len(tree) for tree in group.chain] == [2, 4, 6]
    counted = []

    def counting(p, substitutions, nvars):
        counted.append(len(substitutions))
        return substitute_sum(p, substitutions, nvars)

    monkeypatch.setattr(coxeter, "substitute_sum", counting)
    x, y, z = (Poly.variable(3, i) for i in range(3))
    assert reynolds(group, x ** 2 * y + z ** 3).is_zero
    assert sum(counted) == 12
    counted.clear()
    assert reynolds(group, x ** 2) == (x ** 2 + y ** 2 + z ** 2).scale(Fraction(1, 3))
    assert sum(counted) == 12


@pytest.mark.parametrize("label, orbits", [("A5", 1), ("B5", 2), ("D5", 1),
                                           ("A6", 1), ("B6", 2), ("D6", 1)])
def test_rank_five_and_six_groups(label, orbits):
    datum = parse_type(label)
    group, arrangement = build_group(datum)
    assert group.order == datum.group_order()
    assert len(arrangement) == datum.coxeter_number * datum.rank // 2
    assert len(arrangement.orbits()) == orbits


def test_infinite_realization_stops_with_an_alarm():
    # a Gram form of indefinite signature generates an infinite group: the
    # orbit walks must stop past the type's order instead of running forever
    gram = ((Fraction(2), Fraction(-3)), (Fraction(-3), Fraction(2)))
    roots = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    datum = CoxeterDatum("I2", 2, 5, "I2(5)", gram, roots, (2, 5), 1)
    with pytest.raises(GroupClosureFailed, match="order"):
        build_group(datum)
