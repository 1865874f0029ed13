"""What one process keeps between requests changes no output.

``parse_type`` and ``build_group`` keep the data, groups and
arrangements of recent types, an arrangement keeps its hyperplanes'
pivot forms, ``compute_invariants`` keeps each system on its
arrangement, a system keeps its universal fields, field keys and
fingerprint, and ``base_basis`` keeps the certified bases of W-invariant
multiplicities on the arrangement.  These tests serve
requests in one process through ``coxbasis.cli.main`` and compare every
exit code, standard output and standard error with the same request run
from cleared memos, as a fresh interpreter would run it.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import clear_memos
from coxbasis import coxeter, invariants, poly
from coxbasis.cli import EXIT_CERTIFICATE, EXIT_NOT_A_BASIS, EXIT_UNSUPPORTED, main
from coxbasis.coxeter import CoxeterDatum, parse_type

ROOT = Path(__file__).resolve().parent.parent
LABELS = ["A2", "B3", "I2(5)"]
REQUESTS = [argv for label in LABELS for argv in (
    ["info", label, "--format", "json"],
    ["basis", "--type", label, "--m", "1", "--k", "2"],
    ["basis", "--type", label, "--m", "0", "--k", "1"],
    ["verify", "--type", label, "--suite", "euler", "--samples", "3", "--seed", "5",
     "--format", "json"],
    ["verify", "--type", label, "--suite", "jacobian", "--format", "json"],
    ["verify", "--type", label, "--suite", "hodge", "--format", "json"],
)] + [
    ["basis", "--type", "B3", "--mfile", str(ROOT / "perfbench/mfiles/per_orbit_10.json"),
     "--k", "1"],
    # requests that share a certified base with another: the same m at
    # another k, and m = 1 from another source
    ["basis", "--type", "B3", "--m", "1", "--k", "1"],
    ["basis", "--type", "B3", "--mfile", str(ROOT / "perfbench/mfiles/per_orbit_01.json"),
     "--k", "0"],
    ["basis", "--type", "B3", "--mfile", str(ROOT / "perfbench/mfiles/per_orbit_01.json"),
     "--k", "1"],
    ["basis", "--type", "B3", "--base", "oracle", "--m", "1", "--k", "1"],
]


def serve(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def fresh():
    """Per request, its result from cleared memos."""
    out = {}
    for argv in REQUESTS:
        clear_memos()
        out[tuple(argv)] = serve(argv)
    return out


@pytest.fixture
def selections(monkeypatch):
    """The labels ``compute_invariants`` selects invariants for, in order."""
    labels = []

    def counting(group, arrangement, original=invariants._select_invariants):
        labels.append(group.datum.label)
        return original(group, arrangement)

    monkeypatch.setattr(invariants, "_select_invariants", counting)
    return labels


@pytest.mark.parametrize("first", ["forward", "reverse"])
@pytest.mark.parametrize("cache", [[], ["--no-cache"], ["--cache-dir", "unused"]],
                         ids=["plain", "no-cache", "cache-dir"])
def test_repeated_requests_match_fresh_runs(first, cache, fresh, selections):
    order = REQUESTS if first == "forward" else REQUESTS[::-1]
    for argv in order + order[::-1]:
        assert serve(argv + cache) == fresh[tuple(argv)], argv
    # one datum, one walk and one selection per type, whatever the cache
    # options say
    assert coxeter._walked.cache_info().misses == len(LABELS)
    assert sorted(selections) == sorted(LABELS)
    # the memo holds exactly these types, each with its system
    assert memo_labels(LABELS) == LABELS
    assert coxeter._walked.cache_info().misses == len(LABELS)


def kept_arrangement(label: str):
    """The arrangement the memo keeps for a type; asking for it counts as
    using the type."""
    datum = parse_type(label)
    kept = coxeter._walked(datum.family, datum.rank, datum.param)
    assert kept.datum is datum
    return kept.walk[1]


def memo_labels(labels: list[str]) -> list[str]:
    """The labels of the systems kept on the memo's arrangements of the
    given types; asking for them counts as using them."""
    return [kept_arrangement(label).invariants.label for label in labels]


def test_a_type_derives_its_fixed_facts_once(monkeypatch):
    # four requests on one type: its datum, each hyperplane's pivot form per
    # field, the fingerprint and each degree's field keys are derived once
    data, pivots, hashes, weights = [], [], [], []
    asked, listed = Counter(), Counter()

    def making(*args, original=coxeter.make_datum):
        data.append(args)
        return original(*args)

    def pivoting(alpha, d, original=poly.pivot_form):
        pivots.append((alpha, d))
        return original(alpha, d)

    def hashing(blob, original=hashlib.sha256):
        hashes.append(blob)
        return original(blob)

    def exponents(w, total, original=invariants.weighted_exponents):
        weights.append(w)
        return original(w, total)

    def keys(self, degree, original=invariants.InvariantSystem.field_keys):
        before = len(weights)
        out = original(self, degree)
        asked[degree] += 1
        # a listing reads every invariant's weight; the selection of the
        # invariants reads fewer
        listed[degree] += any(len(w) == len(self.degrees) for w in weights[before:])
        return out

    monkeypatch.setattr(coxeter, "make_datum", making)
    monkeypatch.setattr(coxeter, "pivot_form", pivoting)
    monkeypatch.setattr(poly, "pivot_form", pivoting)
    monkeypatch.setattr(invariants, "hashlib", SimpleNamespace(sha256=hashing))
    monkeypatch.setattr(invariants, "weighted_exponents", exponents)
    monkeypatch.setattr(invariants.InvariantSystem, "field_keys", keys)
    for argv in (["info", "B3"], ["basis", "--type", "B3", "--m", "1", "--k", "1"],
                 ["basis", "--type", "B3", "--m", "1", "--k", "2"],
                 ["verify", "--type", "B3", "--suite", "shift"]):
        assert serve(argv)[0] == 0, argv
    assert data == [("B", 3, None)]
    forms = [h.form for h in kept_arrangement("B3").hyperplanes]
    assert len(pivots) == len({(forms.index(alpha), d) for alpha, d in pivots}) == 9
    # info and both basis reports ask for the fingerprint
    assert len(hashes) == 1
    assert max(asked.values()) > 1 and listed == Counter(dict.fromkeys(asked, 1))


def test_memo_keeps_the_most_recent_types(selections, monkeypatch):
    monkeypatch.setattr(coxeter, "_walked",
                        functools.lru_cache(maxsize=2)(coxeter._walked.__wrapped__))
    for label in ["A2", "B2", "A2", "G2", "A2", "B2"]:
        assert serve(["info", label])[0] == 0
    # G2 evicts B2, the least recently asked for, and B2 is selected again
    assert selections == ["A2", "B2", "G2", "B2"]
    assert coxeter._walked.cache_info().currsize == 2
    assert memo_labels(["A2", "B2"]) == ["A2", "B2"]
    assert coxeter._walked.cache_info().misses == 4
    # A2, now the least recently asked for, is the next one evicted
    assert serve(["info", "G2"])[0] == 0
    assert memo_labels(["B2", "G2"]) == ["B2", "G2"]
    assert selections == ["A2", "B2", "G2", "B2", "G2"]
    assert coxeter._walked.cache_info().misses == 5


def test_memo_holds_sixteen_types():
    # a datum is kept from its first parse, before any group is walked, and
    # the seventeenth type evicts the least recently used one
    labels = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "D4", "D5", "G2", "H3",
              "I2(3)", "I2(4)", "I2(5)", "I2(8)"]
    data = [parse_type(label) for label in labels[:16]]
    assert all(parse_type(label) is datum for label, datum in zip(labels, data))
    parse_type(labels[16])
    assert parse_type(labels[0]) is not data[0] and parse_type(labels[0]) == data[0]
    assert coxeter._walked.cache_info().currsize == 16
    assert coxeter._walked.cache_info().misses == 18


def test_order_bound_applies_to_a_cached_group():
    assert serve(["info", "A3"])[0] == 0
    code, out, err = serve(["info", "A3", "--order-bound", "10"])
    assert coxeter._walked.cache_info().currsize == 1
    assert (code, out) == (EXIT_UNSUPPORTED, "")
    assert "group of order 24 exceeds the bound 10" in err


@pytest.mark.parametrize("attr", ["group_order", "num_hyperplanes"])
def test_group_alarm_fires_on_a_cached_group(attr, monkeypatch):
    argv = ["basis", "--type", "B2", "--m", "1", "--k", "0"]
    assert serve(argv)[0] == 0
    wrong = CoxeterDatum.group_order(parse_type("B2")) + 1 if attr == "group_order" else 5
    replacement = (lambda self: wrong) if attr == "group_order" else property(lambda self: wrong)
    monkeypatch.setattr(CoxeterDatum, attr, replacement)
    code, _, err = serve(argv)
    # the second request found the type kept, datum, group and all
    assert coxeter._walked.cache_info().misses == 1
    assert code == EXIT_CERTIFICATE
    assert "group construction failure" in err


def test_base_file_is_certified_on_every_request(tmp_path, certifications):
    argv = ["basis", "--type", "B3", "--m", "1", "--k", "0"]
    code, report, _ = serve(argv)
    assert code == 0 and len(certifications) == 1
    path = tmp_path / "gradients.json"
    path.write_text(report, encoding="utf-8")
    assert serve(argv)[0] == 0 and len(certifications) == 1
    # the file holds the kept gradient base, and is certified anyway: once
    # per request, since at k = 0 the members are the base
    for expected in (2, 3):
        assert serve(argv + ["--base-file", str(path)])[0] == 0
        assert len(certifications) == expected
    assert list(kept_arrangement("B3").bases) == [("gradient", (1,) * 9)]


def test_bad_user_base_after_a_memoized_base_is_not_a_basis(tmp_path):
    assert serve(["basis", "--type", "B2", "--m", "1", "--k", "1"])[0] == 0
    path = tmp_path / "coordinates.json"
    # coordinate fields are not tangent to the arrangement
    path.write_text(json.dumps([
        {"degree": 0, "coefficients": [[[[0, 0], "1"]], []]},
        {"degree": 0, "coefficients": [[], [[[0, 0], "1"]]]},
    ]), encoding="utf-8")
    code, out, err = serve(["basis", "--type", "B2", "--m", "1", "--k", "1",
                            "--base-file", str(path)])
    assert (code, out) == (EXIT_NOT_A_BASIS, "")
    assert err.startswith("not a basis: user-supplied base failed certification")
