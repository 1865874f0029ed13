"""What one process keeps between requests changes no output.

``build_group`` keeps the groups and arrangements of recent types,
``compute_invariants`` keeps each system on its arrangement, a system
keeps its universal fields, and ``base_basis`` keeps the certified bases
of W-invariant multiplicities on the arrangement.  These tests serve
requests in one process through ``coxbasis.cli.main`` and compare every
exit code, standard output and standard error with the same request run
from cleared memos, as a fresh interpreter would run it.
"""

from __future__ import annotations

import functools
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from conftest import clear_memos
from coxbasis import coxeter, invariants
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
    # one walk and one selection per type, whatever the cache options say
    assert coxeter._walked.cache_info().misses == len(LABELS)
    assert sorted(selections) == sorted(LABELS)
    # the memo holds exactly these types, each with its system
    assert memo_labels(LABELS) == LABELS
    assert coxeter._walked.cache_info().misses == len(LABELS)


def memo_labels(labels: list[str]) -> list[str]:
    """The labels of the systems kept on the memo's arrangements of the
    given types; asking for them counts as using them."""
    return [coxeter._walked(parse_type(label))[1].invariants.label for label in labels]


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
    assert coxeter._walked.cache_info().hits == 1
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
    assert list(coxeter._walked(parse_type("B3"))[1].bases) == [("gradient", (1,) * 9)]


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
