"""What one process keeps between requests changes no output.

``build_group`` keeps the walks of recent types, ``compute_invariants``
reuses a system when the cache file's text is one it validated or wrote
itself, and a system keeps its universal fields.  These tests serve
requests in one process through ``coxbasis.cli.main`` and compare every
exit code, standard output and standard error with the same request run
from cleared memos, as a fresh interpreter would run it.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from conftest import clear_memos
from coxbasis import coxeter, invariants
from coxbasis.cli import EXIT_CERTIFICATE, EXIT_UNSUPPORTED, main
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
)] + [["basis", "--type", "B3", "--mfile", str(ROOT / "perfbench/mfiles/per_orbit_10.json"),
     "--k", "1"]]


def serve(argv: list[str], cache_dir: Path) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv + ["--cache-dir", str(cache_dir)])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """Per request, its result from cleared memos on a filled cache."""
    cache_dir = tmp_path_factory.mktemp("fresh-cache")
    out = {}
    for argv in REQUESTS:
        clear_memos()
        serve(argv, cache_dir)
        clear_memos()
        out[tuple(argv)] = serve(argv, cache_dir)
    return out


@pytest.mark.parametrize("first", ["forward", "reverse"])
def test_repeated_requests_match_fresh_runs(first, fresh, tmp_path):
    order = REQUESTS if first == "forward" else REQUESTS[::-1]
    for argv in order + order[::-1]:
        assert serve(argv, tmp_path) == fresh[tuple(argv)], argv
    # one walk per type, and the texts written are the ones reused
    assert coxeter._walked.cache_info().misses == len(LABELS)
    assert {datum.label for datum in invariants._KNOWN_TEXTS} == set(LABELS)


def _reindented(text: str) -> str:
    return json.dumps(json.loads(text), sort_keys=True, indent=4)


def _not_invariant(text: str) -> str:
    data = json.loads(text)
    data["polys"][0] = [[[2, 0], "1"]]
    return json.dumps(data, sort_keys=True, indent=2)


def _zero_denominator(text: str) -> str:
    data = json.loads(text)
    data["polys"][0][0][1] = "1/0"
    return json.dumps(data, sort_keys=True, indent=2)


# G2 and I2(6) share their Gram matrix and degrees; only the label tells
# their cache files apart
EDITS = {
    "corrupt json": lambda g2, i26: "{not json",
    "another type's file": lambda g2, i26: i26,
    "non-invariant polynomial": lambda g2, i26: _not_invariant(g2),
    "same system, other text": lambda g2, i26: _reindented(g2),
    "zero denominator": lambda g2, i26: _zero_denominator(g2),
}


@pytest.mark.parametrize("edit", list(EDITS))
def test_cache_edited_between_requests_is_read_as_fresh(edit, tmp_path):
    argv = ["info", "G2", "--format", "json"]
    warm, cold = tmp_path / "warm", tmp_path / "cold"
    path = warm / "invariants_G2_Q.json"
    serve(["info", "I2(6)", "--format", "json"], warm)
    before = serve(argv, warm)
    edited = EDITS[edit](path.read_text(encoding="utf-8"),
                         (warm / "invariants_I26_Q.json").read_text(encoding="utf-8"))
    path.write_text(edited, encoding="utf-8")
    served = serve(argv, warm)
    written = path.read_text(encoding="utf-8")

    clear_memos()
    cold.mkdir()
    (cold / path.name).write_text(edited, encoding="utf-8")
    assert served == serve(argv, cold) == before
    assert written == (cold / path.name).read_text(encoding="utf-8")


def test_order_bound_applies_to_a_cached_group(tmp_path):
    assert serve(["info", "A3"], tmp_path)[0] == 0
    code, out, err = serve(["info", "A3", "--order-bound", "10"], tmp_path)
    assert coxeter._walked.cache_info().currsize == 1
    assert (code, out) == (EXIT_UNSUPPORTED, "")
    assert "group of order 24 exceeds the bound 10" in err


@pytest.mark.parametrize("attr", ["group_order", "num_hyperplanes"])
def test_group_alarm_fires_on_a_cached_group(attr, tmp_path, monkeypatch):
    argv = ["basis", "--type", "B2", "--m", "1", "--k", "0"]
    assert serve(argv, tmp_path)[0] == 0
    wrong = CoxeterDatum.group_order(parse_type("B2")) + 1 if attr == "group_order" else 5
    replacement = (lambda self: wrong) if attr == "group_order" else property(lambda self: wrong)
    monkeypatch.setattr(CoxeterDatum, attr, replacement)
    code, _, err = serve(argv, tmp_path)
    assert coxeter._walked.cache_info().hits == 1
    assert code == EXIT_CERTIFICATE
    assert "group construction failure" in err
