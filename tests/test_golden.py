"""Report byte-identity against the benchmark's golden digests.

The warm sweep of the benchmark (``perfbench/workloads.py``) requests 68
``basis`` reports, and ``perfbench/golden.json`` holds the sha256 of each
as the benchmark's driver receives it on standard output.  These tests
serve the same argument lists in-process through ``coxbasis.cli.main`` and
compare digests, so a change that moves a report byte fails here as well
as in the benchmark.  Each parametrized case starts from cleared memos;
one more test serves all 68 in the sweep's order in one process, as the
benchmark does, so that reports served from kept state are checked too,
and another serves them in one order and then the reverse.
The four high-shift requests of the deep-shift workload, where the
inverse of the primitive connection does most of the work, and the four
rank-4 requests of the rank-4 workload, where group construction,
Reynolds averages and certification do, are served the same way with
``--no-cache``.  Both files are only read.

Every report served here, and the JSON of every ``info`` and ``verify``
request of the sweep, must also be the text ``json.dumps(...,
sort_keys=True, indent=2)`` writes for it: the package writes that layout
by hand.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from coxbasis.cli import main

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


WORKLOADS = _load_workloads()
# the seed only shuffles the order and seeds the verify suites
REQUESTS = [argv for argv in WORKLOADS.sweep_requests(0) if argv[0] == "basis"]
OTHERS = [argv for argv in WORKLOADS.sweep_requests(0) if argv[0] != "basis"]
DEEP_SHIFT = WORKLOADS.DEEP_SHIFT
RANK4 = WORKLOADS.RANK4
GOLDEN = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))["digests"]


def _serve(argv: list[str]) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(argv)
    assert rc == 0
    text = buf.getvalue()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
    return text


def _digest(argv: list[str]) -> str:
    return hashlib.sha256(_serve(argv).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden-cache")


def test_sweep_has_every_basis_request():
    assert len(REQUESTS) == 68
    assert all(" ".join(argv) in GOLDEN for argv in REQUESTS)


@pytest.mark.parametrize("argv", REQUESTS, ids=" ".join)
def test_report_matches_golden_digest(argv, cache_dir, monkeypatch):
    # the --mfile paths are relative to the root of the checkout
    monkeypatch.chdir(ROOT)
    assert _digest(argv + ["--cache-dir", str(cache_dir)]) == GOLDEN[" ".join(argv)]


def test_reports_served_in_one_warm_process_match_golden_digests(monkeypatch):
    """The sweep's order in one process, from cold memos that are never
    cleared between requests: every later request of a type is served from
    what the earlier ones kept, certified bases included."""
    monkeypatch.chdir(ROOT)
    digests = {" ".join(argv): _digest(argv) for argv in REQUESTS}
    assert digests == {key: GOLDEN[key] for key in digests}


@pytest.mark.parametrize("first", ["forward", "reverse"])
def test_reports_do_not_depend_on_the_order_served(first, monkeypatch):
    """The basis requests of the sweep's seed-1 order, served in one
    process in that order and then reversed, or the other way round: what
    one type keeps must not reach another that shares its realization
    (A2 and I2(3), B2 and I2(4), G2 and I2(6)), nor a form's pivot form
    over one field another field (I2(5) over Q(sqrt 5), I2(8) over
    Q(sqrt 2))."""
    monkeypatch.chdir(ROOT)
    order = [argv for argv in WORKLOADS.sweep_requests(1) if argv[0] == "basis"]
    if first == "reverse":
        order.reverse()
    for argv in order + order[::-1]:
        assert _digest(argv) == GOLDEN[" ".join(argv)], argv


def test_sweep_has_every_info_and_verify_request():
    assert len(OTHERS) == 35
    assert all("--format" in argv and argv[argv.index("--format") + 1] == "json"
               for argv in OTHERS)


@pytest.mark.parametrize("argv", OTHERS, ids=" ".join)
def test_info_and_verify_json_is_what_json_dumps_writes(argv, cache_dir):
    _serve(argv + ["--cache-dir", str(cache_dir)])


def test_deep_shift_has_four_basis_requests():
    assert len(DEEP_SHIFT) == 4
    assert all(argv[0] == "basis" and " ".join(argv) in GOLDEN for argv in DEEP_SHIFT)


@pytest.mark.parametrize("argv", DEEP_SHIFT, ids=" ".join)
def test_deep_shift_report_matches_golden_digest(argv):
    assert _digest(argv + ["--no-cache"]) == GOLDEN[" ".join(argv)]


def test_rank4_has_four_basis_requests():
    assert len(RANK4) == 4
    assert all(argv[0] == "basis" and " ".join(argv) in GOLDEN for argv in RANK4)


@pytest.mark.parametrize("argv", RANK4, ids=" ".join)
def test_rank4_report_matches_golden_digest(argv):
    assert _digest(argv + ["--no-cache"]) == GOLDEN[" ".join(argv)]
