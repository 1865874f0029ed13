"""The command line's one-pass reader against argparse, and argparse's text.

``cli.main`` reads a command line whose every token is an exact entry of
the option table in one pass and builds the argparse parser only for what
that reader declines.  Every request the benchmark issues (its workload
lists with the options its runner appends, and the keys of
``perfbench/golden.json``) must be read by the table, into the namespace
argparse returns; both files are only read.  The help and usage-error
text stays argparse's: its sha256 digests, with the exit codes, were
recorded before the table existed.  argparse words and wraps that text
differently between Python versions, so the digests are kept per version
(at 80 columns) and the check is skipped on a version without them.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from coxbasis import cli
from coxbasis.cli import EXIT_FAIL, EXIT_OK, build_parser, main

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"

HELP_DIGESTS = {
    (3, 11): {
        "": "48ab482c7228f3a97ebdbcf773efd28faa6f84e5432dbf74a4b885157c2e8308",
        "info": "4e452b70e569d68084815a01377c0ae5a68e1a2976c5ed85f8992d198b1a4a2c",
        "basis": "978335c6f5c58940c3fba0acb6c9bd0a3d5eecc376e035afa42d4762259098be",
        "verify": "c05cebd803d9e3f93f37ffa8d844e0d90bedd454dac97b1ad8241904bd9756eb",
    },
}
USAGE_DIGESTS = {
    (3, 11): {
        "basis --type A2 --m 0 --mfile x":
            "6c95bda2bc7cc6322d607229814a8164d5d573355e8662b00dfd4e466e82dbca",
        "verify --type A2 --samples -2":
            "01852ca0b8433e1e6851a33835f571457803ab58fb3f96eb67ba47d3514fb1f2",
        "info": "0083b8a380ce129599500da403cacb521834d86a4fd62c5e699530e82e125e82",
    },
}
VERSION = sys.version_info[:2]
recorded = pytest.mark.skipif(VERSION not in HELP_DIGESTS,
                              reason="help text digests are recorded for Python %s only"
                              % ", ".join("%d.%d" % v for v in HELP_DIGESTS))


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _benchmark_requests() -> list[list[str]]:
    workloads = _load_workloads()
    requests = []
    for workload in workloads.WORKLOADS.values():
        extra = ["--no-cache"] if workload["mode"] == workloads.COLD else ["--cache-dir", "cache"]
        for seed in (0, 1, 2):
            requests += [argv + extra for argv in workload["requests"](seed)]
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))["digests"]
    requests += [key.split(" ") for key in golden]
    return requests


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _exit(argv: list[str], capsys) -> tuple[int, str, str]:
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", _benchmark_requests(), ids=" ".join)
def test_every_benchmark_request_is_read_by_the_table(argv):
    read = cli._read_exact(argv)
    assert read is not None
    assert read == build_parser().parse_args(argv)


@recorded
@pytest.mark.parametrize("command", ["", "info", "basis", "verify"])
def test_help_text_is_argparse_text(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [command, "--help"] if command else ["--help"]
    code, out, err = _exit(argv, capsys)
    assert (code, err) == (EXIT_OK, "")
    assert _sha256(out) == HELP_DIGESTS[VERSION][command]


@recorded
@pytest.mark.parametrize("request_line", list(USAGE_DIGESTS[(3, 11)]))
def test_usage_errors_are_argparse_text(request_line, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _exit(request_line.split(" "), capsys)
    assert (code, out) == (EXIT_FAIL, "")
    assert _sha256(err) == USAGE_DIGESTS[VERSION][request_line]
