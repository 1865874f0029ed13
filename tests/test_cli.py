from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coxbasis.cli import (
    EXIT_CERTIFICATE,
    EXIT_FAIL,
    EXIT_NOT_A_BASIS,
    EXIT_OK,
    EXIT_UNSUPPORTED,
    build_parser,
    main,
)
from coxbasis.coxeter import parse_type


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_text(capsys):
    code, out, _ = run(["info", "B2", "--no-cache"], capsys)
    assert code == EXIT_OK
    assert "group order     8" in out
    assert "hyperplanes     4" in out
    assert "PROBLEM" not in out


def test_info_json(capsys):
    code, out, _ = run(["info", "I2(5)", "--format", "json", "--no-cache"], capsys)
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["order"] == 10
    assert data["field"] == "Q(sqrt(5))"
    assert data["problems"] == []


def test_info_unsupported_type(capsys):
    code, _, err = run(["info", "E6", "--no-cache"], capsys)
    assert code == EXIT_UNSUPPORTED
    assert "unsupported" in err


@pytest.mark.parametrize("label", ["", " "])
def test_info_blank_type_is_unsupported(label, capsys):
    code, _, err = run(["info", label, "--no-cache"], capsys)
    assert code == EXIT_UNSUPPORTED
    assert "empty type label" in err


def test_order_bound_exit_code(capsys):
    code, _, _ = run(["info", "B3", "--order-bound", "10", "--no-cache"], capsys)
    assert code == EXIT_UNSUPPORTED


def test_basis_report_deterministic(tmp_path, capsys):
    p1 = tmp_path / "r1.json"
    p2 = tmp_path / "r2.json"
    base = ["basis", "--type", "A1", "--m", "1", "--k", "1", "--no-cache"]
    assert main(base + ["--out", str(p1)]) == EXIT_OK
    assert main(base + ["--out", str(p2)]) == EXIT_OK
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()
    data = json.loads(p1.read_text())
    assert data["schema"] == "coxbasis/basis-report/1"
    assert data["certificate"]["verdict"] == "Free-with-basis"
    assert data["member_degrees"] == [3]


def test_basis_text_format(capsys):
    code, out, _ = run(["basis", "--type", "B2", "--m", "0", "--k", "1",
                        "--format", "text", "--no-cache"], capsys)
    assert code == EXIT_OK
    assert "Free-with-basis" in out
    assert "member degrees  [4, 4]" in out


def test_basis_mfile_per_orbit(tmp_path, capsys):
    mfile = tmp_path / "mult.json"
    mfile.write_text(json.dumps({"per_orbit": [1, 0]}), encoding="utf-8")
    out_path = tmp_path / "report.json"
    code, _, _ = run(["basis", "--type", "B2", "--mfile", str(mfile), "--k", "1",
                      "--no-cache", "--out", str(out_path)], capsys)
    assert code == EXIT_OK
    data = json.loads(out_path.read_text())
    assert data["inputs"]["multiplicity"]["per_hyperplane"] == [1, 0, 1, 0]
    assert data["inputs"]["base_source"] == "oracle"
    assert data["certificate"]["verdict"] == "Free-with-basis"


@pytest.mark.parametrize("content", [
    None,
    {"per_hyperplane": 5},
    {"per_hyperplane": [None, 1, 1]},
    {"per_hyperplane": [0.9, 1, 1]},
    {"per_hyperplane": [True, 1, 1]},
    {"per_orbit": [[1]]},
    {"per_orbit": 3},
])
def test_basis_rejects_malformed_mfile(tmp_path, capsys, content):
    mfile = tmp_path / "mult.json"
    mfile.write_text(json.dumps(content), encoding="utf-8")
    code, out, err = run(["basis", "--type", "A2", "--mfile", str(mfile), "--k", "0",
                          "--no-cache"], capsys)
    assert code == EXIT_FAIL
    assert err.startswith("error: multiplicity")
    assert out == ""


def test_basis_base_file_round_trip(tmp_path, capsys):
    first = tmp_path / "first.json"
    code, _, _ = run(["basis", "--type", "B2", "--m", "1", "--k", "0",
                      "--no-cache", "--out", str(first)], capsys)
    assert code == EXIT_OK
    direct = tmp_path / "direct.json"
    code, _, _ = run(["basis", "--type", "B2", "--m", "1", "--k", "1",
                      "--no-cache", "--out", str(direct)], capsys)
    assert code == EXIT_OK
    refed = tmp_path / "refed.json"
    code, _, _ = run(["basis", "--type", "B2", "--m", "1", "--k", "1",
                      "--base-file", str(first), "--no-cache",
                      "--out", str(refed)], capsys)
    assert code == EXIT_OK
    direct_data = json.loads(direct.read_text())
    refed_data = json.loads(refed.read_text())
    assert refed_data["inputs"]["base_source"] == "user"
    assert refed_data["members"] == direct_data["members"]
    assert refed_data["certificate"] == direct_data["certificate"]


def test_basis_rejects_bad_user_base(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    # coordinate fields are not tangent to the arrangement
    bad.write_text(json.dumps([
        {"degree": 0, "coefficients": [[[[0, 0], "1"]], []]},
        {"degree": 0, "coefficients": [[], [[[0, 0], "1"]]]},
    ]), encoding="utf-8")
    code, _, err = run(["basis", "--type", "B2", "--m", "1", "--k", "1",
                        "--base-file", str(bad), "--no-cache"], capsys)
    assert code == EXIT_NOT_A_BASIS
    assert "not a basis" in err


@pytest.mark.parametrize("member", [
    {"degree": 0},
    {"degree": 0, "coefficients": [[[[0, 0], 1]], []]},
    {"degree": 0, "coefficients": [[[[0, 0.5], "1"]], []]},
    {"degree": 0, "coefficients": [[[[0, 0], "1", "2"]], []]},
    [[[0, 0], "1"]],
])
def test_basis_rejects_malformed_base_file(tmp_path, capsys, member):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([member, {"degree": 0, "coefficients": [[], [[[0, 0], "1"]]]}]),
                   encoding="utf-8")
    code, _, err = run(["basis", "--type", "B2", "--m", "0", "--k", "0",
                        "--base", "user", "--base-file", str(bad), "--no-cache"], capsys)
    assert code == EXIT_FAIL
    assert err.startswith("error: base member 0:")


@pytest.mark.parametrize("first", [[], [[[1, 0], "1"], [[0, 0], "1"]]])
def test_basis_zero_or_mixed_degree_base_member_exits_not_a_basis(tmp_path, capsys, first):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([
        {"degree": None, "coefficients": [first, []]},
        {"degree": 0, "coefficients": [[], [[[0, 0], "1"]]]},
    ]), encoding="utf-8")
    code, _, err = run(["basis", "--type", "B2", "--m", "0", "--k", "0",
                        "--base", "user", "--base-file", str(bad), "--no-cache"], capsys)
    assert code == EXIT_NOT_A_BASIS
    assert "member 0" in err


def test_basis_time_budget(capsys):
    code, _, err = run(["basis", "--type", "B3", "--m", "1", "--k", "1",
                        "--time-budget", "1e-9", "--no-cache"], capsys)
    assert code == EXIT_UNSUPPORTED
    assert "budget" in err


def test_time_budget_message_shows_the_budget_given(capsys):
    code, _, err = run(["basis", "--type", "A2", "--m", "1", "--k", "1",
                        "--time-budget", "1e-9", "--no-cache"], capsys)
    assert code == EXIT_UNSUPPORTED
    assert "time budget of 1e-09s exceeded after group construction" in err


@pytest.mark.parametrize("argv", [
    ["info", "A2", "--format", "json"],
    ["basis", "--type", "A2", "--m", "1", "--k", "1"],
    ["verify", "--type", "A2", "--suite", "jacobian", "--format", "json"],
])
def test_unwritable_cache_warns_and_keeps_the_result(argv, tmp_path, capsys):
    # a regular file where the cache directory should be
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("", encoding="utf-8")
    code, out, err = run(argv + ["--cache-dir", str(blocker)], capsys)
    expected_code, expected_out, _ = run(argv + ["--no-cache"], capsys)
    assert code == expected_code == EXIT_OK
    assert out == expected_out
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning: invariant cache not written")
    assert blocker.read_text(encoding="utf-8") == ""


def test_basis_cache_dir_is_written(tmp_path, capsys):
    cache = tmp_path / "cache"
    code, _, _ = run(["basis", "--type", "A2", "--m", "1", "--k", "1",
                      "--cache-dir", str(cache)], capsys)
    assert code == EXIT_OK
    assert list(cache.glob("invariants_*.json"))


def test_verify_all_suites(capsys):
    code, out, _ = run(["verify", "--type", "A2", "--samples", "5",
                        "--no-cache"], capsys)
    assert code == EXIT_OK
    for suite in ("euler", "jacobian", "shift", "hodge"):
        assert suite in out
    assert "FAIL" not in out


def test_verify_json_format(capsys):
    code, out, _ = run(["verify", "--type", "A1", "--suite", "euler",
                        "--samples", "5", "--format", "json", "--no-cache"], capsys)
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["passed"] is True
    assert data["suites"][0]["suite"] == "euler"


def test_verify_hodge_degrees_flag(capsys):
    code, out, _ = run(["verify", "--type", "A2", "--suite", "hodge",
                        "--degrees", "1,2", "--k", "1", "--no-cache"], capsys)
    assert code == EXIT_OK
    assert "hodge" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("attr", ["group_order", "num_hyperplanes"])
def test_group_construction_alarm_exits_three(attr, capsys, monkeypatch):
    from coxbasis.coxeter import CoxeterDatum

    wrong = CoxeterDatum.group_order(parse_type("B2")) + 1 if attr == "group_order" else 5
    replacement = (lambda self: wrong) if attr == "group_order" else property(lambda self: wrong)
    monkeypatch.setattr(CoxeterDatum, attr, replacement)
    code, _, err = run(["basis", "--type", "B2", "--m", "1", "--k", "0", "--no-cache"], capsys)
    assert code == EXIT_CERTIFICATE
    assert "group construction failure" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    [],
    ["basis", "--type", "A2", "--m", "2"],
    ["basis", "--type", "A2", "--k", "x"],
    ["basis", "--type", "A2", "--k", "-1"],
    ["basis", "--type", "A2", "--time-budget", "nan"],
    ["basis", "--type", "A2", "--time-budget", "inf"],
    ["basis", "--type", "A2", "--time-budget", "0"],
    ["basis", "--type", "A2", "--time-budget", "-1"],
    ["basis", "--type", "A2", "--time-budget", "x"],
    ["verify", "--type", "A2", "--suite", "hodge", "--k", "-1"],
    ["verify", "--type", "A2", "--suite", "euler", "--samples", "-2"],
    ["verify", "--type", "A2", "--suite", "hodge", "--degrees", "-5"],
    ["verify", "--type", "A2", "--suite", "hodge", "--degrees", "x"],
    ["verify", "--type", "A2", "--suite", "hodge", "--degrees", "1,-2"],
])
def test_usage_errors_exit_one(argv, capsys):
    # argparse would exit 2, the code reserved for "not a basis"
    with pytest.raises(SystemExit) as info:
        main(argv + ["--no-cache"] if argv else argv)
    assert info.value.code == EXIT_FAIL
    assert "usage:" in capsys.readouterr().err


def test_usage_error_exit_status_of_the_process():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-m", "coxbasis.cli", "verify", "--type", "A2",
                           "--samples", "-2"], capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_FAIL
    assert "expected a nonnegative integer" in proc.stderr


@pytest.mark.parametrize("argv, label, rank", [
    (["basis", "--type", "A2", "--rank", "3", "--m", "0", "--k", "0"], "A2", "3"),
    (["info", "A3", "5"], "A3", "5"),
    (["info", "I2(5)", "7"], "I2(5)", "7"),
    (["info", "G2", "5"], "G2", "5"),
])
def test_conflicting_rank_is_unsupported(argv, label, rank, capsys):
    code, _, err = run(argv + ["--no-cache"], capsys)
    assert code == EXIT_UNSUPPORTED
    assert "type '%s' does not have rank %s" % (label, rank) in err


@pytest.mark.parametrize("argv, label", [
    (["info", "A3", "3"], "A3"),
    (["info", "I2", "5"], "I2(5)"),
    (["info", "I2(5)", "5"], "I2(5)"),
    (["basis", "--type", "A", "--rank", "3", "--m", "0", "--k", "0", "--format", "text"], "A3"),
])
def test_agreeing_rank_is_accepted(argv, label, capsys):
    code, out, _ = run(argv + ["--no-cache"], capsys)
    assert code == EXIT_OK
    assert out.split()[1] == label


@pytest.mark.parametrize("label", ["Ax", "B3.5", "Z3", "I2(7)", "I2(5"])
def test_malformed_label_is_unsupported(label, capsys):
    code, _, err = run(["info", label, "--no-cache"], capsys)
    assert code == EXIT_UNSUPPORTED
    assert "unsupported" in err and label in err
    assert "invalid literal" not in err


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    import coxbasis.cli as cli

    built = []

    def counting():
        built.append(True)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    assert run(["info", "A1", "--no-cache"], capsys)[0] == EXIT_OK
    assert run(["info", "A2", "--no-cache"], capsys)[0] == EXIT_OK
    assert len(built) == 1
