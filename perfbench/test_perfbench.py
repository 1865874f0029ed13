"""Self-checks of the benchmark.  Run from the root of a checkout:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import run
from tracer import TARGETS, Tracer, _resolve, self_times
from workloads import COLD, WARM, basis

TINY = [["info", "A1", "--format", "json"], basis("A1", 1, 1),
        ["verify", "--type", "A2", "--suite", "jacobian", "--format", "json"]]


@pytest.fixture(scope="module")
def golden():
    return run.load_golden()


def test_trace_parses_and_self_times_add_up(golden):
    p = run.run_pass(COLD, [basis("A2", 1, 1), basis("G2", 0, 1)], True, golden, None,
                     time.monotonic() + 60)
    assert not p.failures
    assert len(p.traces) == 2
    for trace, recs in p.traces:
        trace = json.loads(json.dumps(trace))
        assert trace["schema"] == "perfbench/trace/1"
        spans = trace["spans"]
        names = {s[0] for s in spans}
        assert {"cli.main", "coxeter.build_group", "certify.ziegler", "poly.mul"} <= names
        for i, (_, start, end, parent, _) in enumerate(spans):
            assert start <= end
            if parent >= 0:
                assert parent < i
                assert spans[parent][1] <= start and end <= spans[parent][2]
        selfs = self_times(spans)
        assert min(selfs) > -1e-9
        (rec,) = recs
        request_time = rec["t1"] - rec["t0"]
        unwrapped = request_time - sum(selfs)
        assert 0 <= unwrapped < 0.05 * request_time
        assert sum(selfs) + unwrapped == pytest.approx(request_time, abs=1e-9)
    layers = run.layer_metrics(p)
    assert (set(layers) | {"trace_overhead_ratio", "machine.probe_s"} | set(run.LATENCY_UNITS)
            == set(run.LAYER_UNITS))
    assert layers["coxeter.reynolds_calls"] > 0
    assert layers["invariants.cache_hit_ratio"] == 0.0


def test_tiny_request_list_has_no_failures(golden):
    out = run.run_workload("sweep-warm", 3, 0.0, False, golden, requests=TINY)
    result = out["result"]
    assert result == {**result, "correct": True, "attempted": len(TINY), "failed": 0}
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert any("error_rate" in line and "(0 failed of 3 attempted)" in line
               for line in out["lines"])


def test_warm_trace_hits_the_cache(golden):
    out = run.run_workload("sweep-warm", 3, 0.0, True, golden, requests=TINY)
    metrics = out["result"]["metrics"]
    assert metrics["coxeter.reynolds_calls"]["value"] == 0
    assert metrics["invariants.cache_hit_ratio"]["value"] == 1.0
    assert set(metrics) == set(run.LAYER_UNITS)


def test_corrupted_golden_digest_is_a_failure(golden):
    bad = dict(golden)
    k = " ".join(basis("A1", 1, 1))
    bad[k] = "0" * 64
    out = run.run_workload("sweep-warm", 3, 0.0, False, bad, requests=TINY)
    assert out["result"]["correct"] is False
    assert out["result"]["failed"] == 1
    assert any(k in line and "differs from the golden" in line for line in out["lines"])


def test_failure_rules():
    argv = basis("A1", 1, 1)
    good = {"rc": 0, "raised": None, "sha256": "ab", "bytes": 2, "verdict": run.VERDICT_FREE}
    golden = {" ".join(argv): "ab"}
    assert run.failure(argv, good, golden) is None
    assert run.failure(argv, None, golden)
    assert run.failure(argv, {**good, "raised": "RuntimeError: x"}, golden)
    assert run.failure(argv, {**good, "rc": 3}, golden)
    assert run.failure(argv, {**good, "verdict": "Dependent"}, golden)
    assert run.failure(argv, good, {}) == "no golden digest"
    verify = ["verify", "--type", "A2"]
    assert run.failure(verify, {**good, "passed": True}, {}) is None
    assert run.failure(verify, {**good, "passed": False}, {})


def test_tracer_restores_every_wrapped_name():
    sys.path.insert(0, str(run.ROOT / "src"))
    try:
        originals = [_resolve(path).__dict__[attr] for _, path, attr in TARGETS]
        tracer = Tracer()
        tracer.install()
        try:
            for (_, path, attr), fn in zip(TARGETS, originals):
                assert _resolve(path).__dict__[attr] is not fn
        finally:
            tracer.restore()
        for (_, path, attr), fn in zip(TARGETS, originals):
            assert _resolve(path).__dict__[attr] is fn
    finally:
        sys.path.remove(str(run.ROOT / "src"))


def test_nested_calls_of_one_name_are_timed_once():
    tracer = Tracer()
    calls = []

    def inner(n):
        calls.append(n)
        return wrapped(n - 1) if n else 0

    wrapped = tracer._wrap("x", inner, None)
    with tracer.request(0):
        wrapped(3)
    assert [s[0] for s in tracer.spans] == ["cli.main", "x"]
    assert tracer.counters["x.calls"] == 4


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rank4-cold",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_workload_modes():
    assert {spec["mode"] for spec in run.WORKLOADS.values()} == {COLD, WARM}
    reqs = run.WORKLOADS["sweep-warm"]["requests"](5)
    assert len(reqs) >= 100
    other = run.WORKLOADS["sweep-warm"]["requests"](6)
    assert sorted(map(tuple, reqs)) != sorted(map(tuple, other))
    assert reqs == run.WORKLOADS["sweep-warm"]["requests"](5)
