"""End-to-end and per-layer benchmark of the coxbasis pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rank4-cold --seed 1 --seconds 36 --trace 0

A single client sends requests one at a time (a closed loop) through
``coxbasis.cli.main`` inside ``perfbench/serve.py``.  The cold workloads
start one fresh interpreter per request with ``--no-cache``; ``sweep-warm``
starts one interpreter per pass, fills a fresh invariant cache in it and
then serves every request of the pass.  Passes over the workload's fixed
request list repeat while the next one is expected to end within
``--seconds`` (at least one runs).

Every output is checked: a request fails when it raises, exits non-zero,
returns a basis report whose verdict is not ``Free-with-basis`` or whose
bytes differ from the digest in ``golden.json``, or returns a verify
result with ``passed`` false.

The end-to-end times are scaled to the machine's speed: the serving
processes run the fixed kernel of ``probe.py`` between requests, and each
pass's times are multiplied by ``probe.NOMINAL_S`` over the pass's median
probe time.  On a shared machine whose speed changes with other tenants'
load this halves the spread between runs; the raw wall times are printed
beside the scaled ones.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, with the tracing overhead.  Several
workloads may be given, comma separated; the last line of standard output
is then the JSON result of the last one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from probe import NOMINAL_S, speed_factor  # noqa: E402
from tracer import cache_hits, self_times  # noqa: E402
from workloads import COLD, WORKLOADS, key  # noqa: E402

SERVE = HERE / "serve.py"
GOLDEN = HERE / "golden.json"
WORKDIR = ROOT / ".perfbench-work"
VERDICT_FREE = "Free-with-basis"
RUN_LIMIT_S = 150  # a serving process still running this long after a workload began is killed
MIN_SETUPS = 9

END_TO_END_UNITS = {"total_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# per-request latency percentiles: printed with the end-to-end metrics, but
# reported in the JSON only by traced runs, since on the cold lists each is a
# single request whose spread between runs is close to any usable bound
LATENCY_UNITS = {"request_p50_s": "s", "request_p90_s": "s"}

# per-layer self times: metric name -> span name
SELF_TIME_METRICS = {
    "coxeter.build_group_s": "coxeter.build_group",
    "coxeter.reynolds_s": "coxeter.reynolds",
    "invariants.compute_s": "invariants.compute",
    "basis.build_s": "basis.build",
    "basis.base_s": "basis.base",
    "basis.members_s": "basis.members",
    "certify.ziegler_s": "certify.ziegler",
    "certify.contact_order_s": "certify.contact_order",
    "certify.graded_member_basis_s": "certify.graded_member_basis",
    "connection.universal_s": "connection.universal",
    "connection.inverse_s": "connection.inverse",
    "connection.nabla_D_s": "connection.nabla_D",
    "linalg.rref_s": "linalg.rref",
    "linalg.det_s": "linalg.det",
    "poly.mul_s": "poly.mul",
    "poly.divrem_s": "poly.divrem",
    "poly.substitute_s": "poly.substitute",
    "report.basis_s": "report.basis",
    "report.dump_s": "report.dump",
    "verify.suite_s": "verify.suite",
    "cli.self_s": "cli.main",
}
COUNT_METRICS = {
    "coxeter.reynolds_calls": "coxeter.reynolds.calls",
    "certify.ziegler_calls": "certify.ziegler.calls",
    "connection.inverse_calls": "connection.inverse.calls",
    "linalg.rref_calls": "linalg.rref.calls",
    "linalg.rref_cells": "linalg.rref_cells",
    "linalg.det_calls": "linalg.det.calls",
    "poly.mul_calls": "poly.mul.calls",
    "poly.mul_term_pairs": "poly.mul_term_pairs",
    "poly.divrem_calls": "poly.divrem.calls",
    "poly.substitute_calls": "poly.substitute.calls",
}
# inclusive stage times: metric name -> (span name, parent span name or None)
STAGE_METRICS = {
    "stage.group_s": ("coxeter.build_group", None),
    "stage.invariants_s": ("invariants.compute", None),
    "stage.base_s": ("basis.base", None),
    "stage.universal_s": ("connection.universal", None),
    "stage.members_s": ("basis.members", None),
    "stage.certify_s": ("certify.ziegler", "basis.build"),
}
LAYER_UNITS = {**{m: "s" for m in SELF_TIME_METRICS}, **{m: "count" for m in COUNT_METRICS},
               **{m: "s" for m in STAGE_METRICS},
               "invariants.cache_hit_ratio": "ratio", "scalars.quad_mul_share": "ratio",
               "report.bytes": "bytes", "trace.unwrapped_s": "s", "trace.total_s": "s",
               "trace_overhead_ratio": "ratio", "machine.probe_s": "s", **LATENCY_UNITS}


class SetupError(Exception):
    """The checkout cannot run the benchmark at all."""


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "machine": platform.machine()}


def load_golden(path: Path = GOLDEN) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def failure(argv: list[str], rec: dict | None, golden: dict[str, str]) -> str | None:
    """Why a served request counts as failed, or None when it passed."""
    if rec is None:
        return "no result from the serving process"
    if rec["raised"]:
        return "raised %s" % rec["raised"]
    if rec["rc"] != 0:
        return "exit code %s" % rec["rc"]
    if argv[0] == "basis":
        if rec.get("verdict") != VERDICT_FREE:
            return "verdict %s" % rec.get("verdict")
        want = golden.get(key(argv))
        if want is None:
            return "no golden digest"
        if rec["sha256"] != want:
            return "report digest %s differs from the golden %s" % (rec["sha256"][:12], want[:12])
    if argv[0] == "verify" and rec.get("passed") is not True:
        return "verify passed=%s" % rec.get("passed")
    return None


def serve(requests: list[list[str]], extra: list[str], trace: bool, deadline: float,
          fill_cache: dict | None = None) -> tuple[float, float, dict | None, str]:
    """One serving process, killed at the monotonic ``deadline``.

    Returns its spawn time, end time, result (None when it failed) and stderr.
    """
    job = {"requests": [{"id": i, "argv": argv + extra} for i, argv in enumerate(requests)],
           "trace": trace, "fill_cache": fill_cache}
    spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(SERVE)], input=json.dumps(job),
                              capture_output=True, text=True, cwd=str(ROOT),
                              timeout=max(0.1, deadline - spawn))
    except subprocess.TimeoutExpired as exc:
        return spawn, time.monotonic(), None, "timed out: %s" % (exc.stderr or "")
    end = time.monotonic()
    result = None
    if proc.returncode == 0 and proc.stdout:
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
        except ValueError:
            result = None
    return spawn, end, result, proc.stderr


def serve_warm(requests: list[list[str]], types: list[str], trace: bool,
               deadline: float) -> tuple[float, float, dict | None, str]:
    """``serve`` in one process whose set-up fills a fresh invariant cache."""
    WORKDIR.mkdir(exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=str(WORKDIR))
    try:
        return serve(requests, ["--cache-dir", cache_dir], trace, deadline,
                     {"dir": cache_dir, "types": types})
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


class Pass:
    """What one pass over a request list measured.

    ``probes`` are the speed probe times its serving processes reported;
    ``factor`` scales its times to the nominal probe.
    """

    def __init__(self) -> None:
        self.latencies: list[float | None] = []  # one per request, None when lost
        self.setups: list[float] = []
        self.probes: list[float] = []
        self.maxrss_kb = 0
        self.failures: list[tuple[str, str]] = []
        self.attempted = 0
        self.traces: list[tuple[dict, list[dict]]] = []
        self.out_bytes = 0

    def add(self, argv: list[str], rec: dict | None, golden: dict[str, str]) -> None:
        self.attempted += 1
        why = failure(argv, rec, golden)
        if why is not None:
            self.failures.append((key(argv), why))
        if rec is not None:
            self.out_bytes += rec["bytes"]

    @property
    def factor(self) -> float:
        return speed_factor(self.probes)

    def scaled(self) -> list[float | None]:
        if not self.probes:  # every serving process of the pass failed
            return [None] * len(self.latencies)
        f = self.factor
        return [None if x is None else x * f for x in self.latencies]


def run_pass(mode: str, requests: list[list[str]], trace: bool, golden: dict[str, str],
             types: list[str] | None, deadline: float) -> Pass:
    """Serve the request list once."""
    out = Pass()
    if mode == COLD:
        for argv in requests:
            spawn, end, result, err = serve([argv], ["--no-cache"], trace, deadline)
            probing = sum(result["probes"]) if result else 0.0
            out.latencies.append(end - spawn - probing)
            rec = result["requests"][0] if result else None
            out.add(argv, rec, golden)
            if result:
                out.probes += result["probes"]
                out.setups.append(result["ready"] - spawn)
                out.maxrss_kb = max(out.maxrss_kb, result["maxrss_kb"])
                if result["trace"]:
                    out.traces.append((result["trace"], result["requests"]))
            elif err:
                sys.stderr.write(err[-2000:])
        return out
    spawn, _, result, err = serve_warm(requests, types or [], trace, deadline)
    recs = result["requests"] if result else [None] * len(requests)
    for argv, rec in zip(requests, recs):
        out.add(argv, rec, golden)
        out.latencies.append(rec["t1"] - rec["t0"] if rec is not None else None)
    if result:
        out.probes += result["probes"]
        out.setups.append(result["ready"] - spawn)
        out.maxrss_kb = result["maxrss_kb"]
        if result["trace"]:
            out.traces.append((result["trace"], recs))
    elif err:
        sys.stderr.write(err[-2000:])
    return out


def extra_setups(mode: str, types: list[str] | None, count: int, deadline: float) -> Pass:
    """Set-up times of serving processes given no request."""
    out = Pass()
    for _ in range(count):
        if mode == COLD:
            spawn, _, result, err = serve([], [], False, deadline)
        else:
            spawn, _, result, err = serve_warm([], types or [], False, deadline)
        if result is None:
            raise SetupError("a serving process failed to start: %s" % err[-2000:])
        out.probes += result["probes"]
        out.setups.append(result["ready"] - spawn)
    return out


def request_medians(passes: list[list[float | None]]) -> list[float]:
    """Each request's median latency over the passes that completed it."""
    out = []
    for samples in zip(*passes):
        seen = [x for x in samples if x is not None]
        if seen:
            out.append(statistics.median(seen))
    return out


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(p: Pass) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    self_by_name: Counter = Counter()
    stage: Counter = Counter()
    counters: Counter = Counter()
    hits = calls = 0
    unwrapped = 0.0
    for trace, recs in p.traces:
        spans = trace["spans"]
        selfs = self_times(spans)
        per_request: Counter = Counter()
        for span, own in zip(spans, selfs):
            self_by_name[span[0]] += own
            per_request[span[4]] += own
        for name, (span_name, parent) in STAGE_METRICS.items():
            stage[name] += sum(s[2] - s[1] for s in spans if s[0] == span_name and
                               (parent is None or (s[3] >= 0 and spans[s[3]][0] == parent)))
        counters.update(trace["counters"])
        h, c = cache_hits(spans)
        hits += h
        calls += c
        for rec in recs:
            if rec is not None:
                unwrapped += (rec["t1"] - rec["t0"]) - per_request[rec["id"]]
    out = {m: self_by_name[s] for m, s in SELF_TIME_METRICS.items()}
    out.update({m: counters[c] for m, c in COUNT_METRICS.items()})
    out.update(stage)
    out["invariants.cache_hit_ratio"] = hits / calls if calls else 0.0
    mul_calls = counters["poly.mul.calls"]
    out["scalars.quad_mul_share"] = counters["poly.mul_quad"] / mul_calls if mul_calls else 0.0
    out["report.bytes"] = p.out_bytes
    out["trace.unwrapped_s"] = unwrapped
    out["trace.total_s"] = sum(request_medians([p.latencies]))
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 golden: dict[str, str], requests: list[list[str]] | None = None) -> dict:
    """Measure one workload; returns the result object and the lines to print."""
    spec = WORKLOADS[name]
    mode = spec["mode"]
    types = spec.get("types")
    if requests is None:
        requests = spec["requests"](seed)
    plain: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    deadline = time.monotonic() + RUN_LIMIT_S
    while True:
        plain.append(run_pass(mode, requests, False, golden, types, deadline))
        if trace:
            traced.append(run_pass(mode, requests, True, golden, types, deadline))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) > seconds:
            break
    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    missing = MIN_SETUPS - sum(len(p.setups) for p in plain)
    setup_passes = plain + ([extra_setups(mode, types, missing, deadline)] if missing > 0 else [])
    setups = [(s, p.factor) for p in setup_passes for s in p.setups]
    samples = sum(x is not None for p in plain for x in p.latencies)
    walls = request_medians([p.latencies for p in plain])
    scaled = request_medians([p.scaled() for p in plain])
    if not scaled:
        raise SetupError("no request of %s completed: %s" % (name, failures[:3]))
    probes = [x for p in traced + setup_passes for x in p.probes]
    if not probes:
        raise SetupError("no serving process of %s reported: %s" % (name, failures[:3]))
    wall = {
        "total_s": sum(walls),
        "setup_s": statistics.median(s for s, _ in setups),
        "request_p50_s": nearest_rank(walls, 0.50),
        "request_p90_s": nearest_rank(walls, 0.90),
    }
    e2e = {
        "total_s": sum(scaled),
        "setup_s": statistics.median(s * f for s, f in setups),
        "request_p50_s": nearest_rank(scaled, 0.50),
        "request_p90_s": nearest_rank(scaled, 0.90),
        "peak_rss_mb": max(p.maxrss_kb for p in plain) / 1024.0,
    }
    lines = ["workload %s seed %d: %d untraced and %d traced passes of %d requests, %s"
             % (name, seed, len(plain), len(traced), len(requests),
                "one fresh interpreter per request" if mode == COLD
                else "one interpreter per pass on a warm cache")]
    if mode == COLD:
        for i, argv in enumerate(requests):
            own = [p.latencies[i] for p in plain]
            lines.append("  request %-40s %9.4f s wall  (median of %d)"
                         % (key(argv), statistics.median(own), len(own)))
    lines.append("  speed probe median %.6f s over %d probes; times are scaled to a %.3f s probe"
                 % (statistics.median(probes), len(probes), NOMINAL_S))
    units = {**END_TO_END_UNITS, **LATENCY_UNITS}
    for m, v in e2e.items():
        extra = "  (wall %.6f s)" % wall[m] if m in wall else ""
        lines.append("  %-32s %12.6f %s%s" % (m, v, units[m], extra))
    lines.append("  (%d setup samples; percentiles of %d per-request medians of %d latency "
                 "samples; pass totals %s s wall)"
                 % (len(setups), len(scaled), samples,
                    ", ".join("%.3f" % sum(request_medians([p.latencies])) for p in plain)))
    lines.append("  %-32s %12.6f ratio  (%d failed of %d attempted)"
                 % ("error_rate", len(failures) / attempted, len(failures), attempted))
    for k, why in failures[:20]:
        lines.append("  FAILED %s: %s" % (k, why))

    metrics = {m: {"value": e2e[m], "unit": u} for m, u in END_TO_END_UNITS.items()}
    if trace:
        per_pass = [layer_metrics(p) for p in traced]
        layers = {m: statistics.median(d[m] for d in per_pass) for m in per_pass[0]}
        traced_total = sum(request_medians([p.scaled() for p in traced]))
        layers["trace_overhead_ratio"] = traced_total / e2e["total_s"] - 1.0
        layers["machine.probe_s"] = statistics.median(probes)
        layers.update((m, e2e[m]) for m in LATENCY_UNITS)
        for m, v in layers.items():
            lines.append("  %-32s %16.6f %s" % (m, v, LAYER_UNITS[m]))
        metrics = {m: {"value": v, "unit": LAYER_UNITS[m]} for m, v in layers.items()}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    return {"result": result, "lines": lines}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="one of %s, or several comma separated" % ", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error("unknown workload %s" % ", ".join(unknown))
    if not (ROOT / "src" / "coxbasis" / "cli.py").is_file():
        sys.stderr.write("perfbench: no coxbasis sources under %s\n" % (ROOT / "src"))
        return 2
    try:
        golden = load_golden()
        info = machine_info()
        print("machine: python %(python)s (%(implementation)s), nproc %(nproc)d, "
              "%(cpu)s, %(machine)s" % info)
        # compile the package's bytecode before timing
        extra_setups(COLD, None, 1, time.monotonic() + RUN_LIMIT_S)
        outcome = None
        for name in names:
            outcome = run_workload(name, args.seed, args.seconds, bool(args.trace), golden)
            print("\n".join(outcome["lines"]), flush=True)
    except (OSError, ValueError, SetupError) as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 2
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
