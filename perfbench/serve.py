"""Serve a list of coxbasis requests in one fresh interpreter.

Reads one JSON object from stdin::

    {"requests": [{"id": 0, "argv": ["basis", "--type", "A2", ...]}, ...],
     "trace": false,
     "fill_cache": {"dir": "...", "types": ["A2", ...]} or null}

imports ``coxbasis.cli``, fills the invariant cache for the listed types if
asked, notes the monotonic time at which the first request can be issued,
then runs each request through ``coxbasis.cli.main`` with its standard
output captured. The speed probe of ``probe.py`` runs three times before
the first request, after a request whenever a quarter second of requests
has passed since the last probe, and three times after the last request.
With ``"trace": true`` the wrappers of ``tracer`` are installed around
the requests and removed afterwards.

Writes one JSON line to stdout: the ready time, one record per request
(exit code, exception, start and end times, sha256 and size of the output,
and the verdict or ``passed`` flag found in it), the probe times, the
trace, and the process's peak resident set.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import time
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import coxbasis.cli as cli  # noqa: E402
from probe import probe  # noqa: E402

PROBES_AROUND = 3
PROBE_INTERVAL_S = 0.25


def fill_cache(cache_dir: str, types: list[str]) -> None:
    from coxbasis.coxeter import build_group, parse_type
    from coxbasis.invariants import compute_invariants

    for label in types:
        group, arrangement = build_group(parse_type(label))
        compute_invariants(group, arrangement, cache_dir=cache_dir)


def run_request(argv: list[str], span=nullcontext()) -> dict:
    """Run one request through ``cli.main``; ``span`` is entered around the call."""
    buf = io.StringIO()
    rc = None
    raised = None
    t0 = time.perf_counter()
    try:
        with redirect_stdout(buf), span:
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed request, not the end of the run
        raised = "%s: %s" % (type(exc).__name__, exc)
    t1 = time.perf_counter()
    data = buf.getvalue().encode("utf-8")
    out = {"rc": rc, "raised": raised, "t0": t0, "t1": t1,
           "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    try:
        doc = json.loads(data)
    except ValueError:
        doc = None
    if isinstance(doc, dict):
        if isinstance(doc.get("certificate"), dict):
            out["verdict"] = doc["certificate"].get("verdict")
        if "passed" in doc:
            out["passed"] = doc["passed"]
    return out


def main() -> int:
    job = json.load(sys.stdin)
    if job.get("fill_cache"):
        fill_cache(job["fill_cache"]["dir"], job["fill_cache"]["types"])
    ready = time.monotonic()
    probes = [probe() for _ in range(PROBES_AROUND)]
    since_probe = 0.0
    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    records = []
    try:
        for req in job["requests"]:
            if tracer is None:
                rec = run_request(req["argv"])
            else:
                rec = run_request(req["argv"], tracer.request(req["id"]))
            rec["id"] = req["id"]
            records.append(rec)
            since_probe += rec["t1"] - rec["t0"]
            if since_probe >= PROBE_INTERVAL_S:
                probes.append(probe())
                since_probe = 0.0
    finally:
        if tracer is not None:
            tracer.restore()
    probes += [probe() for _ in range(PROBES_AROUND)]
    result = {"ready": ready, "requests": records, "probes": probes,
              "trace": tracer.to_json() if tracer is not None else None,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
