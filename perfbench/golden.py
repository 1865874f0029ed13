"""Write ``golden.json``: the sha256 of every basis report the workloads request.

Run from the root of a checkout whose reports are known good:

    python3 perfbench/golden.py

Each basis request is served once the way its workload serves it (fresh
interpreter and no cache on the cold workloads, a warm cache on
``sweep-warm``) and must come back ``Free-with-basis``.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

from run import GOLDEN, RUN_LIMIT_S, VERDICT_FREE, WORKDIR, serve, serve_warm
from workloads import COLD, WORKLOADS, key


def main() -> int:
    digests: dict[str, str] = {}
    try:
        for spec in WORKLOADS.values():
            requests = [r for r in spec["requests"](0) if r[0] == "basis"]
            if spec["mode"] == COLD:
                results = [serve([argv], ["--no-cache"], False,
                                 time.monotonic() + RUN_LIMIT_S)[2] for argv in requests]
                records = [r["requests"][0] if r else None for r in results]
            else:
                result = serve_warm(requests, spec["types"], False,
                                    time.monotonic() + RUN_LIMIT_S)[2]
                records = result["requests"] if result else [None] * len(requests)
            for argv, rec in zip(requests, records):
                if rec is None or rec["rc"] != 0 or rec.get("verdict") != VERDICT_FREE:
                    sys.stderr.write("golden: %s did not give a free basis\n" % key(argv))
                    return 1
                digests[key(argv)] = rec["sha256"]
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"schema": "perfbench/golden/1", "digests": digests}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %d digests to %s" % (len(digests), GOLDEN))
    return 0


if __name__ == "__main__":
    sys.exit(main())
