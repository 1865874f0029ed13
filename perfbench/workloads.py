"""The benchmark's workloads: fixed coxbasis request lists and why each exists.

A request is the argument list a user would give ``coxbasis``, without the
cache options; the runner appends ``--no-cache`` on the cold workloads and
``--cache-dir DIR`` on ``sweep-warm``.  Its key (the arguments joined by
spaces) names it in the golden digests and in the printed timings.
"""

from __future__ import annotations

import random

COLD = "cold"
WARM = "warm"


def basis(label: str, m: int, k: int) -> list[str]:
    return ["basis", "--type", label, "--m", str(m), "--k", str(k)]


def key(argv: list[str]) -> str:
    return " ".join(argv)


RANK4 = [basis("A4", 1, 1), basis("D4", 1, 1), basis("B4", 1, 1), basis("B4", 0, 1)]
IRRATIONAL = [basis("H3", 1, 1), basis("I2(5)", 1, 5), basis("I2(8)", 0, 4)]
DEEP_SHIFT = [basis("A3", 1, 4), basis("B3", 0, 3), basis("B3", 1, 3), basis("G2", 1, 5)]

SWEEP_TYPES = ["A1", "A2", "A3", "B2", "B3", "G2",
               "I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(8)"]
TWO_ORBIT_TYPES = ["B2", "B3", "G2", "I2(4)", "I2(6)", "I2(8)"]
MFILES = ["perfbench/mfiles/per_orbit_01.json", "perfbench/mfiles/per_orbit_10.json"]
VERIFY_TYPES = ["A2", "A3", "B2", "B3", "G2", "I2(5)", "I2(8)"]
# the shift suite's cost depends on the degree its seed draws; on the rank-2
# types every draw is cheap, so the seed barely moves the sweep's figures
SHIFT_TYPES = ["A2", "B2", "G2"]


def sweep_requests(seed: int) -> list[list[str]]:
    """103 small requests in a seeded order.

    The seed also becomes the ``--seed`` of the seeded verify suites, whose
    sample counts are small so that the seed moves little of the total.
    """
    reqs = [["info", label, "--format", "json"] for label in SWEEP_TYPES]
    reqs += [basis(label, m, k) for label in SWEEP_TYPES for m in (0, 1) for k in (1, 2)]
    reqs += [["basis", "--type", label, "--mfile", path, "--k", str(k)]
             for label in TWO_ORBIT_TYPES for path in MFILES for k in (0, 1)]
    for label in VERIFY_TYPES:
        reqs.append(["verify", "--type", label, "--suite", "euler", "--samples", "6",
                     "--seed", str(seed), "--format", "json"])
        reqs.append(["verify", "--type", label, "--suite", "jacobian", "--format", "json"])
        reqs.append(["verify", "--type", label, "--suite", "hodge", "--format", "json"])
    for label in SHIFT_TYPES:
        reqs.append(["verify", "--type", label, "--suite", "shift", "--samples", "2",
                     "--seed", str(seed), "--format", "json"])
    random.Random(seed).shuffle(reqs)
    return reqs


WORKLOADS = {
    "rank4-cold": {
        "mode": COLD,
        "requests": lambda seed: RANK4,
        "why": "A first-time user on rank-4 rational groups: fresh interpreter and no cache "
               "per request, so certify, Reynolds and group enumeration dominate.",
    },
    "irrational-cold": {
        "mode": COLD,
        "requests": lambda seed: IRRATIONAL,
        "why": "The only Q(sqrt5)/Q(sqrt2) workload, the Quad scalar path, including the "
               "marquee H3 m=1 k=1; fresh interpreter, no cache.",
    },
    "deep-shift-cold": {
        "mode": COLD,
        "requests": lambda seed: DEEP_SHIFT,
        "why": "High shifts on small rational groups: the universal field (nabla_D_inverse "
               "and its dense solve) dominates; fresh interpreter, no cache.",
    },
    "sweep-warm": {
        "mode": WARM,
        "requests": sweep_requests,
        "types": SWEEP_TYPES,
        "why": "About 100 small info/basis/oracle/verify requests in one process on a warm "
               "invariant cache: per-request fixed costs, never Reynolds.",
    },
}
