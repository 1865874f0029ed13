"""Spans and counters around the public names each coxbasis layer binds.

The benchmark does not change the package: it replaces, for the length of
one traced process, the module attributes that callers look up at call
time (``coxbasis.cli.build_group``, ``coxbasis.basis.ziegler_certify``,
``Poly.__mul__``, ...) with wrappers that record a span per call, and puts
the originals back afterwards.

A span is ``[name, start, end, parent, request]`` with ``perf_counter``
times, ``parent`` the index of the enclosing recorded span (-1 for a
request root) and ``request`` the request id.  A call made while a span of
the same name is open is counted but gets no span of its own, so nested
calls of one name are timed once.  Spans and counters stay in memory until
``to_json``.

Self time of a span is its duration minus the durations of its direct
children; the calls are synchronous, so the children never overlap.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager

SCHEMA = "perfbench/trace/1"
ROOT_SPAN = "cli.main"

# (span name, module, attribute): every binding a caller looks a layer up by
TARGETS = (
    ("coxeter.build_group", "coxbasis.cli", "build_group"),
    ("invariants.compute", "coxbasis.cli", "compute_invariants"),
    ("coxeter.reynolds", "coxbasis.invariants", "reynolds"),
    ("basis.build", "coxbasis.cli", "build_basis"),
    ("basis.base", "coxbasis.basis", "base_basis"),
    ("connection.universal", "coxbasis.basis", "universal_field"),
    ("basis.members", "coxbasis.basis", "nabla"),
    ("certify.ziegler", "coxbasis.basis", "ziegler_certify"),
    ("certify.graded_member_basis", "coxbasis.basis", "graded_member_basis"),
    ("certify.graded_member_basis", "coxbasis.certify", "graded_member_basis"),
    ("certify.contact_order", "coxbasis.certify", "contact_order"),
    ("certify.contact_order", "coxbasis.verify", "contact_order"),
    ("connection.inverse", "coxbasis.connection", "nabla_D_inverse"),
    ("connection.inverse", "coxbasis.verify", "nabla_D_inverse"),
    ("connection.nabla_D", "coxbasis.connection", "nabla_D"),
    ("connection.nabla_D", "coxbasis.verify", "nabla_D"),
    ("linalg.rref", "coxbasis.basis", "rref"),
    ("linalg.rref", "coxbasis.linalg", "rref"),
    ("linalg.det", "coxbasis.linalg.PolyMatrix", "det"),
    ("poly.mul", "coxbasis.poly.Poly", "__mul__"),
    ("poly.divrem", "coxbasis.poly.Poly", "divrem"),
    ("poly.substitute", "coxbasis.poly.Poly", "substitute"),
    ("report.basis", "coxbasis.cli", "basis_report"),
    ("report.dump", "coxbasis.cli", "dump_report"),
    ("verify.suite", "coxbasis.verify", "euler_suite"),
    ("verify.suite", "coxbasis.verify", "shift_suite"),
    ("verify.suite", "coxbasis.verify", "jacobian_suite"),
    ("verify.suite", "coxbasis.verify", "hodge_suite"),
)


def _resolve(path: str):
    """A module, or a class inside one, from its dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls)


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._open: list[int] = []
        self._depth: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []
        self._request = -1

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        from coxbasis.poly import Poly
        from coxbasis.scalars import Quad

        def mul_sizes(counters, args):
            a, b = args[0], args[1]
            if isinstance(b, Poly):
                counters["poly.mul_term_pairs"] += len(a.terms) * len(b.terms)
                coeffs = (*a.terms.values(), *b.terms.values())
            else:
                coeffs = (*a.terms.values(), b)
            if any(type(c) is Quad for c in coeffs):
                counters["poly.mul_quad"] += 1

        def rref_cells(counters, args):
            rows = args[0]
            if rows:
                counters["linalg.rref_cells"] += len(rows) * len(rows[0])

        extra = {"poly.mul": mul_sizes, "linalg.rref": rref_cells}
        for name, path, attr in TARGETS:
            owner = _resolve(path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, extra.get(name)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn, extra):
        calls = name + ".calls"
        counters = self.counters
        depth = self._depth
        spans = self.spans
        stack = self._open
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            counters[calls] += 1
            if extra is not None:
                extra(counters, args)
            if depth[name]:
                return fn(*args, **kwargs)
            depth[name] = 1
            record = [name, clock(), 0.0, stack[-1] if stack else -1, tracer._request]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                depth[name] = 0

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    @contextmanager
    def request(self, request_id: int):
        """Open the root span of one request."""
        self._request = request_id
        record = [ROOT_SPAN, time.perf_counter(), 0.0, -1, request_id]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()
            self._request = -1

    def to_json(self) -> dict:
        return {"schema": SCHEMA, "spans": self.spans, "counters": dict(self.counters)}


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def cache_hits(spans: list[list]) -> tuple[int, int]:
    """(hits, calls) of invariants.compute: a hit runs no Reynolds average."""
    computes = {i for i, s in enumerate(spans) if s[0] == "invariants.compute"}
    missed = set()
    for s in spans:
        if s[0] == "coxeter.reynolds":
            parent = s[3]
            while parent >= 0 and parent not in computes:
                parent = spans[parent][3]
            if parent >= 0:
                missed.add(parent)
    return len(computes) - len(missed), len(computes)
