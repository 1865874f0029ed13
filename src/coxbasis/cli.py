"""Command line interface.

Three subcommands:

  info TYPE           structural facts about one group and its arrangement
  basis               build and certify a basis for a shifted multiplicity
  verify              run seeded exact property suites

Exit codes: 0 success, 1 verification or structural failure or invalid
arguments, 2 a proposed base is not a basis, 3 a certificate failed on a
constructed basis or a group's coset chain or root orbit did not match its
type (internal alarms), 4 unsupported input or an exceeded budget.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

from .basis import BASE_SOURCES, BasisRequest, build_basis
from .coxeter import (DEFAULT_ORDER_BOUND, Multiplicity, build_group, parse_type)
from .errors import (BudgetExceeded, CertificateFailed, CoxBasisError, DegreeOverflow,
                     GroupClosureFailed, NoSolution, NonUniqueSolution, NotABasis,
                     OrderBoundExceeded, UnsupportedType)
from .invariants import compute_invariants, invariant_field_degrees
from .report import (SCHEMA_VERIFY, basis_report, derivation_from_json, dump_report,
                     group_to_json, multiplicity_from_json)
from .scalars import format_scalar
from . import verify as suites

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_NOT_A_BASIS = 2
EXIT_CERTIFICATE = 3
EXIT_UNSUPPORTED = 4


class _Budget:
    """Soft wall-clock budget checked between pipeline stages."""

    def __init__(self, seconds: float | None) -> None:
        self.seconds = seconds
        self.start = time.monotonic()

    def check(self, stage: str) -> None:
        if self.seconds is not None and time.monotonic() - self.start > self.seconds:
            raise BudgetExceeded("time budget of %rs exceeded after %s"
                                 % (self.seconds, stage))


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--order-bound", type=int, default=DEFAULT_ORDER_BOUND,
                        help="refuse groups larger than this order")
    # kept so that existing command lines still parse; there is no cache on disk
    parser.add_argument("--cache-dir", type=str, default=None,
                        help="accepted and ignored")
    parser.add_argument("--no-cache", action="store_true",
                        help="accepted and ignored")
    parser.add_argument("--format", choices=("text", "json"), default=None,
                        help="output format")
    parser.add_argument("--out", type=str, default=None,
                        help="write the report to this file instead of stdout")


def _emit(text: str, args: argparse.Namespace) -> None:
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_info(args: argparse.Namespace) -> int:
    datum = parse_type(args.type, args.rank, order_bound=args.order_bound)
    group, arrangement = build_group(datum, order_bound=args.order_bound)
    system = compute_invariants(group, arrangement)

    problems = []
    if len(datum.degrees) > 1 and datum.degrees[-2] >= datum.coxeter_number:
        problems.append("second-highest degree is not below the Coxeter number")

    info = group_to_json(arrangement)
    info["invariant_degrees"] = list(system.degrees)
    info["jacobian_scalar"] = format_scalar(system.jacobian_scalar)
    info["invariants_fingerprint"] = system.fingerprint()
    info["problems"] = problems

    if (args.format or "text") == "json":
        _emit(dump_report(info), args)
    else:
        lines = [
            "type            %s over %s" % (datum.label, datum.field_label),
            "group order     %d" % datum.group_order(),
            "hyperplanes     %d" % len(arrangement),
            "coxeter number  %d" % datum.coxeter_number,
            "degrees         %s" % (list(datum.degrees),),
            "exponents       %s" % (list(datum.exponents),),
            "orbit sizes     %s" % ([len(o) for o in arrangement.orbits()],),
            "jacobian        %s * defining polynomial" % format_scalar(system.jacobian_scalar),
        ]
        for p in problems:
            lines.append("PROBLEM: %s" % p)
        _emit("\n".join(lines) + "\n", args)
    return EXIT_FAIL if problems else EXIT_OK


def _read_json(path: str):
    """The JSON value a file holds; any text that does not decode, nesting
    too deep for the decoder included, raises ValueError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValueError("%s is not readable JSON: %s" % (path, exc)) from None


def _load_multiplicity(args: argparse.Namespace, arrangement) -> Multiplicity:
    if args.mfile is not None:
        return multiplicity_from_json(_read_json(args.mfile), arrangement)
    return Multiplicity.constant(arrangement, args.m or 0)


def _load_user_base(path: str, nvars: int):
    data = _read_json(path)
    if isinstance(data, dict) and "base" in data:
        data = data["base"]
    if isinstance(data, dict) and "members" in data:
        data = data["members"]
    if not isinstance(data, list):
        raise ValueError("base file must hold a member list or a basis report")
    members = []
    for i, d in enumerate(data):
        try:
            members.append(derivation_from_json(d, nvars))
        except ValueError as exc:
            raise ValueError("base member %d: %s" % (i, exc)) from exc
    return members


def cmd_basis(args: argparse.Namespace) -> int:
    if args.base != "auto" and (args.base == "user") != (args.base_file is not None):
        raise ValueError("--base user needs --base-file" if args.base == "user" else
                         "--base %s conflicts with --base-file, which gives the base" % args.base)
    budget = _Budget(args.time_budget)
    datum = parse_type(args.type, args.rank, order_bound=args.order_bound)
    group, arrangement = build_group(datum, order_bound=args.order_bound)
    budget.check("group construction")
    system = compute_invariants(group, arrangement)
    budget.check("invariants")

    multiplicity = _load_multiplicity(args, arrangement)
    user_base = None
    source = args.base
    if args.base_file is not None:
        user_base = _load_user_base(args.base_file, datum.rank)
        source = "user"
    request = BasisRequest(system, multiplicity, args.k, base_source=source,
                           user_base=user_base)
    result = build_basis(request)
    budget.check("basis construction")

    if (args.format or "json") == "json":
        _emit(dump_report(basis_report(result)), args)
    else:
        cert = result.certificate
        lines = [
            "type            %s" % datum.label,
            "multiplicity    %s (+2k with k=%d)" % (list(multiplicity.values), args.k),
            "base source     %s" % result.base_source,
            "member degrees  %s" % (list(cert.member_degrees),),
            "degree sum      %d (multiplicity sum %d)" % (sum(cert.member_degrees),
                                                           cert.multiplicity.total()),
            "verdict         %s" % cert.verdict,
        ]
        _emit("\n".join(lines) + "\n", args)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    datum = parse_type(args.type, args.rank, order_bound=args.order_bound)
    group, arrangement = build_group(datum, order_bound=args.order_bound)
    system = compute_invariants(group, arrangement)

    names = ("euler", "jacobian", "shift", "hodge") if args.suite == "all" else (args.suite,)
    reports = []
    for name in names:
        if name == "euler":
            reports.append(suites.euler_suite(system, args.samples, args.seed))
        elif name == "jacobian":
            reports.append(suites.jacobian_suite(system))
        elif name == "shift":
            reports.append(suites.shift_suite(system, args.samples, args.seed))
        elif name == "hodge":
            degrees = args.degrees or invariant_field_degrees(system)[:2]
            reports.append(suites.hodge_suite(system, args.k, degrees))
    all_passed = all(r["passed"] for r in reports)

    if (args.format or "text") == "json":
        _emit(dump_report({"schema": SCHEMA_VERIFY, "type": datum.label,
                           "suites": reports, "passed": all_passed}), args)
    else:
        lines = []
        for r in reports:
            status = "pass" if r["passed"] else "FAIL"
            extra = ""
            if "samples" in r:
                extra = " (%d samples)" % r["samples"]
            if "orders_checked" in r:
                extra = " (%d samples, %d orders)" % (r["samples"], r["orders_checked"])
            lines.append("%-9s %s%s" % (r["suite"], status, extra))
            for f in r["failures"]:
                lines.append("  failure: %s" % json.dumps(f, sort_keys=True, default=str))
        _emit("\n".join(lines) + "\n", args)
    return EXIT_OK if all_passed else EXIT_FAIL


class _ArgumentParser(argparse.ArgumentParser):
    """Exits 1 on a usage error; argparse's own 2 means "not a basis" here."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_FAIL, "%s: error: %s\n" % (self.prog, message))


def _nonnegative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError("expected a nonnegative integer, got %r" % text)
    return value


def _positive_seconds(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (0 < value < math.inf):
        raise argparse.ArgumentTypeError("expected a finite positive number of seconds, got %r"
                                         % text)
    return value


def _nonnegative_list(text: str) -> list[int]:
    return [_nonnegative(v) for v in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="coxbasis",
        description="exact bases for derivation modules of Coxeter arrangements")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="structural facts about one group")
    p_info.add_argument("type", help="type label such as A2, B3, G2, I2(5), H3")
    p_info.add_argument("rank", nargs="?", type=int, default=None)
    _add_common(p_info)
    p_info.set_defaults(func=cmd_info)

    p_basis = sub.add_parser("basis", help="build and certify a basis")
    p_basis.add_argument("--type", required=True)
    p_basis.add_argument("--rank", type=int, default=None)
    # None as --m's default, so that a given --m 0 also counts as given
    multiplicity = p_basis.add_mutually_exclusive_group()
    multiplicity.add_argument("--m", type=int, default=None, choices=(0, 1),
                              help="constant base multiplicity (default 0)")
    multiplicity.add_argument("--mfile", type=str, default=None,
                              help="JSON file with per_orbit or per_hyperplane values")
    p_basis.add_argument("--k", type=_nonnegative, default=1,
                         help="number of antiderivative steps")
    p_basis.add_argument("--base", choices=BASE_SOURCES, default="auto",
                         help="where the base basis comes from")
    p_basis.add_argument("--base-file", type=str, default=None,
                         help="JSON file with base members (or a previous report)")
    p_basis.add_argument("--time-budget", type=_positive_seconds, default=None,
                         help="soft wall clock budget in seconds")
    _add_common(p_basis)
    p_basis.set_defaults(func=cmd_basis)

    p_verify = sub.add_parser("verify", help="run exact property suites")
    p_verify.add_argument("--type", required=True)
    p_verify.add_argument("--rank", type=int, default=None)
    p_verify.add_argument("--suite", choices=("euler", "jacobian", "shift", "hodge", "all"),
                          default="all")
    p_verify.add_argument("--samples", type=_nonnegative, default=20)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--k", type=_nonnegative, default=1,
                          help="shift for the hodge suite")
    p_verify.add_argument("--degrees", type=_nonnegative_list, default=None,
                          help="comma separated source degrees for the hodge suite")
    _add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process: it holds no per-request state, so it is
    built once and reused by every call of ``main``."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except NotABasis as exc:
        sys.stderr.write("not a basis: %s\n" % exc)
        return EXIT_NOT_A_BASIS
    except (CertificateFailed, NonUniqueSolution, NoSolution) as exc:
        sys.stderr.write("certificate failure: %s\n" % exc)
        return EXIT_CERTIFICATE
    except GroupClosureFailed as exc:
        sys.stderr.write("group construction failure: %s\n" % exc)
        return EXIT_CERTIFICATE
    except (UnsupportedType, OrderBoundExceeded, BudgetExceeded, DegreeOverflow) as exc:
        sys.stderr.write("unsupported or over budget: %s\n" % exc)
        return EXIT_UNSUPPORTED
    except CoxBasisError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_FAIL
    except (OSError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
