"""Command line interface.

Three subcommands:

  info TYPE           structural facts about one group and its arrangement
  basis               build and certify a basis for a shifted multiplicity
  verify              run seeded exact property suites

Exit codes: 0 success, 1 verification or structural failure or invalid
arguments, 2 a proposed base is not a basis, 3 a certificate failed on a
constructed basis or a group's coset chain or root orbit did not match its
type (internal alarms), 4 unsupported input or an exceeded budget.

Each subcommand's grammar is one table, ``_COMMANDS``, and argparse's
parser is built from it.  A command line whose every token the table reads
exactly is read in one pass, without argparse; the parser is built, once
per process, only for a line the table declines (help, an abbreviated
flag, ``--opt=value`` or a usage error), so those stay argparse's own.
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


class _Option:
    """One entry of a subcommand's grammar: an option (``flag`` set) or a
    positional (``flag`` None), with the keywords ``add_argument`` takes.
    ``convert`` is argparse's ``type`` (None keeps the text); a ``switch``
    takes no value and stores True; a positional that is not ``required``
    may be left out."""

    __slots__ = ("flag", "dest", "convert", "choices", "default", "help", "required", "switch")

    def __init__(self, flag: str | None, dest: str, convert=None, *, choices=None,
                 default=None, help: str | None = None, required: bool = False,
                 switch: bool = False) -> None:
        self.flag = flag
        self.dest = dest
        self.convert = convert
        self.choices = choices
        self.default = False if switch else default
        self.help = help
        self.required = required
        self.switch = switch

    def value(self, text: str):
        """What argparse stores for ``text``, or None where it reports a usage
        error instead (no converter of the table returns None)."""
        try:
            value = text if self.convert is None else self.convert(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if self.choices is not None and value not in self.choices:
            return None
        return value


class _Command:
    """One subcommand's grammar: its positionals and options in the order
    the help lists them, the dests of which at most one may be given, and
    the function that serves it."""

    __slots__ = ("name", "help", "func", "positionals", "options", "exclusive", "flags",
                 "required", "fewest", "defaults")

    def __init__(self, name: str, help: str, func, options: tuple[_Option, ...],
                 positionals: tuple[_Option, ...] = (), exclusive: tuple[str, ...] = ()) -> None:
        self.name = name
        self.help = help
        self.func = func
        self.positionals = positionals
        self.options = options
        self.exclusive = frozenset(exclusive)
        self.flags = {option.flag: option for option in options}
        self.required = tuple(option.dest for option in options if option.required)
        self.fewest = sum(arg.required for arg in positionals)
        self.defaults = {arg.dest: arg.default for arg in positionals + options}


_COMMON = (
    _Option("--order-bound", "order_bound", int, default=DEFAULT_ORDER_BOUND,
            help="refuse groups larger than this order"),
    # kept so that existing command lines still parse; there is no cache on disk
    _Option("--cache-dir", "cache_dir", str, help="accepted and ignored"),
    _Option("--no-cache", "no_cache", switch=True, help="accepted and ignored"),
    _Option("--format", "format", choices=("text", "json"), help="output format"),
    _Option("--out", "out", str, help="write the report to this file instead of stdout"),
)

_TYPE = _Option("--type", "type", required=True)
_RANK = _Option("--rank", "rank", int)

_COMMANDS = {command.name: command for command in (
    _Command("info", "structural facts about one group", cmd_info, _COMMON, positionals=(
        _Option(None, "type", help="type label such as A2, B3, G2, I2(5), H3", required=True),
        _Option(None, "rank", int),
    )),
    _Command("basis", "build and certify a basis", cmd_basis, (
        _TYPE,
        _RANK,
        # None as --m's default, so that a given --m 0 also counts as given
        _Option("--m", "m", int, choices=(0, 1), help="constant base multiplicity (default 0)"),
        _Option("--mfile", "mfile", str,
                help="JSON file with per_orbit or per_hyperplane values"),
        _Option("--k", "k", _nonnegative, default=1, help="number of antiderivative steps"),
        _Option("--base", "base", choices=BASE_SOURCES, default="auto",
                help="where the base basis comes from"),
        _Option("--base-file", "base_file", str,
                help="JSON file with base members (or a previous report)"),
        _Option("--time-budget", "time_budget", _positive_seconds,
                help="soft wall clock budget in seconds"),
    ) + _COMMON, exclusive=("m", "mfile")),
    _Command("verify", "run exact property suites", cmd_verify, (
        _TYPE,
        _RANK,
        _Option("--suite", "suite", choices=("euler", "jacobian", "shift", "hodge", "all"),
                default="all"),
        _Option("--samples", "samples", _nonnegative, default=20),
        _Option("--seed", "seed", int, default=0),
        _Option("--k", "k", _nonnegative, default=1, help="shift for the hodge suite"),
        _Option("--degrees", "degrees", _nonnegative_list,
                help="comma separated source degrees for the hodge suite"),
    ) + _COMMON),
)}


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="coxbasis",
        description="exact bases for derivation modules of Coxeter arrangements")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS.values():
        p = sub.add_parser(command.name, help=command.help)
        for arg in command.positionals:
            p.add_argument(arg.dest, nargs=None if arg.required else "?", type=arg.convert,
                           default=arg.default, help=arg.help)
        group = None
        for option in command.options:
            target = p
            if option.dest in command.exclusive:
                group = group or p.add_mutually_exclusive_group()
                target = group
            if option.switch:
                target.add_argument(option.flag, dest=option.dest, action="store_true",
                                    help=option.help)
            else:
                target.add_argument(option.flag, dest=option.dest, type=option.convert,
                                    choices=option.choices, default=option.default,
                                    required=option.required, help=option.help)
        p.set_defaults(func=command.func)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process: it holds no per-request state, so it is
    built once, on the first command line the table declines, and reused."""
    return build_parser()


def _read_exact(argv: list[str]) -> argparse.Namespace | None:
    """The namespace ``build_parser().parse_args(argv)`` returns, read in one
    pass, or None where the table declines the command line.

    It reads a subcommand, then exact flags of its table, each switch alone
    and every other flag with the next token as its value, and ``info``'s
    positionals in one run.  It declines ``-h``, an unknown or abbreviated
    flag, ``--opt=value``, a missing value or one that starts with ``-``, a
    value that the converter or the choices refuse, a missing required
    argument, two of an exclusive set and positionals split by an option;
    argparse then reads the line, so help, usage errors and their exit codes
    are argparse's own."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    values = {}
    texts = []
    after_positionals = False
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            if after_positionals:
                return None
            texts.append(token)
            continue
        after_positionals = bool(texts)
        option = command.flags.get(token)
        if option is None:
            return None
        if option.switch:
            values[option.dest] = True
            continue
        text = next(tokens, "-")
        if text[:1] == "-" or (value := option.value(text)) is None:
            return None
        values[option.dest] = value
    if not command.fewest <= len(texts) <= len(command.positionals):
        return None
    for arg, text in zip(command.positionals, texts):
        if (value := arg.value(text)) is None:
            return None
        values[arg.dest] = value
    if any(dest not in values for dest in command.required):
        return None
    if len(command.exclusive & values.keys()) > 1:
        return None
    namespace = argparse.Namespace(command=command.name, func=command.func)
    vars(namespace).update(command.defaults, **values)
    return namespace


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_exact(argv)
    if args is None:
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
