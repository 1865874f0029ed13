"""The one-pass command line reader against argparse, on drawn command lines.

They need hypothesis and are skipped without it.  A command line is drawn
from the option table's grammar (subcommands, exact flags, values that the
converters and choices take or refuse, ``info``'s positionals) and from its
near misses: abbreviated flags, ``--opt=value``, repeated options, negative
values, positionals on both sides of an option, ``--m`` beside ``--mfile``,
``-h`` and unknown tokens.  Whenever the reader returns a namespace,
``build_parser().parse_args`` must return an equal one; whenever argparse
exits, the reader must have declined.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from coxbasis import cli
from coxbasis.cli import build_parser

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

PARSER = build_parser()
COMMANDS = list(cli._COMMANDS.values())
FLAGS = sorted({option.flag for command in COMMANDS for option in command.options})
VALUES = ["0", "1", "2", "20", "01", "-1", "-2", "-0.5", "x", "", "3.5", "nan", "inf", "1e3",
          "1,2", "1,-2", "A2", "B3", "I2(5)", "text", "json", "auto", "oracle", "user", "euler",
          "hodge", "all", "a=b", "a b", "-", "--", "-h", "--format", "--m"]
WORDS = ["A2", "B3", "I2(5)", "2", "3", "-3", "x", "", "--", "-", "-h", "--help", "-x",
         "--bogus", "--format=json", "--m=1", "info", "basis"]


def _piece(flag: str) -> st.SearchStrategy[list[str]]:
    value = st.sampled_from(VALUES)
    return st.one_of(
        value.map(lambda v: [flag, v]),
        st.just([flag]),
        st.integers(3, max(3, len(flag) - 1)).flatmap(
            lambda n: value.map(lambda v: [flag[:n], v])),
        value.map(lambda v: ["%s=%s" % (flag, v)]),
    )


FLAG_PIECES = st.one_of(*(_piece(flag) for flag in FLAGS))
PIECES = st.one_of(FLAG_PIECES, FLAG_PIECES, st.sampled_from(WORDS).map(lambda w: [w]))
COMMAND = st.sampled_from([c.name for c in COMMANDS] + ["-h", "--help", "bas", "", "x"])


@st.composite
def command_lines(draw) -> list[str]:
    pieces = draw(st.lists(PIECES, max_size=8))
    argv = [draw(COMMAND)] + [token for piece in pieces for token in piece]
    return argv[:draw(st.integers(0, len(argv)))] if draw(st.booleans()) else argv


GOOD = {int: ["0", "1", "7"], cli._nonnegative: ["0", "2"], cli._positive_seconds: ["0.5"],
        cli._nonnegative_list: ["1", "2,3"]}


@st.composite
def grammar_command_lines(draw) -> list[str]:
    """Lines of the table's grammar, mostly with values each converter and
    choice list takes, and with a required ``--type`` mostly given."""
    command = draw(st.sampled_from(COMMANDS))
    options = list(command.options)
    required = [option for option in options if option.required]
    argv = [command.name]
    for option in required * draw(st.sampled_from([0, 1, 1, 1])) + draw(
            st.lists(st.sampled_from(options), max_size=6)):
        argv.append(option.flag)
        if not option.switch:
            good = [str(c) for c in option.choices or GOOD.get(option.convert, ["A2", "out"])]
            argv.append(draw(st.sampled_from(good) | st.sampled_from(good) |
                             st.sampled_from(VALUES)))
    if command.positionals:
        words = draw(st.sampled_from([["A2"], ["I2", "5"], ["A3", "x"], []]))
        for word in words:
            at = draw(st.integers(1, len(argv)))
            argv.insert(at, word)
    return argv


def _argparse(argv: list[str]):
    """argparse's namespace for ``argv``, or None where it exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return PARSER.parse_args(argv)
        except SystemExit:
            return None


def _agree(argv: list[str]) -> None:
    read = cli._read_exact(argv)
    parsed = _argparse(argv)
    if read is not None:
        assert parsed == read, argv
    if parsed is None:
        assert read is None, argv


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_reader_agrees_with_argparse_on_near_misses(argv):
    _agree(argv)


@settings(max_examples=400, deadline=None)
@given(grammar_command_lines())
def test_reader_agrees_with_argparse_on_the_grammar(argv):
    _agree(argv)


@pytest.mark.parametrize("argv", [
    ["basis", "--type", "A2", "--m", "0", "--mfile", "x"],
    ["basis", "--type", "A2", "--m", "1", "--m", "0"],
    ["basis", "--m", "1"],
    ["basis", "--type", "A2", "--form", "text"],
    ["basis", "--type=A2"],
    ["basis", "--type", "A2", "-h"],
    ["basis", "--type", "A2", "--k"],
    ["basis", "--type", "A2", "--k", "-1"],
    ["basis", "--type", "A2", "--out", "--format", "json"],
    ["info", "A2", "--out", "-h"],
    ["verify", "--type", "A2", "--seed", "-3"],
    ["verify", "--type", "A2", "--suite", "al"],
    ["info", "A2", "--format", "json", "3"],
    ["info", "--format", "json", "A2", "3"],
    ["info", "A2", "3", "4"],
    ["info"],
    ["info", "A2", "--no-cache", "--no-cache"],
])
def test_reader_agrees_with_argparse(argv):
    _agree(argv)
