"""Every outside input ends in a documented exit code, never a traceback.

Hypothesis draws malformed and boundary values for each channel the command
line reads: the type label and rank, the values of ``--m``, ``--k``,
``--samples``, ``--degrees``, ``--seed``, ``--time-budget`` and
``--order-bound``, and the JSON of ``--mfile`` and ``--base-file``.  Each
drawn request runs ``cli.main`` in-process and must return an exit code in
0-4 or leave through the parser's ``SystemExit(1)``; any other exception
fails the test.  ``--time-budget`` is checked only between stages, so a
drawn request that would be valid is kept cheap: its type is A1, A2, B2,
G2 or I2(5) and its shift k is at most 1.  After the draws, a valid
request still writes what it wrote before them.

They need hypothesis and are skipped without it, as the property tests are.
"""

from __future__ import annotations

import json

import pytest

from coxbasis import cli
from coxbasis.coxeter import DEFAULT_ORDER_BOUND, parse_type
from coxbasis.errors import CoxBasisError

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, example, settings = hypothesis.given, hypothesis.example, hypothesis.settings

SETTINGS = settings(max_examples=60, deadline=None)

CHEAP = ("A1", "A2", "B2", "G2", "I2(5)")
# argv is decoded text, so no lone surrogates
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=10)
HUGE = 10 ** 40
SCALARS = ("1", "-2/3", "0", "1/0", "sqrt(4)", "sqrt(8)", "1+sqrt(5)", "1/2-3*sqrt(5)",
           "sqrt(2)", "1e999999999", "0.5", "x", "", "1" * 5000)


def settles(argv: list[str]) -> None:
    """Run one request; it must end in a documented exit code."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # the parser's own exit on a usage error
        assert exc.code == cli.EXIT_FAIL, argv
        return
    assert code in range(5), (argv, code)


def output(argv: list[str], capsys) -> tuple[int, str]:
    code = cli.main(argv)
    return code, capsys.readouterr().out


def as_int(text: str) -> int | None:
    """What argparse's ``type=int`` makes of the text, None for a refusal."""
    try:
        return int(text)
    except ValueError:
        return None


def cheap_or_refused(label: str, rank: str | None) -> bool:
    """Whether the command line refuses the type, or it is a cheap one."""
    if rank is not None and as_int(rank) is None:
        return True
    try:
        datum = parse_type(label, None if rank is None else int(rank),
                           order_bound=DEFAULT_ORDER_BOUND)
    except (CoxBasisError, ValueError):
        return True
    return datum.label in CHEAP


@st.composite
def type_labels(draw) -> str:
    kind = draw(st.integers(0, 3))
    if kind == 0:  # a cheap label in mixed case, with spaces
        chars = [c.lower() if draw(st.booleans()) else c for c in draw(st.sampled_from(CHEAP))]
        for i in sorted(draw(st.lists(st.integers(0, len(chars)), max_size=3)), reverse=True):
            chars.insert(i, " ")
        return "".join(chars)
    if kind == 1:  # a family with a boundary or huge rank
        rank = draw(st.integers(-2, 12) | st.integers(0, HUGE))
        return draw(st.sampled_from(["A%d", "b%d", "D%d", "I2(%d)", "i2 ( %d )"])) % rank
    if kind == 2:  # a family whose rank comes apart, or an unknown one
        return draw(st.sampled_from(["A", "B", "D", "I2", "G2", "H3", "E8", "F4", "", " "]))
    return draw(TEXT)


RANKS = st.none() | st.integers(-2, 12).map(str) | st.integers(0, HUGE).map(str) | TEXT


@pytest.mark.parametrize("command", ["info", "basis", "verify"])
def test_type_labels_and_ranks_end_in_an_exit_code(command, capsys):
    before = output(["info", "B2", "--format", "json"], capsys)

    @SETTINGS
    @given(label=type_labels(), rank=RANKS)
    @example(label="A" + "9" * 30, rank=None)
    @example(label="A", rank=str(HUGE))
    @example(label="I2", rank="9" * 5000)
    @example(label="a" + "1" * 5000, rank=None)
    @example(label=" g 2 ", rank="2")
    def check(label, rank):
        hypothesis.assume(cheap_or_refused(label, rank))
        if command == "info":
            argv = ["info", "--", label] + ([] if rank is None else [rank])
        else:
            argv = [command, "--type=" + label] + ([] if rank is None else ["--rank=" + rank])
            argv += ["--m", "1"] if command == "basis" else ["--suite", "euler", "--samples", "2"]
        settles(argv)
        capsys.readouterr()

    check()
    assert output(["info", "B2", "--format", "json"], capsys) == before


# per option: the commands that take it, and the cap that keeps a valid value cheap
OPTIONS = {
    "--m": (("basis",), None),
    "--k": (("basis", "verify"), 1),
    "--samples": (("verify",), 5),
    "--degrees": (("verify",), 8),
    "--seed": (("verify",), None),
    "--time-budget": (("basis",), None),
    "--order-bound": (("info", "basis", "verify"), None),
}
VALUES = (st.integers(-3, 12).map(str) | st.integers(-HUGE, HUGE).map(str) | TEXT
          | st.floats().map(repr) | st.lists(st.integers(-2, 12), max_size=4).map(
              lambda xs: ",".join(map(str, xs)))
          | st.sampled_from(["", " 1 ", "1,,2", "0x10", "1_0", "+1", "-0", "1e309", "nan",
                             "inf", "1e-300", "1" * 5000]))


def cheap_value(option: str, text: str) -> bool:
    """Whether a value the command line accepts stays under the option's cap."""
    cap = OPTIONS[option][1]
    if cap is None:
        return True
    values = [as_int(part) for part in (text.split(",") if option == "--degrees" else [text])]
    if any(v is None or v < 0 for v in values):
        return True  # refused by the parser
    return len(values) <= 3 and max(values) <= cap


@SETTINGS
@given(data=st.data(), label=st.sampled_from(CHEAP),
       command=st.sampled_from(["info", "basis", "verify"]))
def test_option_values_end_in_an_exit_code(data, label, command):
    argv = [command, label] if command == "info" else [command, "--type", label]
    for option, (commands, _) in OPTIONS.items():
        if command in commands and data.draw(st.booleans(), label=option):
            value = data.draw(VALUES.filter(lambda t, o=option: cheap_value(o, t)),
                              label=option + " value")
            argv.append("%s=%s" % (option, value))
    settles(argv)


MULTIPLICITY_KEYS = ("per_orbit", "per_hyperplane", "constant")
LEAVES = (st.none() | st.booleans() | st.integers(-2, 3) | st.integers(-HUGE, HUGE)
          | st.floats() | TEXT | st.sampled_from(SCALARS))
JSON = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
    st.sampled_from(MULTIPLICITY_KEYS + ("members", "base", "coefficients")) | TEXT,
    inner, max_size=3), max_leaves=12)
SMALL = st.integers(-1, 2) | st.booleans() | st.integers(-HUGE, HUGE) | st.floats()
MULTIPLICITIES = st.fixed_dictionaries({}, optional={
    key: st.lists(SMALL, max_size=8) | SMALL for key in MULTIPLICITY_KEYS})
TERMS = st.lists(st.tuples(st.lists(st.integers(0, 3) | SMALL, min_size=1, max_size=3),
                           st.sampled_from(SCALARS) | TEXT).map(list), max_size=3)
MEMBERS = st.lists(st.fixed_dictionaries({"coefficients": st.lists(TERMS, max_size=3)}),
                   max_size=3)
DOCUMENTS = (JSON.map(json.dumps) | MULTIPLICITIES.map(json.dumps)
             | MEMBERS.map(json.dumps) | MEMBERS.map(lambda m: json.dumps({"members": m}))
             | st.integers(1, 100000).map(lambda n: "[" * n + "]" * n)
             | st.integers(1, 100000).map(lambda n: '{"a":' * n + "1" + "}" * n)
             | st.sampled_from(["", "{", "NaN", "1" * 5000, '{"per_orbit": [1' + "0" * 5000 + "]}"])
             | TEXT)


def members_file(coefficient: str, exponents: tuple[list[int], list[int]]) -> str:
    """The two coordinate fields of a rank-2 type, with one coefficient and
    the exponents of the first field's polynomial given."""
    first = [[exponents[0], coefficient], [exponents[1], "1"]]
    return json.dumps({"members": [{"coefficients": [first, []]},
                                   {"coefficients": [[], [[[0, 0], "1"]]]}]})


@pytest.mark.parametrize("flag", ["--mfile", "--base-file"])
def test_json_files_end_in_an_exit_code(flag, tmp_path, capsys):
    valid = ["basis", "--type", "B2", "--m", "1", "--k", "1"]
    before = output(valid, capsys)
    path = tmp_path / "input.json"

    @SETTINGS
    @given(text=DOCUMENTS, label=st.sampled_from(CHEAP), m=st.sampled_from(["0", "1"]),
           k=st.sampled_from(["0", "1"]))
    @example(text=members_file("1/0", ([0, 0], [1, 0])), label="A2", m="0", k="0")
    @example(text=members_file("sqrt(4)", ([0, 0], [1, 0])), label="A2", m="0", k="0")
    @example(text=members_file("sqrt(8)", ([0, 0], [1, 0])), label="I2(5)", m="0", k="1")
    @example(text=members_file("1", ([0, 0], [0, 0])), label="B2", m="0", k="1")
    @example(text=members_file("1e999999999", ([0, 0], [1, 0])), label="G2", m="0", k="0")
    @example(text="[" * 200000 + "]" * 200000, label="A1", m="1", k="1")
    @example(text='{"per_orbit": [1, 0], "per_hyperplane": [1, 1, 1, 1]}', label="B2",
             m="1", k="1")
    @example(text='{"per_orbit": [true, 2]}', label="B2", m="1", k="1")
    @example(text='{"constant": 1' + "0" * 5000 + "}", label="A1", m="1", k="1")
    def check(text, label, m, k):
        path.write_text(text, encoding="utf-8")
        # --m goes only with --base-file: beside --mfile it is a usage error
        settles(["basis", "--type", label, "--k", k, flag, str(path)]
                + (["--m", m] if flag == "--base-file" else []))
        capsys.readouterr()

    check()
    assert output(valid, capsys) == before
