"""The table parser of selfsim.cli against the argparse parser it replaced.

Where argparse reads an argv, both must read the same fields; where argparse
exits with an error, ``main`` must exit 3 with nothing on stdout; where it
prints help, ``main`` must too. Behaviour in which argparse itself differs
between Python versions (a second ``--``, ``--`` before the command, ``-h``
bundled with more characters, ``--=value``) is not drawn; the tests at the
end pin what the table parser does there.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import ARGPARSE_COMMANDS, SPECS, argparse_fields
from selfsim import cli
from selfsim.cli import main, parse_args
from test_cli_fuzz import argvs

ODOMETER = str(SPECS / "odometer.spec")
OPTIONS = ("--window", "--depth", "--bound", "--split", "--allow-unverified")
NEGATIVE = ["-1", "-3", "-1,0(0)*", "-2(1)*", "-1.5"]
ODD_VALUES = ["", "-", "a b", "-x y", "--w 3", " 3", "x", "1.5", "-\u0661", "-\u00b2"]
LEGAL = [["--window", "2"], ["--depth", "-3"], ["--allow-unverified"], ["--window", " 1"], ["--depth", "\u0663"]]
REFUSED = [
    ["--bound", "1"], ["--split", "-1:0"], ["--window", "x"], ["--depth", "1.5"], ["--window"], ["--split"],
    ["--window", "-x"], ["--allow-unverified=1"], ["--help=1"], ["-x"], ["--bogus"], ["--bogus=1"], ["---"], ["-w"],
]
HELP = [["-h"], ["--help"], ["--he"], ["--h"]]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def parity_argvs(draw):
    """The fuzz grammar, re-cut into units and mutated in the ways argparse reads differently."""
    command, *tail = draw(argvs())
    cut = next((i for i, token in enumerate(tail) if token in OPTIONS), len(tail))
    values, flags = [[v] for v in tail[:cut]], []
    i = cut
    while i < len(tail):
        width = 1 if tail[i] == "--allow-unverified" else 2
        flags.append(tail[i:i + width])
        i += width

    def value():
        return draw(st.sampled_from(NEGATIVE + ODD_VALUES + ["e0", "1", "@v"]))

    if values and draw(st.integers(0, 7)) == 0:  # a missing positional
        del values[draw(st.integers(0, len(values) - 1))]
    if draw(st.integers(0, 7)) == 0:  # an extra one
        values.insert(draw(st.integers(0, len(values))), [value()])
    if values and draw(st.booleans()):  # a negative-leading or odd value
        values[draw(st.integers(0, len(values) - 1))] = [value()]

    extra = draw(st.lists(st.sampled_from(LEGAL), max_size=2))
    if draw(st.integers(0, 3)) == 0:
        extra.append(draw(st.sampled_from(REFUSED)))
    if draw(st.integers(0, 7)) == 0:
        extra.append(draw(st.sampled_from(HELP)))
    units = []
    for flag in flags + extra:
        name, *rest = flag
        if name in OPTIONS and draw(st.booleans()):  # a unique prefix, at least "--" and one letter
            name = name[:draw(st.integers(3, len(name)))]
        if rest and draw(st.booleans()):
            units.append([f"{name}={rest[0]}"])
        else:
            units.append([name, *rest])
        if draw(st.integers(0, 4)) == 0:  # repeated, maybe with another value
            units.append([name, str(draw(st.integers(-1, 3)))] if rest else [name])
    # At most one "--", mostly with only positionals after it.
    after = []
    if draw(st.integers(0, 3)) == 0:
        cut = draw(st.integers(0, len(values)))
        values, after = values[:cut], [["--"], *values[cut:]]
        if units and draw(st.integers(0, 3)) == 0:
            after.insert(draw(st.integers(1, len(after))), units.pop())
    for unit in units:
        values.insert(draw(st.integers(0, len(values))), unit)
    return [command] + [token for unit in values + after for token in unit]


@settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(parity_argvs())
def test_table_parser_reads_what_argparse_reads(argv):
    expected = argparse_fields(argv)
    if isinstance(expected, dict):
        assert vars(parse_args(argv)) == expected, argv
        return
    code, out, err = _run(argv)
    if expected == 0:
        assert (code, err) == (0, ""), argv
        assert out.startswith(f"usage: selfsim {argv[0]} "), argv
    else:
        assert (code, out) == (3, ""), argv
        assert err.startswith("usage: selfsim") and "\nselfsim: error: " in err, argv


def test_the_oracle_knows_every_command():
    assert list(ARGPARSE_COMMANDS) == list(cli._COMMANDS)
    for name, (_, positionals, options, _) in cli._COMMANDS.items():
        assert ARGPARSE_COMMANDS[name] == (positionals, options)


MODEL = ["e1(e0)*", "1(0)*", "0", "(e0)*"]  # the four positionals of a model-check


@pytest.mark.parametrize("argv, fields", [
    # Options anywhere after the command, as "--opt value" or "--opt=value", by any unique prefix.
    (["model-check", "--win", "3", ODOMETER, "--depth=5", "e1(e0)*", "--a", *MODEL[1:], "--sp", "0:0"],
     {"window": 3, "depth": 5, "allow_unverified": True, "eta": "e1(e0)*", "zeta": "(e0)*", "split": "0:0"}),
    # The last of a repeated option wins.
    (["lag", ODOMETER, "x", "--window", "1", "--w=2"], {"window": 2, "u": "x"}),
    # "--" ends the options; a token that starts with "-" and a digit, or holds a space, is a value.
    (["model-check", ODOMETER, "--", "--window", *MODEL[1:]], {"eta": "--window", "window": None}),
    (["model-check", ODOMETER, "a b", "-1,0(0)*", "-1", "(e0)*", "--split", "-1:0"],
     {"eta": "a b", "gseq": "-1,0(0)*", "k": "-1", "zeta": "(e0)*", "split": "-1:0"}),
    (["model-check", ODOMETER, *MODEL],
     {"window": None, "depth": None, "allow_unverified": False, "split": None}),
    (["residual-free", ODOMETER], {"window": None, "bound": 4}),
    # A last "--" ends nothing but is read after a value; straight after an option it is refused below.
    (["model-check", ODOMETER, "e1(e0)*", "--depth", "2", *MODEL[1:], "--"], {"zeta": "(e0)*", "depth": 2}),
    # Integer flags are read with int().
    (["model-check", ODOMETER, *MODEL, "--window", " 7 "], {"window": 7}),
], ids=["anywhere", "repeated", "separator", "negative", "defaults", "bound_default", "trailing_separator",
        "int"])
def test_option_grammar(argv, fields):
    parsed = vars(parse_args(argv))
    assert {key: parsed[key] for key in fields} == fields
    assert parsed["command"] == argv[0] and parsed["spec"] == ODOMETER
    assert parsed == argparse_fields(argv)


@pytest.mark.parametrize("argv", [
    [], ["bogus", ODOMETER], ["act", ODOMETER, "1"], ["act", ODOMETER, "1", "e0", "e1"],
    ["cover", ODOMETER, "@v"], ["cover", ODOMETER, "@v", "e0", "--depth", "1", "e1"],
    ["act", ODOMETER, "1", "e0", "--window"], ["act", ODOMETER, "1", "e0", "--window", "--depth", "1"],
    ["act", ODOMETER, "1", "e0", "--window", "x"], ["act", ODOMETER, "1", "e0", "--allow-unverified=1"],
    ["act", ODOMETER, "1", "e0", "--bound", "1"], ["validate", ODOMETER, "--split", "1:2"],
    ["act", ODOMETER, "1", "e0", "--bogus"], ["act", ODOMETER, "1", "e0", "-x"],
    ["validate", ODOMETER, "--window", "1", "--"],
    # The same forms on a command that takes the options.
    ["model-check", ODOMETER, *MODEL, "--window"], ["model-check", ODOMETER, *MODEL, "--window", "--depth", "1"],
    ["model-check", ODOMETER, *MODEL, "--window", "x"], ["model-check", ODOMETER, *MODEL, "--allow-unverified=1"],
    ["hausdorff", ODOMETER, "--window", "1", "--"],
], ids=lambda argv: " ".join(argv[:1] + argv[2:]) or "empty")
def test_usage_errors_exit_3_with_the_usage_on_stderr(argv):
    code, out, err = _run(argv)
    assert (code, out) == (3, "")
    usage, message = err.splitlines()
    assert usage.startswith("usage: selfsim ") and message.startswith("selfsim: error: ")
    assert argparse_fields(argv) == 2


@pytest.mark.parametrize("command", list(ARGPARSE_COMMANDS))
def test_an_option_the_command_does_not_read_is_unrecognised(command):
    positionals, options = ARGPARSE_COMMANDS[command]
    usage = _run([command, "--help"])[1].splitlines()[0]
    for option in OPTIONS:
        if option in options:
            assert f"[{option}" in usage
            continue
        argv = [command, ODOMETER, *["x"] * len(positionals), option]
        code, out, err = _run(argv)
        assert (code, out) == (3, "") and argparse_fields(argv) == 2
        assert err.splitlines()[1] == f"selfsim: error: unrecognised arguments: {option}"
        assert option not in usage


def test_help_goes_to_stdout_with_exit_0():
    for argv in (["-h"], ["--help"], ["--he"]):
        code, out, err = _run(argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: selfsim <command>") and all(f"  {name} " in out for name in cli._COMMANDS)
    code, out, err = _run(["model-check", ODOMETER, "--depth", "3", "-h", "--bogus"])
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == (
        "usage: selfsim model-check <specfile> <eta> <gseq> <k> <zeta>"
        " [--window R] [--depth D] [--allow-unverified] [--split P:Q]"
    )
    assert "--bound" not in out and "--split P:Q" in out
    # An error before the help is reported first, as argparse did.
    assert _run(["model-check", ODOMETER, "--window", "x", "--help"])[:2] == (3, "")


# Where argparse reads differently on Python 3.10 to 3.13, the table parser reads as pinned here.
@pytest.mark.parametrize("argv, fields", [
    # Only the first "--" is a separator: a later one is a value (argparse up to 3.12 dropped it too).
    (["act", ODOMETER, "1", "--", "--"], {"g": "1", "path": "--"}),
    (["cover", ODOMETER, "@v", "--", "e0", "--", "e1"], {"beta": "@v", "alphas": ["e0", "--", "e1"]}),
], ids=["second_separator", "second_separator_in_alphas"])
def test_a_second_separator_is_a_value(argv, fields):
    parsed = vars(parse_args(argv))
    assert {key: parsed[key] for key in fields} == fields


@pytest.mark.parametrize("argv", [
    ["--", "act", ODOMETER, "1", "e0"],  # the command comes first (argparse 3.13 reads this)
    ["-x", "act", ODOMETER, "-h"],  # no option before the command, not even before a later -h
    ["validate", ODOMETER, "-hh"],  # -h takes nothing bundled with it
    ["validate", ODOMETER, "-h3"],
    ["validate", ODOMETER, "-h=h"],
    ["validate", ODOMETER, "-h y"],
    ["validate", ODOMETER, "--=3"],  # "--" and "=" name no option
    ["validate", ODOMETER, "-="],
], ids=["separator_first", "option_first", "hh", "h3", "h_eq", "h_space", "dashdash_eq", "dash_eq"])
def test_forms_argparse_reads_by_version_are_refused(argv):
    code, out, err = _run(argv)
    assert (code, out) == (3, "") and "selfsim: error: " in err


def test_help_shows_each_limit_with_its_default_and_variable():
    out = _run(["model-check", "--help"])[1]
    assert out.splitlines()[5:9] == [
        "  --help                show this help and exit (also -h)",
        "  --window R            window radius (default 4, or SELFSIM_WINDOW)",
        "  --depth D             depth for infinite computations (default 64, or SELFSIM_DEPTH)",
        "  --allow-unverified    run a germ command past a freeness counterexample",
    ]
    assert _run(["residual-free", "--help"])[1].splitlines()[-1] == (
        "  --bound B             path length bound (default 4)"
    )
