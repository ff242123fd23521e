"""CLI behavior: golden-file output comparison and the exit-code contract."""

import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import selfsim as ss
from conftest import SOURCE_VERTEX_SPEC, TEST_SPECS
from selfsim.cli import main
from selfsim.specfile import load_spec_file

SPECS = Path(__file__).resolve().parent.parent / "specs"
GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = [
    ("act_odometer", ["act", str(SPECS / "odometer.spec"), "1", "e0.e0"], 0),
    ("act_machine", ["act", str(SPECS / "adding_machine.spec"), "a", "0.0"], 0),
    ("phi_odometer", ["phi", str(SPECS / "odometer.spec"), "1", "e1"], 0),
    ("smul_odometer", ["smul", str(SPECS / "odometer.spec"), "e0,1,e1", "e1.e1,0,e0"], 0),
    ("smul_zero", ["smul", str(SPECS / "odometer.spec"), "e0,0,e0", "e1,0,e1"], 0),
    ("cover_true", ["cover", str(SPECS / "odometer.spec"), "@v", "e0", "e1"], 0),
    ("cover_false", ["cover", str(SPECS / "odometer.spec"), "@v", "e0"], 1),
    ("validate_odometer", ["validate", str(SPECS / "odometer.spec")], 0),
    ("validate_katsura", ["validate", str(SPECS / "odometer_katsura.spec")], 0),
    ("residual_free_k20", ["residual-free", str(SPECS / "katsura_2_0.spec"), "--window", "4"], 1),
    ("residual_free_odometer", ["residual-free", str(SPECS / "odometer.spec"), "--window", "4"], 2),
    ("residual_free_z2", ["residual-free", str(SPECS / "z2_swap.spec")], 0),
    (
        "e_star_unitary_k20",
        ["e-star-unitary", str(SPECS / "katsura_2_0.spec"), "--window", "2", "--bound", "2"],
        1,
    ),
    ("e_star_unitary_z2", ["e-star-unitary", str(SPECS / "z2_swap.spec"), "--bound", "2"], 0),
    (
        "germ_eq_equal",
        ["germ-eq", str(SPECS / "odometer.spec"), "@v,1,@v;(e0)*", "e1,0,e0;(e0)*"],
        0,
    ),
    (
        "germ_eq_distinct",
        ["germ-eq", str(SPECS / "odometer.spec"), "@v,1,@v;(e0)*", "e1,1,e0;(e0)*"],
        1,
    ),
    ("lag_ones", ["lag", str(SPECS / "odometer.spec"), "@v,1,@v;(e1)*"], 0),
    ("lag_unit", ["lag", str(SPECS / "odometer.spec"), "e0,0,e0;(e0)*"], 0),
    (
        "model_check_passes",
        ["model-check", str(SPECS / "odometer.spec"), "e1(e0)*", "1(0)*", "0", "(e0)*"],
        0,
    ),
    (
        "model_check_fails",
        ["model-check", str(SPECS / "odometer.spec"), "e1(e0)*", "1(0)*", "0", "(e1)*", "--split", "0:0"],
        1,
    ),
    ("hausdorff_odometer", ["hausdorff", str(SPECS / "odometer.spec")], 0),
    ("hausdorff_k20", ["hausdorff", str(SPECS / "katsura_2_0.spec")], 1),
    ("germ_refused_k20", ["germ-eq", str(SPECS / "katsura_2_0.spec"),
     "@1,1,@1;((1,1,0))*", "@1,1,@1;((1,1,0))*"], 3),
    ("validate_violation", ["validate", str(SPECS / "broken_cocycle.spec")], 1),
    ("bad_path_literal", ["act", str(SPECS / "odometer.spec"), "1", "e7"], 3),
]


@pytest.mark.parametrize("name,argv,expected_exit", CASES, ids=[c[0] for c in CASES])
def test_golden(name, argv, expected_exit, capsys):
    code = main(argv)
    output = capsys.readouterr().out
    assert code == expected_exit
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert output == expected


def test_output_is_byte_deterministic(capsys):
    argv = ["validate", str(SPECS / "odometer.spec")]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_missing_spec_file_is_input_error(capsys):
    code = main(["validate", str(SPECS / "does_not_exist.spec")])
    out = capsys.readouterr().out
    assert code == 3
    assert "error" in out


def test_malformed_spec_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_text("[graph]\nvertices = v\nedge = e0 v\n", encoding="utf-8")
    code = main(["validate", str(bad)])
    out = capsys.readouterr().out
    assert code == 3
    assert "error" in out


def test_env_var_overrides_window(capsys, monkeypatch):
    monkeypatch.setenv("SELFSIM_WINDOW", "2")
    main(["residual-free", str(SPECS / "odometer.spec")])
    out = capsys.readouterr().out
    assert "window of 5 elements" in out


@pytest.mark.parametrize(
    "spec,path", [("odometer.spec", "e0.e0"), ("odometer_katsura.spec", "(1,1,0).(1,1,0)")]
)
@pytest.mark.parametrize("m,carry", [(5000, 1250), (1000000, 250000)])
def test_act_with_large_integer(spec, path, m, carry, capsys):
    code = main(["act", str(SPECS / spec), str(m), path])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"{path} ; cocycle {carry}"


ODOMETER = str(SPECS / "odometer.spec")
LAG = ["lag", ODOMETER, "@v,1,@v;(e1)*"]
OUT_OF_RANGE = [
    ("depth_zero", LAG + ["--depth", "0"], {}, "--depth must be at least 1, got 0"),
    ("depth_negative", LAG + ["--depth", "-5"], {}, "--depth must be at least 1, got -5"),
    (
        "window_negative",
        ["residual-free", ODOMETER, "--window", "-1"],
        {},
        "--window must be at least 0, got -1",
    ),
    (
        "bound_negative",
        ["e-star-unitary", str(SPECS / "z2_swap.spec"), "--bound", "-1"],
        {},
        "--bound must be at least 0, got -1",
    ),
    (
        "env_depth_malformed",
        LAG,
        {"SELFSIM_DEPTH": "abc"},
        "SELFSIM_DEPTH must be an integer, got 'abc'",
    ),
    ("env_depth_zero", LAG, {"SELFSIM_DEPTH": "0"}, "SELFSIM_DEPTH must be at least 1, got 0"),
    # Of two bad limits, the first in the command's option order is reported.
    (
        "first_bad_limit_in_option_order",
        LAG + ["--window", "-1"],
        {"SELFSIM_DEPTH": "abc"},
        "--window must be at least 0, got -1",
    ),
    (
        "env_window_malformed",
        ["residual-free", ODOMETER],
        {"SELFSIM_WINDOW": "4.5"},
        "SELFSIM_WINDOW must be an integer, got '4.5'",
    ),
    (
        "env_window_negative",
        ["residual-free", ODOMETER],
        {"SELFSIM_WINDOW": "-2"},
        "SELFSIM_WINDOW must be at least 0, got -2",
    ),
    (
        "window_over_limit",
        ["residual-free", ODOMETER, "--window", "100000000"],
        {},
        "more than 100000 elements in the window of radius 100000000 (the enumeration limit)",
    ),
    (
        "automaton_window_over_limit",
        ["residual-free", str(SPECS / "adding_machine.spec"), "--window", "50000"],
        {},
        "more than 100000 elements in the window of radius 50000 (the enumeration limit)",
    ),
    (
        "bound_over_limit",
        ["e-star-unitary", ODOMETER, "--bound", "1000000000"],
        {},
        "more than 100000 paths of length <= 1000000000 (the enumeration limit)",
    ),
    (
        "env_window_over_limit",
        ["residual-free", ODOMETER],
        {"SELFSIM_WINDOW": "100000000"},
        "more than 100000 elements in the window of radius 100000000 (the enumeration limit)",
    ),
]


@pytest.mark.parametrize("name,argv,env,message", OUT_OF_RANGE, ids=[c[0] for c in OUT_OF_RANGE])
def test_out_of_range_limit_is_input_error(name, argv, env, message, capsys, monkeypatch):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code = main(argv)
    lines = capsys.readouterr().out.splitlines()
    assert code == 3
    assert len(lines) == 2 and lines[0].startswith("> ")
    assert lines[1] == f"error: {message}"


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda t, xi: ss.default_window(t.group, -1), "window radius must be at least 0, got -1"),
        (lambda t, xi: ss.check_residually_free(t, [0], path_bound=-1), "path bound must be at least 0, got -1"),
        (lambda t, xi: ss.GermContext(t, window=[0], depth=0), "depth must be at least 1, got 0"),
        (lambda t, xi: ss.inf_path_eq(xi, xi, -1), "depth must be at least 0, got -1"),
        (lambda t, xi: ss.act_inf_path(t, 1, xi, -1), "depth must be at least 0, got -1"),
    ],
    ids=["window_radius", "path_bound", "germ_depth", "inf_path_eq_depth", "orbit_depth"],
)
def test_library_floor_messages(call, message, odo):
    # The same floor as the flags and variables above, named as the library names it.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(odo, ss.stream_path(odo.graph, [0]))


def test_validate_answers_on_grigorchuk_from_its_generators():
    # Radius 4 is 3201 elements, 10,246,401 pairs; validate checks the radius-1 window only.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "selfsim.cli", "validate", str(TEST_SPECS / "grigorchuk.spec")],
        capture_output=True, env=env, timeout=20,
    )
    assert proc.returncode == 0
    assert proc.stdout.decode().splitlines() == [
        "> validate",
        "graph: ok",
        "axioms: ok (exact over the group: window of 9 elements, 81 pairs)",
    ]
    assert b"Traceback" not in proc.stderr


def test_window_limit_spares_finite_groups(capsys):
    # A finite group's window is the whole group, whatever the radius.
    code = main(["residual-free", str(SPECS / "z2_swap.spec"), "--window", "100000000"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1] == "holds (all 2 elements swept)"


def test_cover_branch_ending_at_a_source(tmp_path, capsys):
    spec = tmp_path / "source_vertex.spec"
    spec.write_text(SOURCE_VERTEX_SPEC, encoding="utf-8")
    code = main(["cover", str(spec), "@a", "x.x", "x.y"])
    assert code == 1
    assert capsys.readouterr().out == "> cover @a x.x x.y\ncover: false\n"
    assert main(["cover", str(spec), "@a", "x.x", "x.y", "y"]) == 0
    assert capsys.readouterr().out.endswith("cover: true\n")


def test_cover_with_a_long_member_answers_at_once(capsys):
    long_member = ".".join(["e0"] * 5000)
    start = time.perf_counter()
    code = main(["cover", ODOMETER, "@v", long_member])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 1
    assert out.splitlines()[-1] == "cover: false"
    assert "Traceback" not in out
    assert elapsed < 1.0, f"cover with a 5000-edge member took {elapsed:.2f}s"


@pytest.mark.parametrize(
    "argv",
    [
        ["residual-free", ODOMETER, "--window", "100000000"],
        ["residual-free", str(SPECS / "adding_machine.spec"), "--window", "100000000"],
        ["e-star-unitary", ODOMETER, "--bound", "100000000"],
    ],
    ids=["integer_window", "automaton_window", "bound"],
)
def test_over_limit_is_refused_before_building(argv, capsys):
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < 1_000_000, f"peak {peak} bytes traced before the refusal"


def test_oversize_katsura_matrix_is_refused_before_building(tmp_path, capsys):
    spec = tmp_path / "huge.spec"
    spec.write_text("[katsura]\na = 99999999999\nb = 1\n")
    tracemalloc.start()
    try:
        code = main(["act", str(spec), "1", "(1,1,0)"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert capsys.readouterr().out.splitlines() == [
        "> act 1 (1,1,0)",
        "error: A has 99999999999 edges, more than 100000 (the enumeration limit)",
    ]
    assert peak < 1_000_000, f"peak {peak} bytes traced before the refusal"


def test_negative_corona_literal_needs_no_separator(capsys):
    head = ["model-check", ODOMETER, "e1(e0)*"]
    tail = ["-1,0(0)*", "0", "(e0)*"]
    assert main(head + ["--"] + tail) == 0
    separated = capsys.readouterr().out.splitlines()
    assert main(head + tail) == 0
    plain = capsys.readouterr().out.splitlines()
    assert plain[1:] == separated[1:] == ["passes"]
    assert main(["act", ODOMETER, "-3", "e0"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "e1 ; cocycle -2"


def test_e_star_unitary_at_the_defaults_answers_at_once(capsys):
    start = time.perf_counter()
    code = main(["e-star-unitary", str(SPECS / "katsura_3_2.spec")])
    elapsed = time.perf_counter() - start
    assert code == 2
    assert capsys.readouterr().out.splitlines()[1] == (
        "no counterexample in window of 9 elements (paths to length 4); unknown beyond window"
    )
    assert elapsed < 0.5, f"e-star-unitary on katsura_3_2 took {elapsed:.2f}s"


# The element 1 fixes both vertices but sends the loop at u to the loop at w.
SPLIT_LOOPS_SPEC = """\
[graph]
vertices = u w
edge = a u u
edge = b w w

[group]
kind = cayley
elements = 0 1
row = 0 1
row = 1 0

[action]
edge = 1 a b 0
edge = 1 b a 0
"""


def test_e_star_unitary_refuses_a_window_breaking_equivariance(tmp_path, capsys):
    spec = tmp_path / "split_loops.spec"
    spec.write_text(SPLIT_LOOPS_SPEC, encoding="utf-8")
    code = main(["e-star-unitary", str(spec)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 3
    assert lines[1:] == ["error: range-equivariance violated: r(sigma_1(a))"]


BROKEN = str(SPECS / "broken_cocycle.spec")


@pytest.mark.parametrize("args", [
    ["residual-free"],
    ["e-star-unitary"],
    ["hausdorff"],
    ["germ-eq", "@v,1,@v;(e0)*", "@v,0,@v;(e0)*"],
    ["germ-eq", "@v,1,@v;(e0)*", "@v,0,@v;(e0)*", "--allow-unverified"],
    ["lag", "@v,1,@v;(e0)*"],
    ["model-check", "(e0)*", "1(0)*", "0", "(e0)*"],
], ids=["residual-free", "e-star-unitary", "hausdorff", "germ-eq", "germ-eq-allow-unverified", "lag", "model-check"])
def test_a_theorem_quoting_command_refuses_a_broken_cocycle(args, capsys):
    # The cocycle identity fails at e0 and e1: no theorem these commands quote applies.
    assert main([args[0], BROKEN, *args[1:]]) == 3
    assert capsys.readouterr().out.splitlines()[1:] == ["error: cocycle-identity violated: (g=1, h=1) at e0"]


MACHINE = str(SPECS / "adding_machine.spec")


@pytest.mark.parametrize("depth", range(1, 65))
def test_germ_eq_on_a_nontrivial_power_is_distinct_at_every_depth(depth, capsys):
    # a^4 first moves 0^w at the third letter: a shallower walk cannot tell its germ from 1's.
    argv = ["germ-eq", MACHINE, "@v,a.a.a.a,@v;(0)*", "@v,1,@v;(0)*", "--depth", str(depth)]
    verdict, code = ("distinct", 1) if depth >= 3 else (f"unknown@{depth}", 2)
    assert main(argv) == code
    assert capsys.readouterr().out.splitlines()[1:] == [verdict]


def test_germ_eq_on_power_2048_is_distinct(capsys):
    word = ".".join(["a"] * 2048)
    assert main(["germ-eq", MACHINE, f"@v,{word},@v;(0)*", "@v,1,@v;(0)*"]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == ["distinct"]


@pytest.mark.parametrize(
    "word,n,code",
    [("a", 2, 0), ("b.c.d", 1, 0), ("a.d", 4, 0), ("a.b", 16, 0), ("a.c", 8, 0),
     ("a.d", 2, 1), ("a.b", 8, 1), ("a.c", 4, 1)],
)
def test_grigorchuk_relations_through_germ_eq(word, n, code, capsys):
    # Window 0 holds only the identity, so the freeness gate passes; with
    # equal points the germs are equal exactly when the group elements are.
    power = ".".join([word] * n)
    argv = ["germ-eq", str(TEST_SPECS / "grigorchuk.spec"), f"@v,{power},@v;(0)*", "@v,1,@v;(0)*",
            "--window", "0"]
    assert main(argv) == code
    assert capsys.readouterr().out.splitlines()[1:] == [["equal", "distinct"][code]]


@pytest.mark.parametrize("radius", range(5))
def test_germ_eq_on_grigorchuk_decides_equal_germs_of_unequal_elements(radius, capsys):
    # d fixes the letter 0 with restriction 1, so it acts as 1 on the cylinder of 0: the germs
    # are equal though d != 1. From radius 1 the window holds d, a freeness counterexample.
    argv = ["germ-eq", str(TEST_SPECS / "grigorchuk.spec"), "@v,d,@v;(0)*", "@v,1,@v;(0)*",
            "--window", str(radius)]
    if radius:
        assert main(argv) == 3
        assert capsys.readouterr().out.splitlines()[1:] == [
            "refused: freeness counterexample (g=d, e=0); pass --allow-unverified to proceed"
        ]
        argv.append("--allow-unverified")
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["equal"]


def test_chain_sweeps_find_no_false_counterexample(capsys):
    chain = str(TEST_SPECS / "chain40.spec")
    # t fixes letter 0 with restriction s1, and s1 != 1 shows only at level 40.
    assert main(["residual-free", chain, "--window", "1", "--bound", "0"]) == 2
    assert capsys.readouterr().out.splitlines()[1:] == [
        "no counterexample in window of 83 elements; unknown beyond window"
    ]
    # s40 and t agree on letter 1 (image 2, restriction s40), so t.s40' fixes 2
    # with restriction s40.s40' = 1; t.s40' != 1, as t fixes 0 and s40 does not.
    assert main(["e-star-unitary", chain, "--window", "1", "--bound", "1"]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == ["counterexample s=(@v, t.s40', @v), e=(2, 1, 2)"]
    assert main(["residual-free", chain, "--window", "1", "--bound", "1"]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == ["counterexample (g=t.s40', e=2)"]


def test_chain_hausdorff_and_germ_gate_see_the_edge_agreement(capsys):
    # Both search agreements on single edges, so they find the certificate
    # residual-free finds at --bound 1, and refuse two equal germs that the
    # sweep at path bound 0 let through as "distinct".
    chain = str(TEST_SPECS / "chain40.spec")
    assert main(["hausdorff", chain, "--window", "1"]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "not implied by the freeness check: counterexample (g=t.s40', e=2)"
    ]
    assert main(["germ-eq", chain, "@v,t.s40',@v;(2)*", "@v,1,@v;(2)*", "--window", "1"]) == 3
    assert capsys.readouterr().out.splitlines()[1:] == [
        "refused: freeness counterexample (g=t.s40', e=2); pass --allow-unverified to proceed"
    ]


C5 = str(TEST_SPECS / "c5.spec")
SWAP_ZERO_SUM = str(TEST_SPECS / "swap_zero_sum.spec")


@pytest.mark.parametrize("radius", range(6))
def test_c5_counterexample_at_every_window(radius, capsys):
    # 5 fixes every loop with cocycle 0: found from the cycle of the generator
    # below radius 5, and by the window's own edge sweep at radius 5.
    window = ["--window", str(radius)]
    assert main(["residual-free", C5, *window]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == ["counterexample (m=5, e=e0)"]
    assert main(["e-star-unitary", C5, *window]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == ["counterexample s=(@v, 5, @v), e=(e0, 0, e0)"]
    assert main(["hausdorff", C5, *window]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "not implied by the freeness check: counterexample (m=5, e=e0)"
    ]
    assert main(["germ-eq", C5, "e0,5,e0;(e0)*", "e0,0,e0;(e0)*", *window]) == 3


def test_swap_zero_sum_counterexample(capsys):
    # 1 swaps a and b with cocycles 1 and -1, so 2 fixes a with cocycle 0.
    assert main(["validate", SWAP_ZERO_SUM]) == 0
    capsys.readouterr()
    assert main(["residual-free", SWAP_ZERO_SUM, "--window", "1"]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == ["counterexample (m=2, e=a)"]
    assert main(["e-star-unitary", SWAP_ZERO_SUM, "--window", "1"]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == ["counterexample s=(@u, 2, @u), e=(a, 0, a)"]
    assert main(["germ-eq", SWAP_ZERO_SUM, "a,2,a;(a)*", "a,0,a;(a)*", "--window", "1"]) == 3


@pytest.mark.parametrize("argv", [
    [str(SPECS / "katsura_2_0.spec"), "@1,1,@1;((1,1,0))*", "@1,0,@1;((1,1,0))*"],
    [C5, "e0,5,e0;(e0)*", "e0,0,e0;(e0)*", "--window", "1"],
    [SWAP_ZERO_SUM, "a,2,a;(a)*", "a,0,a;(a)*", "--window", "1"],
], ids=["katsura_2_0", "c5", "swap_zero_sum"])
def test_germ_eq_past_a_freeness_counterexample_is_equal(argv, capsys):
    # m fixes the point's first letter with cocycle 0, so [_, m, _; xi] and [_, 0, _; xi] agree from there on.
    assert main(["germ-eq", *argv, "--allow-unverified"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["equal"]


@pytest.mark.parametrize("flag, checks", [([], 2), (["--allow-unverified"], 1)], ids=["gated", "allow-unverified"])
def test_allow_unverified_skips_the_freeness_sweep(flag, checks, monkeypatch, capsys):
    # The sweep checks the axioms before it searches, and GermContext checks them again; with the
    # flag the sweep could refuse nothing more, so it does not run and the axioms are checked once.
    import selfsim.groupoid
    import selfsim.sweeps

    calls = []
    check = selfsim.sweeps.require_axioms

    def counted(t):
        calls.append(t)
        check(t)

    monkeypatch.setattr(selfsim.sweeps, "require_axioms", counted)
    monkeypatch.setattr(selfsim.groupoid, "require_axioms", counted)
    argv = [str(TEST_SPECS / "grigorchuk.spec"), "@v,d,@v;(0)*", "@v,1,@v;(0)*", "--window", "0", *flag]
    assert main(["germ-eq", *argv]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["equal"]
    assert len(calls) == checks


def test_a_restriction_past_the_budget_is_refused(capsys):
    # On the doubling automaton a restricts to a.a at every letter: 30 letters would give a 2^30-letter word.
    path = ".".join(["0"] * 30)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main(["act", str(TEST_SPECS / "doubling.spec"), "a", path])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert capsys.readouterr().out.splitlines() == [
        f"> act a {path}",
        "error: more than 100000 letters in the restriction along the path (the enumeration limit)",
    ]
    assert elapsed < 2.0, f"the refusal took {elapsed:.2f}s"
    assert peak < 10_000_000, f"peak {peak} bytes traced"
    # Within the budget the restriction is printed: 16 letters give a^(2^16), 65536 letters.
    assert main(["phi", str(TEST_SPECS / "doubling.spec"), "a", ".".join(["0"] * 16)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == ".".join(["a"] * 2**16)


def test_carry_words_past_the_budget_are_undecided(capsys):
    # The doubling automaton's carry along 0^w doubles in length at every letter.
    argv = ["lag", str(TEST_SPECS / "doubling.spec"), "@v,a,@v;(0)*"]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().out.splitlines() == [
        "> lag @v,a,@v;(0)*",
        "undecided: the carry words along the path pass 100000 letters at depth 16",
    ]
    assert peak < 10_000_000, f"peak {peak} bytes traced"
    # Within the budget the lag is printed: the carries a^(2^n) for n < 12, 4095 letters in all.
    assert main(argv + ["--depth", "12"]) == 0
    carries = ",".join(".".join(["a"] * 2**n) for n in range(12))
    assert capsys.readouterr().out.splitlines()[1] == f"({carries}~, 0)"


def test_a_finite_group_walk_answers_exactly_at_the_default_depth(capsys):
    # Along (e1^29.e0)* the carry of Z/5 recurs only after 120 letters, past the 95 that
    # depth 64 reads; over a finite group the walk goes on to |G|.q = 150 letters.
    zeta = "(" + ".".join(["e1"] * 29 + ["e0"]) + ")*"
    z5 = str(TEST_SPECS / "z5_doubling.spec")
    assert main(["germ-eq", z5, f"@v,1,@v;{zeta}", f"@v,4,@v;{zeta}"]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == ["distinct"]
    assert main(["lag", z5, f"@v,1,@v;{zeta}"]) == 0
    carries = ",".join(c for c in "1243" for _ in range(30))
    assert capsys.readouterr().out.splitlines()[1:] == [f"(({carries})*, 0)"]


@pytest.mark.parametrize("spec, germ, printed", [
    (SPECS / "odometer.spec", "@v,1000,@v;(e1)*", "(1000~, 0)"),
    (TEST_SPECS / "doubling.spec", "@v,a,@v;(0)*", "(a,a.a,a.a.a.a~, 0)"),
], ids=["integer", "automaton"])
def test_a_bounded_lag_feeds_model_check(spec, germ, printed, capsys):
    # A bounded corona prints with a closing "~", which model-check reads back.
    assert main(["lag", str(spec), germ, "--depth", "3" if "doubling" in spec.name else "1"]) == 0
    line = capsys.readouterr().out.splitlines()[1]
    assert line == printed
    corona = line[1:].rsplit(", ", 1)[0]
    zeta = germ.split(";")[1]
    assert main(["model-check", str(spec), zeta, corona, "0", zeta]) == 2
    assert capsys.readouterr().out.splitlines()[1] == "undecided at depth 64"


def test_model_check_reports_the_depth_of_its_verdict(capsys):
    # Three known entries leave no index past split p = 2 to check: undecided at 0, not at --depth.
    argv = ["model-check", MACHINE, "(1.0)*", "1,1,a~", "2", "(1.0)*", "--split", "2:0"]
    assert main(argv) == 2
    assert capsys.readouterr().out.splitlines()[1:] == ["undecided at depth 0"]


@pytest.mark.parametrize("split, code, printed", [(["--split", "0:0"], 1, "fails"), ([], 0, "passes")],
                         ids=["split_0_0", "searched"])
def test_model_check_compares_from_the_first_condition(split, code, printed, capsys):
    # Phi(1, (e0)*) = 1,(0)*: the entry 5 breaks the carry law at split 0:0, though the tails agree;
    # a later split holds.
    assert main(["model-check", ODOMETER, "e1(e0)*", "1,5(0)*", "0", "(e0)*", *split]) == code
    assert capsys.readouterr().out.splitlines()[1:] == [printed]


def test_model_check_on_a_joint_period_of_ten_million_letters_fails_in_little_memory(capsys):
    # Cycles of 211, 227 and 223 letters: a window of 10,681,031 conditions, checked up to the limit.
    eta = "(" + ".".join(["e1"] + ["e0"] * 210) + ")*"
    gseq = "(" + ",".join(["1"] + ["0"] * 226) + ")*"
    zeta = "(" + ".".join(["e1"] + ["e0"] * 222) + ")*"
    tracemalloc.start()
    try:
        code = main(["model-check", ODOMETER, eta, gseq, "0", zeta])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().out.splitlines()[1:] == ["fails"]
    assert peak < 20_000_000, f"peak {peak} bytes traced"


def test_model_check_past_the_condition_limit_is_undecided(capsys, monkeypatch):
    # The window is the 60 letters of the preperiod and one of the period: 61 conditions, all holding.
    path = ".".join(["e0"] * 60) + "(e1)*"
    argv = ["model-check", ODOMETER, path, "(0)*", "0", path, "--split", "0:0"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["passes"]
    monkeypatch.setattr(ss.groups, "MAX_ENUMERATION", 50)
    assert main(argv) == 2
    assert capsys.readouterr().out.splitlines()[1:] == ["undecided at depth 50"]


def test_sweep_on_a_walk_that_never_closes_ends_at_the_budget(capsys):
    start = time.perf_counter()
    code = main(["residual-free", str(TEST_SPECS / "doubling.spec"), "--window", "1", "--bound", "0"])
    elapsed = time.perf_counter() - start
    assert code == 2
    assert capsys.readouterr().out.splitlines()[-1].endswith("unknown beyond window")
    assert elapsed < 10.0, f"residual-free on the doubling automaton took {elapsed:.2f}s"


@pytest.mark.parametrize(
    "argv",
    [
        ["hausdorff", ODOMETER, "--bound", "3"],
        ["germ-eq", ODOMETER, "@v,1,@v;(e0)*", "e1,0,e0;(e0)*", "--bound", "1"],
        ["validate", ODOMETER, "--bound", "0"],
    ],
    ids=["hausdorff", "germ_eq", "validate"],
)
def test_bound_is_refused_where_no_path_sweep_reads_it(argv, capsys):
    assert main(argv) == 3
    assert capsys.readouterr().out == ""


def test_closed_stdout_keeps_the_exit_code():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "selfsim.cli", "act", ODOMETER, "1", "e0.e0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    # The reader goes away before the command writes a byte.
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=30) == 0
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


# -- contract branches: each pins its message and exit code ----------------------


def run_spec(tmp_path, capsys, text, *args, command="validate"):
    """(exit code, stdout lines) of one command on a spec written from text."""
    spec = tmp_path / "case.spec"
    spec.write_text(text, encoding="utf-8")
    code = main([command, str(spec), *args])
    return code, capsys.readouterr().out.splitlines()


def test_validate_reports_a_source_vertex(tmp_path, capsys):
    code, lines = run_spec(tmp_path, capsys, SOURCE_VERTEX_SPEC)
    assert code == 1
    assert lines[1] == "graph: vertex b: no incoming edge (source)"


# Z/3 fixing its loop: 1 and 2 both leave it with cocycle 1, so the cocycle
# identity breaks at (1, 1).
Z3_BROKEN_SPEC = """\
[graph]
vertices = v
edge = e v v

[group]
kind = cayley
elements = 0 1 2
row = 0 1 2
row = 1 2 0
row = 2 0 1

[action]
edge = 1 e e 1
edge = 2 e e 1
"""


def test_residual_free_refuses_a_z3_table_breaking_the_cocycle_identity(tmp_path, capsys):
    code, lines = run_spec(tmp_path, capsys, Z3_BROKEN_SPEC, command="residual-free")
    assert code == 3
    assert lines[1:] == ["error: cocycle-identity violated: (g=1, h=1) at e"]


@pytest.mark.parametrize(
    "args,message",
    [
        (["e1(e0)*", "1(0)*", "x", "(e0)*"], "error: lag shift must be an integer: 'x'"),
        (["e1(e0)*", "1(0)*", "0", "(e0)*", "--split", "1-2"], "error: split must be 'p:q': '1-2'"),
    ],
    ids=["shift", "split"],
)
def test_model_check_refuses_a_malformed_shift_or_split(args, message, capsys):
    assert main(["model-check", ODOMETER, *args]) == 3
    assert capsys.readouterr().out.splitlines()[1:] == [message]


CAYLEY_SPEC = """\
[graph]
vertices = v
edge = e v v
edge = f v v

[group]
kind = cayley
elements = 0 1
row = 0 1
row = 1 0

[action]
edge = 1 e f 0
edge = 1 f e 0
"""
INTEGER_SPEC = """\
[graph]
vertices = v
edge = e0 v v
edge = e1 v v

[group]
kind = integer

[action]
edge = 1 e0 e1 0
edge = 1 e1 e0 1
"""
AUTOMATON_MAP_SPEC = "[automaton]\nalphabet = 0 1\nmap = a 0 1 1\nmap = a 1 0 a\nfaithful_depth = true\n"
LOADER_ERRORS = [
    ("cayley_rows", CAYLEY_SPEC.replace("row = 1 0\n", ""), "line 6: cayley group needs one 'row' per element"),
    ("cayley_row", CAYLEY_SPEC.replace("row = 1 0", "row = 0 2"), "line 10: bad cayley row: '0 2'"),
    ("cayley_edge_element", CAYLEY_SPEC + "edge = 2 e e 0\n", "line 15: unknown element in edge row: '2' / '0'"),
    ("cayley_vertex_element", CAYLEY_SPEC + "vertex = 2 v v\n", "line 15: unknown element '2'"),
    ("cayley_missing_row", CAYLEY_SPEC.replace("edge = 1 f e 0\n", ""),
     "line 12: missing edge action rows for element '1': f"),
    ("cayley_associativity",
     CAYLEY_SPEC.replace("elements = 0 1\nrow = 0 1\nrow = 1 0", "elements = a b c\nrow = a b c\nrow = b a a\nrow = c a a")
     .replace("edge = 1 e f 0\nedge = 1 f e 0\n", ""),
     "line 6: Cayley table not associative at (b, b, c)"),
    ("integer_generator", INTEGER_SPEC + "edge = 2 e0 e0 0\n",
     "line 12: integer backend takes rows for the generator m = 1 only"),
    ("integer_cocycle", INTEGER_SPEC.replace("e1 e0 1", "e1 e0 x"), "line 11: cocycle entry must be an integer: 'x'"),
    ("integer_bijection", INTEGER_SPEC.replace("e1 e0 1", "e1 e1 1"), "line 9: generator rows must describe bijections"),
    ("automaton_bijection", AUTOMATON_MAP_SPEC.replace("a 1 0 a", "a 1 1 a"), "state a does not permute the alphabet"),
    # Within a row, Cayley resolves the image label before the edge label; integer rows the edge label
    # first, and the image label before the cocycle. A bad label comes before a missing row.
    ("cayley_image_first", CAYLEY_SPEC + "edge = 0 BADE BADF 0\n", "line 15: unknown edge label 'BADF'"),
    ("integer_edge_first", INTEGER_SPEC + "edge = 1 BADE BADF 0\n", "line 12: unknown edge label 'BADE'"),
    ("integer_image_first", INTEGER_SPEC + "edge = 1 e0 BADF x\n", "line 12: unknown edge label 'BADF'"),
    ("cayley_label_before_missing_row", CAYLEY_SPEC.replace("edge = 1 f e 0\n", "edge = 0 e BADF 0\n"),
     "line 14: unknown edge label 'BADF'"),
    # faithful_depth is true or false, in any case; a key that no loader of its section reads is refused.
    ("faithful_depth_value", AUTOMATON_MAP_SPEC.replace("= true", "= yes"),
     "line 5: faithful_depth must be true or false, got 'yes'"),
    ("unknown_key", AUTOMATON_MAP_SPEC + "bogus = 1\n", "line 6: unknown key 'bogus' in [automaton]"),
    ("misspelt_key", AUTOMATON_MAP_SPEC.replace("faithful_depth", "faithfull_depth"),
     "line 5: unknown key 'faithfull_depth' in [automaton]"),
    ("katsura_unknown_key", "[katsura]\na = 2\nb = 1\nc = 3\n", "line 4: unknown key 'c' in [katsura]"),
    ("integer_generators", INTEGER_SPEC.replace("kind = integer", "kind = integer\ngenerators = a"),
     "line 8: unknown key 'generators' in [group]"),
    # An automaton is written as an [automaton] section; [group] takes only the kinds integer and cayley.
    ("automaton_kind", "[graph]\nvertices = v\nedge = x v v\nedge = y v v\n[group]\nkind = automaton\ngenerators = a\n"
     "[action]\nedge = a x y 1\nedge = a y x a\n", "line 5: unknown group kind 'automaton'"),
]


@pytest.mark.parametrize("name,text,message", LOADER_ERRORS, ids=[c[0] for c in LOADER_ERRORS])
def test_loader_errors_are_input_errors_with_their_line(name, text, message, tmp_path, capsys):
    code, lines = run_spec(tmp_path, capsys, text)
    assert code == 3
    assert lines[1:] == [f"error: {message}"]


KATSURA_SPEC = "[katsura]\na = 2\nb = 1\n"
SPEC_ERRORS = [
    ("duplicate_key", INTEGER_SPEC.replace("kind = integer", "kind = integer\nkind = integer"),
     "line 6: duplicate key 'kind' in [group]"),
    ("duplicate_section", INTEGER_SPEC + "[group]\nkind = integer\n", "line 12: duplicate section [group]"),
    ("no_equals", KATSURA_SPEC.replace("a = 2", "a 2"), "line 2: expected 'key = value'"),
    ("matrix_entry", KATSURA_SPEC.replace("a = 2", "a = 2 x"), "line 1: matrix entries must be integers: '2 x'"),
    ("two_builders", KATSURA_SPEC + "[automaton]\nalphabet = 0 1\nmap = a 0 1 1\n",
     "at most one builder section allowed"),
    ("builder_and_action", AUTOMATON_MAP_SPEC + "[action]\nedge = a 0 1 1\n",
     "use either a builder section or explicit graph/group/action sections"),
    ("no_edge_rows", INTEGER_SPEC.replace("edge = e0 v v\nedge = e1 v v\n", ""),
     "line 1: graph needs at least one edge row"),
    ("unknown_kind", INTEGER_SPEC.replace("kind = integer", "kind = free"), "line 6: unknown group kind 'free'"),
    ("short_vertex_row", INTEGER_SPEC + "vertex = 1 v\n", "line 12: vertex rows are 'g vertex image'"),
    ("unknown_vertex", INTEGER_SPEC + "vertex = 1 v x\n", "line 12: unknown vertex label 'x'"),
    ("integer_vertex_generator", INTEGER_SPEC + "vertex = 2 v v\n",
     "line 12: integer backend takes rows for the generator m = 1 only"),
    ("katsura_sizes", "[katsura]\na = 2 0 ; 0 3\nb = 1\n", "matrices must be square and of equal size"),
    ("duplicate_vertex", INTEGER_SPEC.replace("vertices = v", "vertices = v v"), "line 1: duplicate vertex label"),
]


@pytest.mark.parametrize("name,text,message", SPEC_ERRORS, ids=[c[0] for c in SPEC_ERRORS])
def test_spec_errors_are_input_errors(name, text, message, tmp_path, capsys):
    code, lines = run_spec(tmp_path, capsys, text)
    assert code == 3
    assert lines[1:] == [f"error: {message}"]


# Two vertices 1 and 2, with edges (i,j,0) from j to i: (1,2,0) alone does not close, nor meet (1,1,0).
TWO_VERTEX_KATSURA_SPEC = "[katsura]\na = 1 1 ; 1 1\nb = 1 0 ; 0 1\n"
LITERAL_ERRORS = [
    ("empty_path", [ODOMETER, "1", ""], "act", "empty path literal"),
    ("path_composition", [str(TEST_SPECS / "swap_zero_sum.spec"), "1", "a.b"], "act",
     "edges a and b do not compose"),
    ("germ", [ODOMETER, "@v,1;(e0)*"], "lag", "germ literal must be 'alpha,g,beta;xi': '@v,1;(e0)*'"),
    ("infinite_path", [ODOMETER, "((e0)*", "(0)*", "0", "(e0)*"], "model-check",
     "malformed infinite path literal: '((e0)*'"),
    ("corona", [ODOMETER, "(e0)*", "1,(0))*", "0", "(e0)*"], "model-check", "malformed corona literal: '1,(0))*'"),
    ("empty_corona", [ODOMETER, "(e0)*", "", "0", "(e0)*"], "model-check", "empty corona literal"),
    ("open_cycle", [None, "((1,2,0))*", "(0)*", "0", "((1,1,0))*", "--allow-unverified"], "model-check",
     "cycle does not close up"),
    ("prefix_off_cycle", [None, "(1,2,0)((1,1,0))*", "(0)*", "0", "((1,1,0))*", "--allow-unverified"], "model-check",
     "prefix does not meet the cycle"),
]


@pytest.mark.parametrize("name,args,command,message", LITERAL_ERRORS, ids=[c[0] for c in LITERAL_ERRORS])
def test_literal_errors_are_input_errors(name, args, command, message, tmp_path, capsys):
    if args[0] is None:
        args = [tmp_path / "katsura.spec", *args[1:]]
        args[0].write_text(TWO_VERTEX_KATSURA_SPEC, encoding="utf-8")
    assert main([command, str(args[0]), *args[1:]]) == 3
    assert capsys.readouterr().out.splitlines()[1:] == [f"error: {message}"]


def test_a_cayley_vertex_row_swaps_the_vertices(tmp_path, capsys):
    # The swap 1 exchanges u and w and their loops e and f; its restriction, the swap again, acts alike on vertices.
    spec = CAYLEY_SPEC.replace("vertices = v\nedge = e v v\nedge = f v v", "vertices = u w\nedge = e u u\nedge = f w w")
    spec = spec.replace("edge = 1 e f 0\nedge = 1 f e 0", "vertex = 1 u w\nvertex = 1 w u\nedge = 1 e f 1\nedge = 1 f e 1")
    code, lines = run_spec(tmp_path, capsys, spec)
    assert code == 0
    assert lines[1:] == ["graph: ok", "axioms: ok (exact over the group: window of 2 elements, 4 pairs)"]
    triple = load_spec_file(str(tmp_path / "case.spec")).triple
    assert [triple.act_vertex(1, v) for v in (0, 1)] == [1, 0]
