"""Import footprint: a CLI command loads only the layers it runs, and the package namespace is lazy."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import selfsim
from conftest import SPECS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

# The public names of the package.
PUBLIC_NAMES = sorted("""
    AutomatonData AutomatonGroup BoundedSeq CoronaSeq FiniteGroup Germ GermContext Graph GroupBackend
    InfPath IntegerGroup KatsuraData LagValue Path PeriodicPath PeriodicSeq PrefixRel
    SelfSimilarTriple StreamPath Tri Triple ZERO Zero act_inf_path action all_paths_upto
    builders check_e_star_unitary check_residually_free concat corona corona_eq
    corona_mul default_window edge_path element_eq errors finite_triple from_automaton
    from_katsura graph groupoid groups hausdorff_report inf_path_eq
    integer_triple_from_generator is_cover is_idempotent lag_eq
    lag_mul make_graph make_triple mul periodic periodic_path phi_corona prefix_compare
    semigroup shift_left shift_right star stream_path tri unit_idempotent validate_graph verify_axioms
    vertex_path
""".split())


# The child names every module in sys.modules on its last stderr line at exit,
# however it was loaded: by an import statement, importlib or `from . import`.
LIST_MODULES = "import atexit, sys\natexit.register(lambda: print('modules:', *sys.modules, file=sys.stderr))\n"


def _python(*args):
    """Run a fresh interpreter on the checkout's src/; returns (exit code, stdout, modules loaded).

    ``args`` is ``-m module arg...`` (run as ``__main__``, as ``python -m`` does) or ``-c code``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    option, target, *rest = args
    if option == "-m":
        target = f"import runpy\nrunpy.run_module({target!r}, run_name='__main__', alter_sys=True)\n"
    proc = subprocess.run([sys.executable, "-c", LIST_MODULES + target, *rest], capture_output=True, env=env,
                          cwd=ROOT, timeout=60)
    last = proc.stderr.decode().splitlines()[-1]
    assert last.startswith("modules: "), proc.stderr
    return proc.returncode, proc.stdout, set(last.split()[1:])


# Standard-library modules no command needs: argparse pulls in gettext and locale.
UNUSED_STDLIB = {"argparse", "gettext", "locale", "dataclasses"}


@pytest.fixture(scope="module")
def bare():
    """The modules a bare interpreter loads."""
    return _python("-c", "pass")[2]


def test_act_loads_only_the_path_layers(bare):
    code, stdout, modules = _python("-m", "selfsim.cli", "act", str(SPECS / "odometer.spec"), "1", "e0.e0")
    assert code == 0
    assert stdout == (GOLDEN / "act_odometer.txt").read_bytes()
    assert {"selfsim.action", "selfsim.specfile"} <= modules
    assert not modules & {"selfsim.groupoid", "selfsim.semigroup", "selfsim.corona"}
    assert not (modules - bare) & UNUSED_STDLIB


# What every command on a Katsura or integer spec loads besides selfsim.cli, which runs
# as __main__: the spec loader, builders and the finite path layers. An automaton or
# Cayley spec loads its backend's module in place of builders.
CORE = {"action", "builders", "errors", "graph", "groups", "specfile", "tri"}
GERMS = CORE | {"corona", "groupoid", "infinite", "periodic", "sweeps"}
LOADER = CORE - {"builders"}
K32 = "katsura_3_2.spec"

# (command, spec, arguments) -> the exact set of selfsim submodules the command loads.
FOOTPRINTS = [
    (("act", "odometer.spec", "1", "e0.e0"), CORE),
    (("phi", "odometer.spec", "1", "e1"), CORE),
    (("smul", "odometer.spec", "e0,1,e1", "e1.e1,0,e0"), CORE | {"semigroup"}),
    (("cover", "odometer.spec", "@v", "e0", "e1"), CORE | {"semigroup"}),
    (("act", K32, "5", "(1,1,0).(1,1,2)"), CORE),
    (("phi", K32, "5", "(1,1,2)"), CORE),
    (("smul", K32, "(1,1,0),1,(1,1,2)", "(1,1,2),0,(1,1,0)"), CORE | {"semigroup"}),
    (("cover", K32, "@1", "(1,1,0)", "(1,1,1)", "(1,1,2)"), CORE | {"semigroup"}),
    (("validate", "odometer.spec"), CORE | {"sweeps"}),
    (("residual-free", "odometer.spec"), CORE | {"sweeps"}),
    (("validate", K32), CORE | {"sweeps"}),
    (("residual-free", K32), CORE | {"sweeps"}),
    (("hausdorff", "odometer.spec"), CORE | {"sweeps"}),
    (("hausdorff", K32), CORE | {"sweeps"}),
    (("e-star-unitary", "odometer.spec"), CORE | {"semigroup", "sweeps"}),
    (("germ-eq", "odometer.spec", "@v,1,@v;(e0)*", "e1,0,e0;(e0)*"), GERMS),
    (("lag", "odometer.spec", "@v,1,@v;(e1)*"), GERMS),
    (("model-check", "odometer.spec", "e1(e0)*", "1(0)*", "0", "(e0)*"), GERMS),
    (("act", "adding_machine.spec", "a", "0.0"), LOADER | {"automaton"}),
    (("validate", "adding_machine.spec"), LOADER | {"automaton", "sweeps"}),
    (("act", "z2_swap.spec", "1", "e0"), LOADER | {"cayley"}),
    (("validate", "z2_swap.spec"), LOADER | {"cayley", "sweeps"}),
]


@pytest.mark.parametrize("argv, expected", FOOTPRINTS, ids=[" ".join(argv[:2]) for argv, _ in FOOTPRINTS])
def test_each_command_loads_exactly_its_layers(argv, expected, bare):
    command, spec, *rest = argv
    code, stdout, modules = _python("-m", "selfsim.cli", command, str(SPECS / spec), *rest)
    assert code in (0, 1, 2) and b"error:" not in stdout
    assert {m.split(".", 1)[1] for m in modules if m.startswith("selfsim.")} == expected
    assert not (modules - bare) & UNUSED_STDLIB


def test_import_selfsim_loads_no_submodule():
    code, stdout, modules = _python("-c", "import selfsim")
    assert code == 0
    assert "selfsim" in modules and not [m for m in modules if m.startswith("selfsim.")]


def test_the_path_calculus_loads_only_its_errors():
    # Paths are counted in sweeps, so the path calculus reads no enumeration budget from groups.
    code, stdout, modules = _python("-c", "import selfsim.graph")
    assert code == 0
    assert {m for m in modules if m.startswith("selfsim.")} == {"selfsim.graph", "selfsim.errors"}


def test_namespace_keeps_every_public_name():
    assert len(PUBLIC_NAMES) == 67 and sorted(selfsim.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(selfsim, name) is not None
    assert selfsim.Path is selfsim.graph.Path and selfsim.ZERO is selfsim.semigroup.ZERO
    namespace = {}
    exec("from selfsim import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    assert selfsim.__version__ == "0.1.0" and "Path" in dir(selfsim)
    assert not hasattr(selfsim, "no_such_name")


def test_the_graph_membership_test_is_written_only_in_same_graph():
    # graph._same_graph holds the identity-then-equality test of a path's graph: a negated copy
    # of it (x.graph is not g, x.graph != g, or graph is not / != x.graph) anywhere fails here.
    copy = re.compile(r"\.graph\)? (is not|!=) |\bgraph (is not|!=) [\w.]*\.graph\b")
    sources = sorted((ROOT / "src" / "selfsim").glob("*.py"))
    found = [f"{source.name}:{n}" for source in sources
             for n, line in enumerate(source.read_text().splitlines(), 1) if copy.search(line)]
    assert len(sources) > 10 and found == []


def test_the_examples_are_defined_only_by_their_spec_files():
    # builders builds integer triples from tables; the example triples are specs in specs/.
    source = (ROOT / "src" / "selfsim" / "builders.py").read_text()
    assert not re.search(r"\bfrom \.(automaton|cayley) import|\bimport .*\b(automaton|cayley)\b", source)
    for name in ("odometer_katsura", "katsura_3_2", "katsura_2_0", "z2_swap", "adding_machine"):
        assert (SPECS / f"{name}.spec").is_file()
        assert not hasattr(selfsim.builders, name.removesuffix("_katsura"))
