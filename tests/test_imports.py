"""Import footprint: a CLI command loads only the layers it runs, and the package namespace is lazy."""

import os
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
    IdempotentOrder InfPath IntegerGroup KatsuraData LagValue Path PeriodicPath PeriodicSeq PrefixRel
    SelfSimilarTriple StreamPath Tri Triple ZERO Zero act_inf_path action adding_machine all_paths_upto
    builders check_e_star_unitary check_residually_free complement concat corona corona_eq
    corona_identity corona_inv corona_mul default_window edge_path element_eq errors extensions
    finite_triple from_automaton from_katsura graph groupoid groups hausdorff_report idempotent_order
    inf_path_eq integer_triple_from_generator is_cover is_idempotent katsura_2_0 katsura_3_2 lag_eq
    lag_identity lag_inv lag_mul make_graph make_triple mul odometer periodic periodic_path phi_corona
    prefix_compare semigroup shift_left shift_right star stream_path tri unit_idempotent validate_graph
    verify_axioms vertex_path z2_swap
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


def test_namespace_keeps_every_public_name():
    assert len(PUBLIC_NAMES) == 80 and sorted(selfsim.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(selfsim, name) is not None
    assert selfsim.Path is selfsim.graph.Path and selfsim.ZERO is selfsim.semigroup.ZERO
    namespace = {}
    exec("from selfsim import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    assert selfsim.__version__ == "0.1.0" and "Path" in dir(selfsim)
    assert not hasattr(selfsim, "no_such_name")
