"""Import footprint: a CLI command loads only the layers it runs, and the package namespace is lazy."""

import os
import subprocess
import sys
from pathlib import Path

import selfsim
from conftest import SPECS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

# The public names of the package, as the eager __init__ exported them.
PUBLIC_NAMES = sorted("""
    AutomatonData AutomatonGroup BoundedSeq CoronaSeq FiniteGroup Germ GermContext Graph GroupBackend
    IdempotentOrder InfPath IntegerGroup KatsuraData LagValue Path PeriodicPath PeriodicSeq PrefixRel
    SelfSimilarTriple StreamPath Tri Triple ZERO Zero act_inf_path act_infinite action adding_machine
    all_paths_upto builders capital_phi check_e_star_unitary check_residually_free complement concat
    corona corona_eq corona_identity corona_inv corona_mul default_window edge_path element_eq errors
    extensions finite_triple from_automaton from_katsura graph groupoid groups hausdorff_report
    idempotent_order inf_path_eq integer_triple_from_generator inverse_cocycle_check is_cover
    is_idempotent katsura_2_0 katsura_3_2 lag_eq lag_identity lag_inv lag_mul make_graph make_triple mul
    odometer periodic periodic_path phi_corona prefix_compare semigroup shift_left shift_right star
    stream_path tri unit_idempotent validate_graph verify_axioms vertex_path z2_swap
""".split())


def _python(*args):
    """Run a fresh interpreter on the checkout's src/; returns (exit code, stdout, modules imported)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True, env=env,
                          cwd=ROOT, timeout=60)
    # -X importtime writes one "import time: self | cumulative | name" line per module imported.
    modules = {line.split("|")[2].strip() for line in proc.stderr.decode().splitlines()
               if line.startswith("import time:") and line.count("|") == 2}
    return proc.returncode, proc.stdout, modules


def test_act_loads_only_the_path_layers():
    code, stdout, modules = _python("-m", "selfsim.cli", "act", str(SPECS / "odometer.spec"), "1", "e0.e0")
    assert code == 0
    assert stdout == (GOLDEN / "act_odometer.txt").read_bytes()
    assert {"selfsim.action", "selfsim.specfile"} <= modules
    assert not modules & {"selfsim.groupoid", "selfsim.semigroup", "selfsim.corona"}
    bare = _python("-c", "pass")[2]
    assert "dataclasses" not in modules - bare


def test_import_selfsim_loads_no_submodule():
    code, stdout, modules = _python("-c", "import selfsim")
    assert code == 0
    assert "selfsim" in modules and not [m for m in modules if m.startswith("selfsim.")]


def test_namespace_keeps_every_public_name():
    assert len(PUBLIC_NAMES) == 83 and sorted(selfsim.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(selfsim, name) is not None
    assert selfsim.Path is selfsim.graph.Path and selfsim.ZERO is selfsim.semigroup.ZERO
    namespace = {}
    exec("from selfsim import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    assert selfsim.__version__ == "0.1.0" and "Path" in dir(selfsim)
    assert not hasattr(selfsim, "no_such_name")
