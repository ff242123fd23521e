"""Grammar fuzz of the CLI: every argv ends in an exit code 0-3, deterministically.

Arguments are assembled from the literal grammar of the spec they run on
(paths, infinite paths, semigroup elements, germs, corona sequences) with
some malformed pieces mixed in, and from flags with legal, negative and
over-limit values. Legal windows and bounds stay at 3 or below so each call
is cheap. An example with an over-limit value runs under a cap on the
address space of the process, so a regression that allocates in proportion
to a limit of 10**9 fails that example with MemoryError instead of taking the
whole test run down.
"""

import contextlib
import io

try:
    import resource
except ImportError:  # not on every platform: the examples then run uncapped
    resource = None

from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import SPECS
from selfsim.cli import main
from selfsim.specfile import load_spec_file

SPEC_NAMES = sorted(p.stem for p in SPECS.glob("*.spec"))
PATH_SWEEPS = ["residual-free", "e-star-unitary"]  # the commands that take --bound
GERM_COMMANDS = ["germ-eq", "lag", "model-check"]  # the commands that take --depth and --allow-unverified
COMMANDS = ["validate", "act", "phi", "smul", "cover", *PATH_SWEEPS, *GERM_COMMANDS, "hausdorff"]
JUNK = ["", "@", "zz", "(", ")*", "e9", "@nowhere", "1,,1", ";"]
OVER_LIMIT = 10**9
HEADROOM = 512 << 20  # bytes of address space an over-limit example may add, far above a legal run's needs


def _elements(triple):
    group = triple.group
    if hasattr(group, "names"):
        return list(group.names)
    if hasattr(group, "generator_names"):
        names = list(group.generator_names)
        return ["1"] + names + [n + "'" for n in names] + [f"{n}.{n}" for n in names]
    return [str(m) for m in range(-3, 4)]


GRAMMAR = {}
for _name in SPEC_NAMES:
    _t = load_spec_file(str(SPECS / f"{_name}.spec")).triple
    GRAMMAR[_name] = (
        list(_t.graph.edge_labels),
        ["@" + v for v in _t.graph.vertex_labels],
        _elements(_t),
    )


@st.composite
def argvs(draw, commands=COMMANDS):
    name = draw(st.sampled_from(SPEC_NAMES))
    edges, vertices, elements = GRAMMAR[name]

    def pick(options):
        return draw(st.sampled_from(options))

    def junk_or(build):
        return pick(JUNK) if draw(st.integers(0, 9)) == 9 else build()

    def edge_path():
        return ".".join(draw(st.lists(st.sampled_from(edges), min_size=1, max_size=4)))

    def path():
        return pick(vertices) if draw(st.booleans()) else edge_path()

    def inf_path():
        prefix = "" if draw(st.booleans()) else edge_path()
        return f"{prefix}({edge_path()})*"

    def element():
        return junk_or(lambda: pick(elements))

    def triple():
        return f"{path()},{element()},{path()}"

    def germ():
        return junk_or(lambda: f"{triple()};{inf_path()}")

    def corona():
        head = ",".join(element() for _ in range(draw(st.integers(0, 2))))
        body = ",".join(element() for _ in range(draw(st.integers(1, 2))))
        return junk_or(lambda: f"{head}({body})*" if draw(st.booleans()) else body)

    command = pick(commands)
    args = {
        "act": lambda: [element(), junk_or(path)],
        "phi": lambda: [element(), junk_or(path)],
        "smul": lambda: [junk_or(triple), "0" if draw(st.booleans()) else triple()],
        "cover": lambda: [junk_or(path)] + [path() for _ in range(draw(st.integers(1, 4)))],
        "germ-eq": lambda: [germ(), germ()],
        "lag": lambda: [germ()],
        "model-check": lambda: [junk_or(inf_path), corona(), pick(["-1", "0", "1", "x"]),
                                junk_or(inf_path)],
    }.get(command, lambda: [])()
    # Each command gets only the options it takes.
    flags = []
    if command in [*PATH_SWEEPS, *GERM_COMMANDS, "hausdorff"]:
        flags.append(["--window", str(draw(st.sampled_from([1, 0, 2, 3, -1, OVER_LIMIT])))])
    if command in GERM_COMMANDS:
        flags.append(["--depth", str(draw(st.sampled_from([8, 1, 2, 3, 64, 0, -5, OVER_LIMIT])))])
        if draw(st.booleans()):
            flags.append(["--allow-unverified"])
    if command in PATH_SWEEPS:
        flags.append(["--bound", str(draw(st.sampled_from([1, 2, 3, 0, -1, OVER_LIMIT])))])
    if command == "model-check" and draw(st.booleans()):
        flags.append(["--split", pick(["0:0", "1:2", "3", "a:b", "-1:0"])])
    ordered = [token for flag in draw(st.permutations(flags)) for token in flag]
    return [command, str(SPECS / f"{name}.spec"), *args, *ordered]


def _address_space():
    """The bytes of address space this process maps, or None where /proc does not say."""
    try:
        with open("/proc/self/statm") as statm:
            return int(statm.read().split()[0]) * resource.getpagesize()
    except (OSError, ValueError):
        return None


@contextlib.contextmanager
def _memory_cap(argv):
    """Cap the address space at HEADROOM past what is mapped now while an over-limit argv runs."""
    used = _address_space() if str(OVER_LIMIT) in argv and hasattr(resource, "RLIMIT_AS") else None
    if used is None:
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = used + HEADROOM if soft == resource.RLIM_INFINITY else min(used + HEADROOM, soft)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with _memory_cap(argv), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(argvs())
def test_cli_grammar_fuzz(argv):
    code, output = _run(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in output
    assert _run(argv) == (code, output), argv


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(argvs([c for c in COMMANDS if c not in PATH_SWEEPS]), st.sampled_from(["1", "0", "-1", "x"]))
def test_cli_refuses_bound_off_path_sweeps(argv, bound):
    """Only the two path sweeps take --bound: every other command exits 3 at parsing."""
    assert _run([*argv, "--bound", bound]) == (3, "")
