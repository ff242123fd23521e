"""Command-line interface: load a spec file, run checks, evaluate expressions.

Exit codes: 0 success / holds / equal / true; 1 counterexample / distinct /
false; 2 undecided or depth exceeded; 3 input error, out-of-range flags and
SELFSIM_* values included. Output is plain text, byte-deterministic for
identical inputs; the first line echoes the command.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .errors import (
    DepthExceededError,
    FreenessNotVerifiedError,
    SelfSimError,
    SpecFileError,
    UndecidedError,
)
from .graph import validate_graph
from .groups import IntegerGroup, check_window_radius, default_window
from .specfile import (
    load_spec_file,
    parse_corona,
    parse_germ_parts,
    parse_inf_path,
    parse_path,
    parse_semigroup_element,
)

# Handlers import sweeps, semigroup and groupoid themselves: a command loads only what it runs.

OK, FAIL, UNKNOWN, INPUT_ERROR = 0, 1, 2, 3


def _at_least(name: str, value: int, least: int) -> int:
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


def _env_int(name: str, fallback: int, least: int) -> int:
    text = os.environ.get(name)
    if text is None:
        return fallback
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {text!r}") from None
    return _at_least(name, value, least)


def default_depth() -> int:
    return _env_int("SELFSIM_DEPTH", 64, 1)


def default_window_radius() -> int:
    return _env_int("SELFSIM_WINDOW", 4, 0)


def _counterexample_line(triple, g, edge: int) -> str:
    gname = "m" if isinstance(triple.group, IntegerGroup) else "g"
    return f"({gname}={triple.group.render(g)}, e={triple.graph.edge_labels[edge]})"


def _germ_context(triple, args, out):
    from .groupoid import GermContext
    window = default_window(triple.group, args.window)
    return GermContext(
        triple,
        window=window,
        depth=args.depth,
        allow_unverified=getattr(args, "allow_unverified", False),
    )


def _cmd_validate(triple, args, out):
    from .sweeps import verify_axioms
    graph_report = validate_graph(triple.graph)
    if graph_report.ok:
        out("graph: ok")
    else:
        for problem in graph_report.problems:
            out(f"graph: {problem}")
    window = default_window(triple.group, args.window)
    axioms = verify_axioms(triple, window)
    if axioms.ok:
        out(f"axioms: ok (window of {len(window)} elements, {axioms.checked_pairs} pairs)")
    else:
        for v in axioms.violations:
            out(f"axioms: {v.law} violated: {v.detail}")
        for v in axioms.undecided:
            out(f"axioms: {v.law} undecided: {v.detail}")
    if graph_report.ok and axioms.ok:
        return OK
    return UNKNOWN if (not axioms.violations and axioms.undecided and graph_report.ok) else FAIL


def _cmd_act(triple, args, out):
    g = triple.group.parse(args.g)
    path = parse_path(triple.graph, args.path)
    image, cocycle = triple.act_path(g, path)
    out(f"{image} ; cocycle {triple.group.render(cocycle)}")
    return OK


def _cmd_phi(triple, args, out):
    g = triple.group.parse(args.g)
    path = parse_path(triple.graph, args.path)
    out(triple.group.render(triple.act_path(g, path)[1]))
    return OK


def _cmd_smul(triple, args, out):
    from .semigroup import mul, render
    s = parse_semigroup_element(triple, args.s)
    u = parse_semigroup_element(triple, args.t)
    out(render(triple, mul(triple, s, u)))
    return OK


def _cmd_cover(triple, args, out):
    from .semigroup import is_cover, unit_idempotent
    target = unit_idempotent(triple, parse_path(triple.graph, args.beta))
    members = [unit_idempotent(triple, parse_path(triple.graph, a)) for a in args.alphas]
    covered = is_cover(triple, members, target)
    out(f"cover: {'true' if covered else 'false'}")
    return OK if covered else FAIL


def _cmd_residual_free(triple, args, out):
    from .sweeps import check_residually_free
    window = default_window(triple.group, args.window)
    report = check_residually_free(triple, window, path_bound=args.bound)
    for failure in report.consistency_failures:
        out(f"consistency: {failure}")
    if report.kind == "counterexample":
        g, e = report.counterexample
        out(f"counterexample {_counterexample_line(triple, g, e)}")
        return FAIL
    if report.kind == "holds":
        out(f"holds (all {report.window_size} elements swept)")
        return OK
    out(f"no counterexample in window of {report.window_size} elements; unknown beyond window")
    return UNKNOWN


def _cmd_e_star_unitary(triple, args, out):
    from .semigroup import check_e_star_unitary, render
    window = default_window(triple.group, args.window)
    report = check_e_star_unitary(triple, window, path_bound=args.bound)
    if report.kind == "counterexample":
        s, e = report.counterexample
        out(f"counterexample s={render(triple, s)}, e={render(triple, e)}")
        return FAIL
    if report.kind == "holds":
        out(f"holds (all {report.window_size} elements swept, paths to length {args.bound})")
        return OK
    out(
        f"no counterexample in window of {report.window_size} elements"
        f" (paths to length {args.bound}); unknown beyond window"
    )
    return UNKNOWN


def _cmd_germ_eq(triple, args, out):
    ctx = _germ_context(triple, args, out)
    u = ctx.make(*parse_germ_parts(triple, args.u))
    v = ctx.make(*parse_germ_parts(triple, args.v))
    verdict = ctx.germ_eq(u, v, args.depth)
    out(str(verdict))
    if verdict.is_equal:
        return OK
    return FAIL if verdict.is_distinct else UNKNOWN


def _cmd_lag(triple, args, out):
    ctx = _germ_context(triple, args, out)
    u = ctx.make(*parse_germ_parts(triple, args.u))
    out(str(ctx.lag(u, args.depth)))
    return OK


def _cmd_model_check(triple, args, out):
    ctx = _germ_context(triple, args, out)
    eta = parse_inf_path(triple.graph, args.eta)
    gseq = parse_corona(triple.group, args.gseq)
    zeta = parse_inf_path(triple.graph, args.zeta)
    try:
        k = int(args.k)
    except ValueError:
        raise SpecFileError(f"lag shift must be an integer: {args.k!r}") from None
    split = None
    if args.split:
        try:
            p, q = (int(x) for x in args.split.split(":"))
        except ValueError:
            raise SpecFileError(f"split must be 'p:q': {args.split!r}") from None
        split = (p, q)
    verdict = ctx.model_check(eta, gseq, k, zeta, depth=args.depth, split=split)
    if verdict.is_equal:
        out("passes")
        return OK
    if verdict.is_distinct:
        out("fails")
        return FAIL
    out(f"undecided at depth {args.depth}")
    return UNKNOWN


def _cmd_hausdorff(triple, args, out):
    from .groupoid import hausdorff_report
    window = default_window(triple.group, args.window)
    report = hausdorff_report(triple, window)
    if report.kind == "hausdorff":
        scope = "fully verified" if report.freeness.kind == "holds" else "window-verified"
        out(f"hausdorff ({scope}, window of {report.freeness.window_size} elements)")
        return OK
    g, e = report.freeness.counterexample
    out(f"not implied by the freeness check: counterexample {_counterexample_line(triple, g, e)}")
    return FAIL


_COMMANDS = {
    "validate": (_cmd_validate, (), "graph conditions and action/cocycle axioms"),
    "act": (_cmd_act, ("g", "path"), "image path and cocycle value"),
    "phi": (_cmd_phi, ("g", "path"), "cocycle value of g along a path"),
    "smul": (_cmd_smul, ("s", "t"), "semigroup product of two triples"),
    "cover": (_cmd_cover, ("beta", "alphas"), "do the given idempotents cover e_beta?"),
    "residual-free": (_cmd_residual_free, (), "freeness sweep over a window"),
    "e-star-unitary": (_cmd_e_star_unitary, (), "non-idempotent dominating an idempotent?"),
    "germ-eq": (_cmd_germ_eq, ("u", "v"), "germ equality"),
    "lag": (_cmd_lag, ("u",), "lag value of a germ"),
    "model-check": (_cmd_model_check, ("eta", "gseq", "k", "zeta"), "sequence-model membership"),
    "hausdorff": (_cmd_hausdorff, (), "freeness-based Hausdorffness report"),
}


# The commands that sweep paths and so take --bound.
_PATH_SWEEPS = ("residual-free", "e-star-unitary")

# Each argparse parser reads a token as a positional when it matches its
# (private) _negative_number_matcher; the default takes only plain negative
# numbers, so a corona literal such as -1,0(0)* would be read as an unknown
# option. No option here starts with a digit, so every token that starts
# with "-" and a digit is a value.
_NEGATIVE_LEADING = re.compile(r"^-\d")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfsim", description="self-similar graph action calculator"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, positionals, summary) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p._negative_number_matcher = _NEGATIVE_LEADING
        p.add_argument("spec", help="spec file path")
        for pos in positionals:
            if pos == "alphas":
                p.add_argument("alphas", nargs="+", metavar="alpha")
            else:
                p.add_argument(pos)
        p.add_argument("--window", type=int, default=None, help="window radius")
        if name in _PATH_SWEEPS:
            p.add_argument("--bound", type=int, default=4, help="path length bound")
        p.add_argument("--depth", type=int, default=None, help="depth for infinite computations")
        p.add_argument("--allow-unverified", action="store_true", dest="allow_unverified")
        if name == "model-check":
            p.add_argument("--split", default=None, help="witness split p:q")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_err:
        return INPUT_ERROR if exit_err.code not in (0, None) else 0

    lines: list[str] = []

    def out(text: str):
        lines.append(text)

    echo_args = argv.copy()
    try:
        echo_args.remove(args.spec)
    except ValueError:
        pass
    out("> " + " ".join(echo_args))
    handler = _COMMANDS[args.command][0]
    try:
        if args.window is None:
            args.window = default_window_radius()
        if args.depth is None:
            args.depth = default_depth()
        _at_least("--window", args.window, 0)
        _at_least("--depth", args.depth, 1)
        if args.command in _PATH_SWEEPS:
            _at_least("--bound", args.bound, 0)
        triple = load_spec_file(args.spec).triple
        # Oversize limits are refused before anything is built.
        check_window_radius(triple.group, args.window)
        if args.command in _PATH_SWEEPS:
            from .sweeps import check_path_bound
            check_path_bound(triple.graph, args.bound)
        code = handler(triple, args, out)
    except (UndecidedError, DepthExceededError) as err:
        out(f"undecided: {err}")
        code = UNKNOWN
    except FreenessNotVerifiedError as err:
        out(f"refused: {err}")
        code = INPUT_ERROR
    except SelfSimError as err:
        out(f"error: {err}")
        code = INPUT_ERROR
    except ValueError as err:
        out(f"error: {err}")
        code = INPUT_ERROR
    try:
        print("\n".join(lines), flush=True)
    except BrokenPipeError:
        # The reader left; keep the exit code, and silence the flush at shutdown.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
