"""Command-line interface: load a spec file, run checks, evaluate expressions.

Exit codes: 0 success / holds / equal / true; 1 counterexample / distinct /
false; 2 undecided or depth exceeded; 3 input error, usage errors,
out-of-range flags and SELFSIM_* values included. Output is plain text, byte-deterministic for
identical inputs; the first line echoes the command.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .errors import (
    DepthExceededError,
    FreenessNotVerifiedError,
    SelfSimError,
    SpecFileError,
    UndecidedError,
)
from .graph import validate_graph
from .groups import DEFAULT_DEPTH, DEFAULT_PATH_BOUND, DEFAULT_RADIUS, at_least, default_window
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


def _germ_context(triple, args):
    from .groupoid import GermContext
    window = default_window(triple.group, args.window)
    return GermContext(triple, window, args.depth, args.allow_unverified)


def _cmd_validate(triple, args, out):
    from .sweeps import generating_axioms
    window, axioms = generating_axioms(triple)
    graph_report = validate_graph(triple.graph)
    if graph_report.ok:
        out("graph: ok")
    else:
        for problem in graph_report.problems:
            out(f"graph: {problem}")
    if axioms.ok:
        out(f"axioms: ok (exact over the group: window of {len(window)} elements, {axioms.checked_pairs} pairs)")
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
    from .sweeps import check_residually_free, render_certificate
    window = default_window(triple.group, args.window)
    report = check_residually_free(triple, window, path_bound=args.bound)
    if report.kind == "counterexample":
        out(f"counterexample {render_certificate(triple, report.counterexample)}")
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
    ctx = _germ_context(triple, args)
    u = ctx.make(*parse_germ_parts(triple, args.u))
    v = ctx.make(*parse_germ_parts(triple, args.v))
    verdict = ctx.germ_eq(u, v)
    out(str(verdict))
    if verdict.is_equal:
        return OK
    return FAIL if verdict.is_distinct else UNKNOWN


def _cmd_lag(triple, args, out):
    ctx = _germ_context(triple, args)
    u = ctx.make(*parse_germ_parts(triple, args.u))
    out(str(ctx.lag(u)))
    return OK


def _cmd_model_check(triple, args, out):
    ctx = _germ_context(triple, args)
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
    verdict = ctx.model_check(eta, gseq, k, zeta, split=split)
    if verdict.is_equal:
        out("passes")
        return OK
    if verdict.is_distinct:
        out("fails")
        return FAIL
    out(f"undecided at depth {verdict.depth}")
    return UNKNOWN


def _cmd_hausdorff(triple, args, out):
    from .sweeps import hausdorff_report, render_certificate
    window = default_window(triple.group, args.window)
    report = hausdorff_report(triple, window)
    if report.kind == "hausdorff":
        scope = "fully verified" if report.freeness.kind == "holds" else "window-verified"
        out(f"hausdorff ({scope}, window of {report.freeness.window_size} elements)")
        return OK
    certificate = render_certificate(triple, report.freeness.counterexample)
    out(f"not implied by the freeness check: counterexample {certificate}")
    return FAIL


# Every option: (default, value type, metavar, help, least value, SELFSIM_* variable); a flag
# has no value type, and only a limit has a least value. An option's field is its name
# without the dashes, "-" read as "_"; it parses as None when absent if it has a variable.
_OPTIONS = {
    "--help": (None, None, None, "show this help and exit (also -h)", None, None),
    "--window": (DEFAULT_RADIUS, int, "R", "window radius", 0, "SELFSIM_WINDOW"),
    "--bound": (DEFAULT_PATH_BOUND, int, "B", "path length bound", 0, None),
    "--depth": (DEFAULT_DEPTH, int, "D", "depth for infinite computations", 1, "SELFSIM_DEPTH"),
    "--allow-unverified": (False, None, None, "run a germ command past a freeness counterexample", None, None),
    "--split": (None, str, "P:Q", "witness split p:q", None, None),
}

# command -> (handler, positionals after the spec, the options the handler reads, summary);
# a last positional "alphas" takes one or more values.
_COMMANDS = {
    "validate": (_cmd_validate, (), (), "graph conditions and action/cocycle axioms"),
    "act": (_cmd_act, ("g", "path"), (), "image path and cocycle value"),
    "phi": (_cmd_phi, ("g", "path"), (), "cocycle value of g along a path"),
    "smul": (_cmd_smul, ("s", "t"), (), "semigroup product of two triples"),
    "cover": (_cmd_cover, ("beta", "alphas"), (), "do the given idempotents cover e_beta?"),
    "residual-free": (_cmd_residual_free, (), ("--window", "--bound"), "freeness sweep over a window"),
    "e-star-unitary": (_cmd_e_star_unitary, (), ("--window", "--bound"),
                       "non-idempotent dominating an idempotent?"),
    "germ-eq": (_cmd_germ_eq, ("u", "v"), ("--window", "--depth", "--allow-unverified"), "germ equality"),
    "lag": (_cmd_lag, ("u",), ("--window", "--depth", "--allow-unverified"), "lag value of a germ"),
    "model-check": (_cmd_model_check, ("eta", "gseq", "k", "zeta"),
                    ("--window", "--depth", "--allow-unverified", "--split"), "sequence-model membership"),
    "hausdorff": (_cmd_hausdorff, (), ("--window",), "freeness-based Hausdorffness report"),
}


class UsageError(Exception):
    """An argv outside the command grammar; ``command`` names the command it got to, if any."""

    def __init__(self, message: str, command: str | None = None):
        super().__init__(message)
        self.command = command


def _field(option: str) -> str:
    return option[2:].replace("-", "_")


def _spelled(option: str) -> str:
    metavar = _OPTIONS[option][2]
    return f"{option} {metavar}" if metavar else option


def _described(option: str) -> str:
    default, _, _, text, least, variable = _OPTIONS[option]
    return text if least is None else f"{text} (default {default}{f', or {variable}' if variable else ''})"


def _usage(command: str | None = None) -> str:
    if command is None:
        return "usage: selfsim <command> <specfile> [args] [options]"
    _, positionals, options, _ = _COMMANDS[command]
    words = ["<alpha>..." if p == "alphas" else f"<{p}>" for p in positionals]
    words += [f"[{_spelled(name)}]" for name in options]
    return " ".join(["usage: selfsim", command, "<specfile>", *words])


def _help(command: str | None = None) -> str:
    if command is None:
        rows = [f"  {name:<16}{entry[3]}" for name, entry in _COMMANDS.items()]
        return "\n".join([
            _usage(), "", "self-similar graph action calculator", "", "commands:", *rows, "",
            "selfsim <command> --help lists the arguments and options of one command.",
        ])
    options, summary = _COMMANDS[command][2:]
    rows = [f"  {_spelled(name):<22}{_described(name)}" for name in ("--help", *options)]
    return "\n".join([_usage(command), "", summary, "", "options:", *rows])


def _classify(token: str, names: tuple):
    """None for a value; else (option, explicit value or None), the option None when unknown.

    A token is a value when it does not start with "-", is "-" alone, starts
    with "-" and a digit (a negative integer or corona literal), or contains a
    space without naming an option. "--name" may be any unique prefix of an
    option, with "=value" attached.
    """
    if token[:1] != "-" or token == "-" or token[1:2].isdecimal():
        return None
    if token[1] == "h":  # -h alone is help; argparse versions disagree on what -h... with more means
        return ("--help", None) if token == "-h" else (None, None)
    prefix, eq, value = token.partition("=")
    matches = [name for name in names if name.startswith(prefix)]
    if len(matches) == 1:
        return matches[0], value if eq else None
    return None if " " in token else (None, None)


def parse_args(argv: list):
    """The fields of one command line, or the help text when it asks for help.

    Raises UsageError for an argv outside the grammar of the command table.
    """
    if not argv:
        raise UsageError("a command is required")
    command, *rest = argv
    if command == "-h" or (len(command) > 2 and "--help".startswith(command)):
        return _help()
    if command not in _COMMANDS:
        raise UsageError(f"unknown command {command!r} (choose from {', '.join(_COMMANDS)})")
    _, positionals, options, _ = _COMMANDS[command]
    names = ("--help", *options)
    fields = {"command": command}
    fields.update((_field(name), None if _OPTIONS[name][5] else _OPTIONS[name][0]) for name in names[1:])
    end = rest.index("--") if "--" in rest else len(rest)
    blocks = [[]]  # the runs of values between options
    unknown = []
    tokens = iter(rest[:end])
    for token in tokens:
        kind = _classify(token, names)
        if kind is None:
            blocks[-1].append(token)
            continue
        blocks.append([])
        name, value = kind
        if name is None:
            unknown.append(token)
        elif _OPTIONS[name][1] is None:
            if value is not None:
                raise UsageError(f"{name} takes no value, got {value!r}", command)
            if name == "--help":
                return _help(command)
            fields[_field(name)] = True
        else:
            if value is None:
                value = next(tokens, None)
                if value is None or _classify(value, names) is not None:
                    raise UsageError(f"{name} expects one value", command)
            try:
                fields[_field(name)] = _OPTIONS[name][1](value)
            except ValueError:
                raise UsageError(f"{name} must be an integer, got {value!r}", command) from None
    if rest[end:] == ["--"] and not blocks[-1]:
        unknown.append("--")  # a last "--" straight after an option separates nothing
    blocks[-1] += rest[end + 1:]
    # Each run of values fills the next positionals; "alphas" takes all that are left of its run.
    pending = ["spec", *positionals]
    for block in blocks:
        taken, pending = pending[:len(block)], pending[len(block):]
        fields.update(zip(taken, block))
        if taken[-1:] == ["alphas"]:
            fields["alphas"] = block[len(taken) - 1:]
        else:
            unknown += block[len(taken):]
    if pending:
        missing = ", ".join("alpha" if name == "alphas" else name for name in pending)
        raise UsageError(f"missing arguments: {missing}", command)
    if unknown:
        raise UsageError(f"unrecognised arguments: {' '.join(unknown)}", command)
    return SimpleNamespace(**fields)


def _write(text: str) -> None:
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader left; keep the exit code, and silence the flush at shutdown.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parse_args(argv)
    except UsageError as err:
        print(_usage(err.command), f"selfsim: error: {err}", sep="\n", file=sys.stderr)
        return INPUT_ERROR
    if isinstance(args, str):
        _write(args)
        return OK

    lines: list[str] = []

    def out(text: str):
        lines.append(text)

    echo_args = argv.copy()
    echo_args.remove(args.spec)
    out("> " + " ".join(echo_args))
    handler = _COMMANDS[args.command][0]
    try:
        # Each limit the command takes: its flag, else its SELFSIM_* variable, else its default.
        for option in _COMMANDS[args.command][2]:
            default, _, _, _, least, variable = _OPTIONS[option]
            name, value = option, getattr(args, _field(option))
            text = os.environ.get(variable) if value is None and variable else None
            if text is not None:
                name = variable
                try:
                    value = int(text)
                except ValueError:
                    raise ValueError(f"{name} must be an integer, got {text!r}") from None
            if least is not None:
                setattr(args, _field(option), at_least(name, default if value is None else value, least))
        # An oversize window or path bound is refused where it is built, before any step.
        code = handler(load_spec_file(args.spec).triple, args, out)
    except (UndecidedError, DepthExceededError) as err:
        out(f"undecided: {err}")
        code = UNKNOWN
    except FreenessNotVerifiedError as err:
        out(f"refused: freeness counterexample {err.certificate}; pass --allow-unverified to proceed")
        code = INPUT_ERROR
    except SelfSimError as err:
        out(f"error: {err}")
        code = INPUT_ERROR
    except ValueError as err:
        out(f"error: {err}")
        code = INPUT_ERROR
    _write("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
