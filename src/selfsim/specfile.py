"""Spec-file parsing and the textual literal syntax used by the CLI.

A spec file is sectioned key-value text. Either three explicit sections
describe the triple:

    [graph]    vertices = v w          [group]   kind = integer | cayley
               edge = e0 v w                     elements = ... / row = ... (cayley)
    [action]   vertex = g v w          rows for the generator (integer)
               edge = g e f k          or for every element (cayley)

or a single builder section generates everything:

    [katsura]  a = 2 0 ; 0 3           [automaton]  alphabet = 0 1
               b = 1 0 ; 0 2                        map = a 0 1 1
                                                    faithful_depth = true | false

A key that no loader of its section reads is refused with its line.

Literals: paths are dot-separated edge labels or `@v` for a vertex; infinite
paths are `prefix(cycle)*`; group elements are integers, element names, or
generator words like `a.a.b'` with `1` for the identity; semigroup elements
are `alpha,g,beta` or `0`; germs are `alpha,g,beta;xi`; corona sequences are
`g1,g2(g3)*` or a bounded `g1,g2,g3`, which may end in the `~` that a printed
bounded sequence ends in.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .action import SelfSimilarTriple
from .errors import Record, SpecFileError
from .graph import Graph, Path, edge_path, make_graph, vertex_path
from .groups import GroupBackend

# SemigroupElement, InfPath and CoronaSeq (annotations) live in semigroup,
# infinite and corona, which the parsers that need them import. Each kind of
# spec is read by a loader beside its backend (Katsura and integer specs by
# builders), imported where it runs; explicit [action] rows of both kinds and
# [automaton] map rows fill their tables through _edge_tables.


# -- literal parsing ---------------------------------------------------------


def split_top(text: str, sep: str) -> list[str]:
    """Split on a separator at paren depth zero (labels may contain parens)."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_path(graph: Graph, text: str) -> Path:
    text = text.strip()
    if not text:
        raise SpecFileError("empty path literal")
    if text.startswith("@"):
        label = text[1:]
        try:
            v = graph.vertex_id(label)
        except ValueError:
            raise SpecFileError(f"unknown vertex label: {label!r}") from None
        return vertex_path(graph, v)
    edges = []
    for part in split_top(text, "."):
        try:
            edges.append(graph.edge_id(part))
        except ValueError:
            raise SpecFileError(f"unknown edge label: {part!r}") from None
    return edge_path(graph, edges)


def _split_cycle(text: str) -> tuple[str, str] | None:
    """(prefix, cycle) of a literal `prefix(cycle)*` ending in ')*', or None when malformed."""
    body, depth, start = text[:-2], 0, None
    for i, ch in enumerate(body):
        if ch == "(":
            if depth == 0:
                start = i
            depth += 1
        elif ch == ")":
            depth -= 1
    if start is None or depth != 1:
        return None
    return body[:start], body[start + 1 :]


def parse_inf_path(graph: Graph, text: str) -> InfPath:
    """Eventually periodic literal prefix(cycle)*."""
    from .infinite import periodic_path
    text = text.strip()
    if not text.endswith(")*"):
        raise SpecFileError(f"infinite path literal must end in ')*': {text!r}")
    parts = _split_cycle(text)
    if parts is None:
        raise SpecFileError(f"malformed infinite path literal: {text!r}")
    prefix_text, cycle_text = parts
    prefix = parse_path(graph, prefix_text).edges if prefix_text else ()
    cycle = parse_path(graph, cycle_text)
    if cycle.is_vertex:
        raise SpecFileError("cycle part must contain at least one edge")
    return periodic_path(graph, prefix, cycle.edges)


def parse_semigroup_element(t: SelfSimilarTriple, text: str) -> SemigroupElement:
    from .semigroup import ZERO, make_triple
    text = text.strip()
    if text == "0":
        return ZERO
    parts = split_top(text, ",")
    if len(parts) != 3:
        raise SpecFileError(f"semigroup element must be 'alpha,g,beta' or '0': {text!r}")
    return make_triple(t, *_element_parts(t, parts))


def parse_germ_parts(t: SelfSimilarTriple, text: str) -> tuple[Path, object, Path, InfPath]:
    halves = split_top(text.strip(), ";")
    head = split_top(halves[0], ",")
    if len(halves) != 2 or len(head) != 3:
        raise SpecFileError(f"germ literal must be 'alpha,g,beta;xi': {text!r}")
    return (*_element_parts(t, head), parse_inf_path(t.graph, halves[1]))


def _element_parts(t: SelfSimilarTriple, parts: list[str]) -> tuple[Path, object, Path]:
    """alpha, g and beta read in that order from the three parts of an element or germ literal."""
    return parse_path(t.graph, parts[0]), t.group.parse(parts[1].strip()), parse_path(t.graph, parts[2])


def parse_corona(backend: GroupBackend, text: str) -> CoronaSeq:
    """`g1,g2(g3)*` for a periodic class, or `g1,g2,g3` (or `g1,g2,g3~`, as printed) for a bounded stream."""
    from .corona import BoundedSeq, PeriodicSeq
    text = text.strip()

    def entries(chunk: str) -> tuple:
        chunk = chunk.strip()
        if not chunk:
            return ()
        return tuple(backend.parse(p.strip()) for p in split_top(chunk, ","))

    if text.endswith(")*"):
        parts = _split_cycle(text)
        if parts is None:
            raise SpecFileError(f"malformed corona literal: {text!r}")
        prefix, cycle = map(entries, parts)
        if not cycle:
            raise SpecFileError("corona cycle part must be nonempty")
        return PeriodicSeq.make(backend, prefix, cycle)
    values = entries(text[:-1] if text.endswith("~") else text)
    if not values:
        raise SpecFileError("empty corona literal")
    return BoundedSeq.make(backend, values)


# -- spec files --------------------------------------------------------------


class _Section(Record):
    __slots__ = ("name", "line", "rows", "read")  # rows: list of (key, value, line); read: set of keys asked for

    def get(self, key: str, default: str | None = None) -> str | None:
        found = self.all(key)
        if not found:
            return default
        if len(found) > 1:
            raise SpecFileError(f"duplicate key {key!r} in [{self.name}]", self.line)
        return found[0][0]

    def require(self, key: str) -> str:
        value = self.get(key)
        if value is None:
            raise SpecFileError(f"missing key {key!r} in [{self.name}]", self.line)
        return value

    def all(self, key: str) -> list[tuple[str, int]]:
        self.read.add(key)
        return [(v, ln) for k, v, ln in self.rows if k == key]


def _tokenize_sections(text: str) -> dict[str, _Section]:
    sections: dict[str, _Section] = {}
    current: _Section | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name in sections:
                raise SpecFileError(f"duplicate section [{name}]", lineno)
            current = sections[name] = _Section(name, lineno, [], set())
            continue
        if current is None:
            raise SpecFileError("content before any [section]", lineno)
        if "=" not in line:
            raise SpecFileError("expected 'key = value'", lineno)
        key, value = line.split("=", 1)
        current.rows.append((key.strip(), value.strip(), lineno))
    return sections


def _parse_matrix(text: str, line: int) -> list[list[int]]:
    try:
        return [[int(x) for x in row.split()] for row in text.split(";")]
    except ValueError:
        raise SpecFileError(f"matrix entries must be integers: {text!r}", line) from None


class LoadedSpec(Record):
    __slots__ = ("triple", "source")  # SelfSimilarTriple, "explicit" | "katsura" | "automaton"


def load_spec_text(text: str) -> LoadedSpec:
    sections = _tokenize_sections(text)
    builders = [n for n in ("katsura", "automaton") if n in sections]
    explicit = [n for n in ("graph", "group", "action") if n in sections]
    if builders and explicit:
        raise SpecFileError("use either a builder section or explicit graph/group/action sections")
    if len(builders) > 1:
        raise SpecFileError("at most one builder section allowed")
    if builders:
        loaded = _load_builder(sections[builders[0]])
    elif set(explicit) != {"graph", "group", "action"}:
        raise SpecFileError("explicit specs need [graph], [group] and [action] sections")
    else:
        loaded = _load_explicit(sections["graph"], sections["group"], sections["action"])
    for section in sections.values():  # a key no loader asked for would be silently ignored
        for key, _, line in section.rows:
            if key not in section.read:
                raise SpecFileError(f"unknown key {key!r} in [{section.name}]", line)
    return loaded


def load_spec_file(path: str) -> LoadedSpec:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise SpecFileError(f"cannot read spec file: {err}") from None
    return load_spec_text(text)


def _load_builder(section: _Section) -> LoadedSpec:
    if section.name == "katsura":
        from .builders import KatsuraData, from_katsura
        a = _parse_matrix(section.require("a"), section.line)
        b = _parse_matrix(section.require("b"), section.line)
        return LoadedSpec(from_katsura(KatsuraData.make(a, b)), "katsura")
    from .automaton import load_map_section
    return LoadedSpec(load_map_section(section), "automaton")


def _load_explicit(gsec: _Section, grpsec: _Section, asec: _Section) -> LoadedSpec:
    vertices = gsec.require("vertices").split()
    edges = []
    for value, line in gsec.all("edge"):
        parts = value.split()
        if len(parts) != 3:
            raise SpecFileError("edge rows are 'label range source'", line)
        edges.append(tuple(parts))
    if not edges:
        raise SpecFileError("graph needs at least one edge row", gsec.line)
    try:
        graph = make_graph(vertices, edges)
    except ValueError as err:
        raise SpecFileError(str(err), gsec.line) from None

    kind = grpsec.require("kind")
    if kind == "integer":
        from .builders import load_action_sections
    elif kind == "cayley":
        from .cayley import load_action_sections
    else:
        raise SpecFileError(f"unknown group kind {kind!r}", grpsec.line)
    return LoadedSpec(load_action_sections(graph, grpsec, asec), "explicit")


def _action_rows(asec: _Section) -> list[list]:
    """The vertex rows 'g vertex image' and edge rows 'g edge image cocycle', split, with their lines."""
    split = []
    for key, width, shape in (("vertex", 3, "g vertex image"), ("edge", 4, "g edge image cocycle")):
        split.append([(value.split(), line) for value, line in asec.all(key)])
        for parts, line in split[-1]:
            if len(parts) != width:
                raise SpecFileError(f"{key} rows are '{shape}'", line)
    return split


def _resolve(graph: Graph, kind: str, label: str, line: int) -> int:
    """The id of a vertex or edge label (kind "vertex" or "edge") in a row at line."""
    try:
        return (graph.vertex_id if kind == "vertex" else graph.edge_id)(label)
    except ValueError:
        raise SpecFileError(f"unknown {kind} label {label!r}", line) from None


def _edge_tables(names: Sequence[str], labels: Sequence[str], rows: Iterable[tuple], incomplete):
    """(images, cocycles), each indexed [element][edge], from rows (element id, edge id, image id, cocycle).

    Rows are read lazily in file order, so a row's own errors come before the next row's, and a
    later row for an edge replaces an earlier one. ``incomplete(name, missing)`` is the error for
    the first element lacking a row, given the labels of the edges it lacks.
    """
    images = [[None] * len(labels) for _ in names]
    cocycles = [[None] * len(labels) for _ in names]
    for g, e, image, cocycle in rows:
        images[g][e], cocycles[g][e] = image, cocycle
    for name, row in zip(names, images):
        if None in row:
            raise incomplete(name, [label for label, x in zip(labels, row) if x is None])
    return images, cocycles
