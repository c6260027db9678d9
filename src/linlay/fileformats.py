"""Text formats: line-oriented graphs and layout JSON.

Graph format: a header ``n m``, then one ``u v`` line per edge; lines
starting with ``v`` declare isolated vertices, ``#`` starts a comment.
Layout JSON: {"kind", "pages", "spine": [...], "assignment": {"u v": page}},
where the page count and every page are JSON integers and each edge has
one key ("u v" and "v u" name the same edge).
"""

from __future__ import annotations

import json

from .graphs import Graph, GraphError
from .layouts import LayoutKind, LinearLayout


class FormatError(ValueError):
    pass


def parse_graph(text: str) -> Graph:
    header: tuple[int, int] | None = None
    vertices: set[str] = set()
    edges: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 2:
                raise FormatError(f"line {lineno}: expected header 'n m'")
            try:
                header = (int(tokens[0]), int(tokens[1]))
            except ValueError:
                raise FormatError(f"line {lineno}: header must hold two integers") from None
            continue
        if tokens[0] == "v":
            if len(tokens) != 2:
                raise FormatError(f"line {lineno}: vertex line is 'v NAME'")
            if tokens[1] == "v":
                raise FormatError(f"line {lineno}: the vertex name 'v' is reserved")
            vertices.add(tokens[1])
            continue
        if len(tokens) != 2:
            raise FormatError(f"line {lineno}: expected edge 'u v'")
        u, w = tokens
        if "v" in (u, w):
            raise FormatError(f"line {lineno}: the vertex name 'v' is reserved")
        if u == w:
            raise FormatError(f"line {lineno}: self-loop at {u!r}")
        vertices.update((u, w))
        edges.append((u, w))
    if header is None:
        raise FormatError("empty input: missing 'n m' header")
    n, m = header
    try:
        g = Graph.build(vertices, edges)
    except GraphError as exc:
        raise FormatError(str(exc)) from exc
    if g.m != m:
        raise FormatError(f"header promises {m} edges, found {g.m}")
    if g.n != n:
        raise FormatError(f"header promises {n} vertices, found {g.n}")
    return g


def serialize_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    for v in g.vertices:
        if g.degree(v) == 0:
            lines.append(f"v {v}")
    for u, w in g.edges:
        lines.append(f"{u} {w}")
    return "\n".join(lines) + "\n"


def layout_to_dict(layout: LinearLayout) -> dict:
    return {
        "kind": layout.kind.value,
        "pages": layout.page_count,
        "spine": list(layout.spine),
        "assignment": {f"{u} {w}": p for (u, w), p in sorted(layout.pages.items())},
    }


def _integer(value: object, what: str) -> int:
    """``value`` if it is a JSON integer; floats and booleans are not."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def layout_from_dict(data: dict) -> LinearLayout:
    try:
        kind = LayoutKind(data["kind"])
        pages = _integer(data["pages"], "pages")
        if not isinstance(data["spine"], list) or not isinstance(data["assignment"], dict):
            raise TypeError("spine must be an array and assignment an object")
        spine = tuple(str(v) for v in data["spine"])
        assignment = {}
        for key, p in data["assignment"].items():
            u, w = key.split()
            e = (u, w) if u < w else (w, u)
            if e in assignment:
                raise ValueError(f"the edge {e[0]} {e[1]} is assigned more than once")
            assignment[e] = _integer(p, f"the page of {key!r}")
    except (KeyError, ValueError, TypeError) as exc:
        raise FormatError(f"malformed layout JSON: {exc}") from exc
    return LinearLayout(kind, pages, spine, assignment)


def layout_to_json(layout: LinearLayout) -> str:
    return json.dumps(layout_to_dict(layout), indent=2, sort_keys=True) + "\n"


def layout_from_json(text: str) -> LinearLayout:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    return layout_from_dict(data)
