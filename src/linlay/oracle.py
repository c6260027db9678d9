"""Exhaustive reference solver over all (spine, page assignment) pairs.

Deliberately free of clever machinery: it extends the spine vertex by
vertex in lexicographic order, assigns pages to each edge as soon as both
endpoints are placed, and backtracks on the first conflict.  Pruning only
discards partial states that already violate a constraint, so the verdict
matches plain enumeration.  The returned witness is the lexicographically
first one: smallest feasible spine, then the smallest page vector over the
canonically ordered edges of that spine.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Edge, Graph, edge
from .layouts import LayoutKind, LinearLayout, _pair_conflicts, page_width, validate_layout

DEFAULT_GUARD = 12


class OracleSizeError(RuntimeError):
    """Instance exceeds the configured size guard; not a feasibility verdict."""


@dataclass(frozen=True)
class OracleQuery:
    graph: Graph
    kind: LayoutKind
    pages: int
    max_width: int | None = None

    def __post_init__(self) -> None:
        if self.pages < 1:
            raise ValueError("pages must be at least 1")
        if self.max_width is not None and self.max_width < 0:
            raise ValueError("max_width must be nonnegative when given")


def _guard_check(query: OracleQuery, guard: int) -> None:
    if query.graph.n > guard:
        raise OracleSizeError(
            f"instance has {query.graph.n} vertices, above the guard of {guard}; "
            "raise the guard explicitly to force the search"
        )


class _Search:
    def __init__(self, query: OracleQuery):
        g = query.graph
        self.g = g
        self.kind = query.kind
        self.stack_kind = query.kind is LayoutKind.STACK
        self.pages = query.pages
        self.q = query.max_width
        self.verts = list(g.vertices)
        self.n = g.n
        self.spine: list[str] = []
        self.pos: dict[str, int] = {}
        self.assigned: dict[Edge, int] = {}
        # per page: position pairs (a, b) with a < b of assigned edges
        self.by_page: dict[int, list[tuple[int, int]]] = {
            p: [] for p in range(1, query.pages + 1)
        }
        self.used: set[str] = set()

    # -- pruning -------------------------------------------------------------

    def _width_ok(self) -> bool:
        """Per-gap check over the placed prefix.

        Sound for partial states: per-page counts use only assigned edges,
        the total count adds dangling edges (one endpoint placed), which
        must eventually occupy some page.
        """
        if self.q is None:
            return True
        k = len(self.spine)
        q = self.q
        total = [0] * k
        for pairs in self.by_page.values():
            if not pairs:
                continue
            row = [0] * k
            for a, b in pairs:
                for i in range(a, b):
                    row[i] += 1
                    total[i] += 1
            if max(row) > q:
                return False
        pos = self.pos
        for e in self.g.edges:
            if e in self.assigned:
                continue
            ina, inb = e[0] in pos, e[1] in pos
            if ina == inb:
                continue
            a = pos[e[0]] if ina else pos[e[1]]
            for i in range(a, k):
                total[i] += 1
        cap_total = q * self.pages
        return max(total, default=0) <= cap_total

    def _conflicts(self, a1: int, b1: int, p: int) -> bool:
        # Kept inline: this is the search's inner loop, and a shared position
        # predicate made solve_exhaustive 24-38% slower (ROADMAP item 5).
        stack = self.stack_kind
        for a2, b2 in self.by_page[p]:
            if a1 == a2 or a1 == b2 or b1 == a2 or b1 == b2:
                continue  # shared endpoint
            if stack:
                if a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1:
                    return True
            else:
                if a1 < a2 < b2 < b1 or a2 < a1 < b1 < b2:
                    return True
        return False

    # -- enumeration -----------------------------------------------------------

    def run(self, count_all: bool) -> int | tuple[str, ...] | None:
        """Count all full solutions, or return the first feasible spine."""
        self.count = 0
        found = self._extend(count_all)
        if count_all:
            return self.count
        return tuple(self.spine) if found else None

    def _extend(self, count_all: bool) -> bool:
        if len(self.spine) == self.n:
            if count_all:
                self.count += 1
                return False
            return True
        for v in self.verts:
            if v in self.used:
                continue
            i = len(self.spine)
            self.spine.append(v)
            self.pos[v] = i
            self.used.add(v)
            new_edges = sorted(edge(v, u) for u in self.g.neighbors(v) if u in self.pos and u != v)
            if self._assign(new_edges, 0, count_all):
                return True
            self.spine.pop()
            del self.pos[v]
            self.used.remove(v)
        return False

    def _assign(self, new_edges: list[Edge], idx: int, count_all: bool) -> bool:
        if idx == len(new_edges):
            if not self._width_ok():
                return False
            return self._extend(count_all)
        e = new_edges[idx]
        a, b = self.pos[e[0]], self.pos[e[1]]
        if a > b:
            a, b = b, a
        for p in range(1, self.pages + 1):
            if self._conflicts(a, b, p):
                continue
            self.assigned[e] = p
            self.by_page[p].append((a, b))
            if self._assign(new_edges, idx + 1, count_all):
                return True
            del self.assigned[e]
            self.by_page[p].pop()
        return False


def _lex_min_assignment(
    g: Graph, spine: tuple[str, ...], kind: LayoutKind, pages: int, q: int | None
) -> dict[Edge, int] | None:
    """Smallest page vector (base-``pages`` counter over canonical edges)."""
    pos = {v: i for i, v in enumerate(spine)}
    edges = list(g.edges)
    assigned: dict[Edge, int] = {}

    def ok_width() -> bool:
        if q is None:
            return True
        per: dict[int, list[int]] = {}
        for e, p in assigned.items():
            a, b = sorted((pos[e[0]], pos[e[1]]))
            row = per.setdefault(p, [0] * len(spine))
            for i in range(a, b):
                row[i] += 1
        return all(c <= q for row in per.values() for c in row)

    def rec(idx: int) -> bool:
        if idx == len(edges):
            return ok_width()
        e = edges[idx]
        for p in range(1, pages + 1):
            if any(
                fp == p and _pair_conflicts(kind, pos, e, f) for f, fp in assigned.items()
            ):
                continue
            assigned[e] = p
            if ok_width() and rec(idx + 1):
                return True
            del assigned[e]
        return False

    return dict(assigned) if rec(0) else None


def solve_exhaustive(query: OracleQuery, guard: int = DEFAULT_GUARD) -> LinearLayout | None:
    """Lexicographically first valid layout, or None if none exists."""
    _guard_check(query, guard)
    g = query.graph
    if g.n == 0:
        return LinearLayout(query.kind, query.pages, (), {})
    spine = _Search(query).run(count_all=False)
    if spine is None:
        return None
    pages = _lex_min_assignment(g, spine, query.kind, query.pages, query.max_width)
    assert pages is not None, "feasible spine lost its assignment"
    layout = LinearLayout(query.kind, query.pages, spine, pages)
    report = validate_layout(g, layout)
    assert report.ok, f"oracle produced an invalid layout: {report.violations!r}"
    if query.max_width is not None:
        assert page_width(layout) <= query.max_width
    return layout


def solve_exhaustive_all(query: OracleQuery, guard: int = DEFAULT_GUARD) -> int:
    """Exact number of valid (spine, assignment) pairs, no symmetry quotient."""
    _guard_check(query, guard)
    if query.graph.n == 0:
        return 1
    result = _Search(query).run(count_all=True)
    assert isinstance(result, int)
    return result
