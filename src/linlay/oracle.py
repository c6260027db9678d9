"""Exhaustive reference solver over all (spine, page assignment) pairs.

Deliberately free of clever machinery: it extends the spine vertex by
vertex in lexicographic order, assigns pages to each edge as soon as both
endpoints are placed, and backtracks on the first conflict.  Two more
rules cut the search without changing its order: a forward check drops a
dead prefix, one with an edge to an unplaced vertex that no page can take
any more, and a reversal break skips every spine with ``spine[0] >
spine[-1]``, the reversal of one that is searched; counting doubles the
number of layouts found for n >= 2.  So the verdict and the count match
plain enumeration.  The returned witness is the lexicographically first
one: smallest feasible spine, then the smallest page vector over the
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
        # neighbours of each vertex that are not placed yet
        self.unplaced_deg = {v: len(g.adjacency[v]) for v in g.vertices}
        # stack: per page, how many assigned edges pass strictly over each position
        self.cover = {p: [0] * g.n for p in self.by_page}
        # queue: per page, the running maximum of the left ends of assigned edges
        self.max_left = {p: [-1] for p in self.by_page}
        # unplaced vertices greater than spine[0]
        self.above = 0

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

    def _forward_ok(self, lo: int) -> bool:
        """Forward check: every dangling edge still has a page it may take.

        A dangling edge has one endpoint placed, at position ``a``, and its
        other endpoint unplaced, so that endpoint lands right of the whole
        prefix.  On a stack page every assigned edge ``(x, y)`` with
        ``x < a < y`` crosses it; on a queue page every assigned edge with
        ``a < x`` nests inside it.  Assigned edges keep their pages in every
        completion, so a dangling edge with all pages ruled out makes the
        prefix dead, and cutting it loses no solution.

        Called once the newest vertex, at position ``k``, has pages for its
        edges, whose left ends are at least ``lo``; the previous prefix
        passed the check.  Placing a vertex only removes dangling edges, so
        a stack prefix can die only at a position whose cover count just
        grew, strictly inside ``(lo, k)``.  A queue page whose largest left
        end is ``x`` rules out every ``a < x``, so a queue prefix is dead
        exactly when a placed vertex left of the smallest such ``x`` over
        the pages still has an unplaced neighbour.
        """
        spine, unplaced = self.spine, self.unplaced_deg
        if self.stack_kind:
            rows = self.cover.values()
            for i in range(lo + 1, len(spine) - 1):
                if unplaced[spine[i]] and all(row[i] for row in rows):
                    return False
            return True
        bound = min(ml[-1] for ml in self.max_left.values())
        return not any(unplaced[spine[i]] for i in range(bound))

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
        """Count the full solutions with ``spine[0] < spine[-1]``, or return
        the first feasible spine."""
        self.count = 0
        found = self._extend(count_all)
        if count_all:
            return self.count
        return tuple(self.spine) if found else None

    def _extend(self, count_all: bool) -> bool:
        """Place the next vertex, in vertex order, and page its new edges.

        Reversal break: reversing a spine keeps every page valid and the
        page width the same, so for n >= 2 the lex-first valid spine has
        ``spine[0] < spine[-1]``.  A prefix whose unplaced vertices are all
        below ``spine[0]`` can only end below it and is cut.  Each valid
        layout with ``spine[0] > spine[-1]`` is the reversal of exactly one
        that is kept, so the full count is twice the number kept.
        """
        i = len(self.spine)
        if i == self.n:
            if count_all:
                self.count += 1
                return False
            return True
        above_before = self.above
        for rank, v in enumerate(self.verts):
            if v in self.pos:
                continue
            if i == 0:
                above = self.n - 1 - rank
            elif v > self.spine[0]:
                above = above_before - 1
            else:
                above = above_before
            if above == 0 and i + 1 < self.n:
                continue  # reversal break
            self.above = above
            self.spine.append(v)
            self.pos[v] = i
            new_edges = []
            lo = i
            for u in self.g.adjacency[v]:
                self.unplaced_deg[u] -= 1
                if u in self.pos:
                    new_edges.append(edge(v, u))
                    lo = min(lo, self.pos[u])
            new_edges.sort()
            if self._assign(new_edges, 0, lo, count_all):
                return True
            for u in self.g.adjacency[v]:
                self.unplaced_deg[u] += 1
            self.spine.pop()
            del self.pos[v]
        self.above = above_before
        return False

    def _assign(self, new_edges: list[Edge], idx: int, lo: int, count_all: bool) -> bool:
        if idx == len(new_edges):
            if new_edges and not self._forward_ok(lo):
                return False
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
            if self.stack_kind:
                row = self.cover[p]
                for j in range(a + 1, b):
                    row[j] += 1
            else:
                ml = self.max_left[p]
                ml.append(max(ml[-1], a))
            if self._assign(new_edges, idx + 1, lo, count_all):
                return True
            del self.assigned[e]
            self.by_page[p].pop()
            if self.stack_kind:
                for j in range(a + 1, b):
                    row[j] -= 1
            else:
                ml.pop()
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
    # the reversal break kept one layout of each reversed pair
    return 2 * result if query.graph.n >= 2 else result
