"""Exhaustive reference solver over all (spine, page assignment) pairs.

Deliberately free of clever machinery: it extends the spine vertex by
vertex in lexicographic order, assigns pages to each edge as soon as both
endpoints are placed, and backtracks on the first conflict.  More rules
cut the search without changing its order.  A forward check drops a dead
prefix, one with an edge to an unplaced vertex that no page can take any
more.  A twin break places each class of twins (vertices with the same
open or the same closed neighbourhood) in name order.  A reversal break
skips every spine with ``spine[0] > spine[-1]``, the reversal of one that
is searched.  A count on a graph with twins uses the twin break alone and
multiplies the layouts found by the product of ``|class|!``; without
twins it uses the reversal break and doubles for n >= 2.  So the verdict
and the count match plain enumeration.  The returned witness is the
lexicographically first one: smallest feasible spine, then the smallest
page vector over the canonically ordered edges of that spine.
"""

from __future__ import annotations

import math
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
        # width bound only: per page, how many assigned edges span each gap,
        # gap i lying between positions i and i + 1
        self.gaps = None if self.q is None else {p: [0] * g.n for p in self.by_page}
        # unplaced vertices greater than spine[0]
        self.above = 0
        # twin break: each twin's next smaller twin; empty when G has no twins
        classes = g.twin_classes()
        self.twin_prev = {v: u for c in classes for u, v in zip(c, c[1:])}
        # layouts per twin-ordered one: the twin swaps permute freely
        self.orbit = math.prod(math.factorial(len(c)) for c in classes)

    # -- pruning -------------------------------------------------------------

    def _cut_ok(self) -> bool:
        """Width check on the gap right of the placed prefix.

        That gap is spanned by every edge between the placed vertices and
        the rest, ``unplaced_deg`` summed over the placed vertices; each
        such edge, assigned or dangling, takes some page there, so more
        than ``q`` times the number of pages leaves no valid completion.  The count at a gap
        depends only on the vertices left of it, so the gaps of shorter
        prefixes keep the counts they passed with.  The per-page counts of
        assigned edges are checked in ``_assign`` as edges get pages.
        """
        unplaced = self.unplaced_deg
        return sum(unplaced[v] for v in self.spine) <= self.q * self.pages

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
        """Count every valid layout, or return the first feasible spine.

        A count searches the twin-ordered spines and multiplies by the
        number of twin swaps when ``G`` has twins; otherwise it searches
        the spines with ``spine[0] < spine[-1]`` and doubles for n >= 2.
        """
        self.count = 0
        # reversal break: always in find mode, in count mode only without twins
        self.reverse = not (count_all and self.twin_prev)
        found = self._extend(count_all)
        if not count_all:
            return tuple(self.spine) if found else None
        if self.twin_prev:
            return self.count * self.orbit
        # the reversal break kept one layout of each reversed pair
        return 2 * self.count if self.n >= 2 else self.count

    def _extend(self, count_all: bool) -> bool:
        """Place the next vertex, in vertex order, and page its new edges.

        Twin break: swapping two twins maps valid layouts to valid layouts
        of the same page width, and swapping two twins placed out of name
        order gives a smaller spine.  So the lex-first valid spine places
        each twin class in name order, and a candidate whose next smaller
        twin is unplaced is skipped.  The swaps within the classes
        permute the spines freely and each orbit holds exactly one
        twin-ordered spine, so the full count is the number kept times
        the product of ``|class|!``.

        Reversal break: reversing a spine keeps every page valid and the
        page width the same, so for n >= 2 the lex-first valid spine has
        ``spine[0] < spine[-1]``.  A prefix whose unplaced vertices are all
        below ``spine[0]`` can only end below it and is cut.  Each valid
        layout with ``spine[0] > spine[-1]`` is the reversal of exactly one
        that is kept, so the full count is twice the number kept.

        Each break cuts only spines that are not lex-first, so a search for
        the witness uses both.  Reversal does not act freely on the
        twin-ordered spines (for the path ``a-x-b``, reversing
        ``(a, x, b)`` and sorting the twins ``a, b`` gives it back), so a
        count with twins uses the twin break alone.
        """
        i = len(self.spine)
        if i == self.n:
            if count_all:
                self.count += 1
                return False
            return True
        pos, twin_prev = self.pos, self.twin_prev
        above_before = self.above
        for rank, v in enumerate(self.verts):
            if v in pos:
                continue
            if twin_prev and v in twin_prev and twin_prev[v] not in pos:
                continue  # twin break
            if i == 0:
                above = self.n - 1 - rank
            elif v > self.spine[0]:
                above = above_before - 1
            else:
                above = above_before
            if above == 0 and i + 1 < self.n and self.reverse:
                continue  # reversal break
            self.above = above
            self.spine.append(v)
            pos[v] = i
            new_edges = []
            lo = i
            for u in self.g.adjacency[v]:
                self.unplaced_deg[u] -= 1
                if u in pos:
                    new_edges.append(edge(v, u))
                    lo = min(lo, pos[u])
            new_edges.sort()
            if (self.q is None or self._cut_ok()) and self._assign(
                new_edges, 0, lo, count_all
            ):
                return True
            for u in self.g.adjacency[v]:
                self.unplaced_deg[u] += 1
            self.spine.pop()
            del pos[v]
        self.above = above_before
        return False

    def _assign(self, new_edges: list[Edge], idx: int, lo: int, count_all: bool) -> bool:
        """Page the new edges from ``idx`` on in page order, then extend.

        With a width bound, a page is skipped for an edge when some gap
        the edge spans already holds ``q`` of that page's edges: counts
        only grow as more edges get pages.
        """
        if idx == len(new_edges):
            if new_edges and not self._forward_ok(lo):
                return False
            return self._extend(count_all)
        e = new_edges[idx]
        a, b = self.pos[e[0]], self.pos[e[1]]
        if a > b:
            a, b = b, a
        gaps, q = self.gaps, self.q
        for p in range(1, self.pages + 1):
            if self._conflicts(a, b, p):
                continue
            if gaps is not None:
                span = gaps[p]
                if max(span[a:b]) >= q:
                    continue
                for j in range(a, b):
                    span[j] += 1
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
            self.by_page[p].pop()
            if self.stack_kind:
                for j in range(a + 1, b):
                    row[j] -= 1
            else:
                ml.pop()
            if gaps is not None:
                for j in range(a, b):
                    span[j] -= 1
        return False


def _lex_min_assignment(
    g: Graph, spine: tuple[str, ...], kind: LayoutKind, pages: int, q: int | None
) -> dict[Edge, int] | None:
    """Smallest page vector (base-``pages`` counter over canonical edges)."""
    pos = {v: i for i, v in enumerate(spine)}
    edges = list(g.edges)
    assigned: dict[Edge, int] = {}

    def ok_width() -> bool:
        return q is None or page_width(LinearLayout(kind, pages, spine, assigned)) <= q

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
