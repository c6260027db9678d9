"""Exhaustive reference solver over all (spine, page assignment) pairs.

It extends the spine vertex by vertex in lexicographic order, assigns
pages to each edge as soon as both endpoints are placed, and backtracks
on the first conflict.  The search runs on vertex indices.  Every new
edge ends at the newest position, so its page test against the assigned
edges is one lookup: a stack page admits it when no assigned edge passes
over its left end, a queue page when no assigned left end lies right of
its own.  More rules cut the search without changing its order.  A
forward check drops a dead prefix, one with an edge to an unplaced vertex
that no page can take any more.  A twin break places each class of twins
(vertices with the same open or the same closed neighbourhood) in name
order.  A reversal break skips every spine with ``spine[0] > spine[-1]``,
the reversal of one that is searched.  A count on a graph with twins uses
the twin break alone and multiplies the layouts found by the product of
``|class|!``; without twins it uses the reversal break and doubles for
n >= 2.  A frontier memo keys each prefix by its placed set, its active
vertices (placed, with an unplaced neighbour) in spine order and what each
page still allows them; a count adds the completions stored for a key it
meets again, and a find skips a key that already failed.  So the verdict
and the count match plain enumeration.  The returned witness is the
lexicographically first one: smallest feasible spine, then the smallest
page vector over the canonically ordered edges of that spine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import Edge, Graph
from .layouts import LayoutKind, LinearLayout, _pair_conflicts, page_width, validate_layout

DEFAULT_GUARD = 12
# frontier keys the memo holds before it is emptied: about 20 MB of keys
# on 10-12 vertices and 2 pages
MEMO_CAP = 1 << 16


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
    """Depth-first spine search over vertex indices, in find or count mode.

    Vertex ``i`` is the ``i``-th name in sorted order, so ascending index
    is the search order.  ``pos`` holds each vertex's position (-1 while
    unplaced), ``adj`` its neighbours in ascending index, and pages are
    numbered from 0.  A vertex is *active* when it is placed and has an
    unplaced neighbour; every dangling edge starts at an active vertex.

    *Page tests.*  Every new edge of the vertex placed at position ``k``
    ends at ``k``, so no two of them conflict, and every assigned edge
    ``(x, y)`` has ``y < k``.  On a stack page, ``(a, k)`` crosses such an
    edge exactly when ``x < a < y``, that is when ``cover[p][a] > 0``.  On
    a queue page, ``(a, k)`` nests over such an edge exactly when
    ``a < x``, that is when the page's largest left end ``max_left[p]``
    exceeds ``a``.  Both tests read the prefix alone, so the pages that
    admit an edge from each active vertex are computed once per prefix,
    before any new edge is assigned, and every candidate's new edges take
    them from there.  No candidate meets a new edge without an admitted
    page: its left end is active, and the forward check has cut every
    prefix with an active vertex that no page admits.

    *Frontier memo.*  Every call of ``_extend`` at ``i >= 1`` looks up the
    key of its prefix (:meth:`_frontier`).  The number of completions, and
    whether each check on the way passes, is a function of that key, so
    a count adds the completions stored for a key it meets again, and a
    find skips a key whose search failed (stored with 0 completions).
    Completions are the ways to place the unplaced vertices and to page
    the edges with an unplaced end; their names are fixed by the placed
    set, and their left ends are active vertices, whose order is in the
    key, or later positions.

    - The twin break reads whether each twin's smaller twin is placed: a
      function of the placed set.
    - The reversal break reads whether an unplaced vertex lies above
      ``spine[0]``.  The unplaced set is fixed, and the ones above
      ``spine[0]`` are its ``above`` largest, so the placed set and
      ``above`` decide it.  A count with twins turns the break off and
      leaves ``above`` out.
    - The cut check reads the number of edges between the placed vertices
      and the rest: a function of the placed set.
    - On a stack page, a later edge ``(a, y)`` is admitted when no edge
      passes over ``a``.  The edges that pass over an active ``a`` are the
      assigned ones and later edges from active vertices left of ``a``;
      later positions are covered by later edges alone.  So the covered
      active vertices of each page decide every later page test and
      forward check.
    - On a queue page, a later edge ``(a, y)`` is admitted when no left end
      lies right of ``a``.  The assigned left ends all lie left of the
      prefix end, so against them the active vertices refused are the
      ones left of the page's largest left end, a count of them from the
      left; later left ends are active or later vertices.
    - Both of these are stored as the tuple of admitted pages of each
      active vertex: a page's covered set (stack) or count (queue) is the
      set or number of active vertices that do not admit it.
    - With a width bound, a later edge ``(a, y)`` on page ``p`` is refused
      when some gap in ``[a, y)`` already holds ``q`` edges of ``p``.  A
      gap right of the prefix holds later edges alone.  A prefix gap ``j``
      holds its assigned edges plus ``c(j)``, the later edges of ``p``
      whose left end is at or before ``j``.  Left ends are active, so
      ``c`` is constant between consecutive active vertices and grows
      from left to right.  Write ``B_t`` for the largest assigned count in
      the block from the ``t``-th active vertex to the next, and ``M_t``
      for the largest from the ``t``-th active vertex to the prefix end,
      as the key stores.  ``M_t`` equals ``B_u`` for some ``u >= t``, and
      ``c`` does not shrink from ``t`` to ``u``, so the largest
      ``B_u + c_u`` over ``u >= s`` equals the largest ``M_t + c_t`` over
      ``t >= s``.  The refusals therefore depend only on the suffix
      maxima.  The assigned counts of gaps left of the first active
      vertex never change and are never read again.

    The memo changes no order: the search visits the same prefixes in the
    same order and only skips subtrees whose outcome it already knows, so
    a find returns the same spine and a count the same number.  It is
    emptied when it holds ``MEMO_CAP`` keys, which bounds its memory on
    long searches and changes no result, since a key it forgot is
    searched again.
    """

    def __init__(self, query: OracleQuery):
        g = query.graph
        index = {v: i for i, v in enumerate(g.vertices)}
        self.names = g.vertices
        self.n = n = g.n
        self.stack_kind = query.kind is LayoutKind.STACK
        self.pages = range(query.pages)
        self.q = query.max_width
        self.adj = [tuple([index[u] for u in ns]) for ns in g.adjacency.values()]
        self.spine: list[int] = []
        self.pos = [-1] * n
        # bitmask of the placed vertices
        self.placed = 0
        # neighbours of each vertex that are not placed yet
        self.unplaced_deg = [len(ns) for ns in self.adj]
        # edges between the placed vertices and the rest
        self.cut = 0
        # stack: per page, how many assigned edges pass strictly over each position
        self.cover = [[0] * n for _ in self.pages]
        # queue: per page, the largest left end of its assigned edges
        self.max_left = [-1] * query.pages
        # width bound only: per page, how many assigned edges span each gap,
        # gap i lying between positions i and i + 1
        self.gaps = None if self.q is None else [[0] * n for _ in self.pages]
        # unplaced vertices greater than spine[0]
        self.above = 0
        # twin break: each twin's next smaller twin, -1 for none
        classes = g.twin_classes
        self.twin_prev = [-1] * n
        for c in classes:
            for u, v in zip(c, c[1:]):
                self.twin_prev[index[v]] = index[u]
        # layouts per twin-ordered one: the twin swaps permute freely
        self.orbit = math.prod(math.factorial(len(c)) for c in classes)
        # frontier key -> completions found below it (0 for a failed find)
        self.memo: dict[tuple, int] = {}
        # each admitted-page tuple once, shared by the keys that hold it
        self.page_sets: dict[tuple[int, ...], tuple[int, ...]] = {}

    def _frontier(self) -> tuple[dict[int, tuple[int, ...]], tuple]:
        """The admitted pages of each active vertex, by position, and the
        prefix's frontier key.

        The key is one flat tuple: the placed set, ``above`` under the
        reversal break, the active vertices in spine order, the admitted
        pages of each, and under a width bound, per page, the largest gap
        count from each to the prefix end.  Its length fixes the number of
        active vertices, so no two frontiers share a key.  Equal page
        tuples are shared through ``page_sets``, which keeps a stored key
        small.
        """
        spine, unplaced, pages = self.spine, self.unplaced_deg, self.pages
        act = [j for j, v in enumerate(spine) if unplaced[v]]
        if self.stack_kind:
            rows = self.cover
            held = [tuple([p for p in pages if not rows[p][j]]) for j in act]
        else:
            lefts = self.max_left
            held = [tuple([p for p in pages if lefts[p] <= j]) for j in act]
        shared = self.page_sets.setdefault
        held = [shared(h, h) for h in held]
        key = [self.placed, self.above] if self.reverse else [self.placed]
        key += [spine[j] for j in act]
        key += held
        if self.gaps is not None:
            k = len(spine)
            for span in self.gaps:
                key += [max(span[j:k]) for j in act]
        return dict(zip(act, held)), tuple(key)

    def _forward_ok(self, new: list[tuple[int, tuple[int, ...]]], k: int) -> bool:
        """Forward check: every dangling edge still has a page it may take.

        A dangling edge has one endpoint placed, at position ``a``, and its
        other endpoint unplaced, so that endpoint lands right of the whole
        prefix.  On a stack page every assigned edge ``(x, y)`` with
        ``x < a < y`` crosses it; on a queue page every assigned edge with
        ``a < x`` nests inside it.  Assigned edges keep their pages in every
        completion, so a dangling edge with all pages ruled out makes the
        prefix dead, and cutting it loses no solution.

        Called once the newest vertex, at position ``k``, has pages for its
        ``new`` edges; the previous prefix passed the check.  Placing a
        vertex only removes dangling edges, so a stack prefix can die only
        at a position whose cover count just grew, strictly between the
        smallest left end of ``new`` and ``k``.  A queue page whose largest
        left end is ``x`` rules out every ``a < x``, so a queue prefix is
        dead exactly when a placed vertex left of the smallest such ``x``
        over the pages still has an unplaced neighbour.
        """
        spine, unplaced = self.spine, self.unplaced_deg
        if self.stack_kind:
            rows = self.cover
            for j in range(min(a for a, _ in new) + 1, k):
                if unplaced[spine[j]] and all(row[j] for row in rows):
                    return False
            return True
        return not any(unplaced[spine[j]] for j in range(min(self.max_left)))

    def run(self, count_all: bool) -> int | tuple[str, ...] | None:
        """Count every valid layout, or return the first feasible spine.

        A count searches the twin-ordered spines and multiplies by the
        number of twin swaps when ``G`` has twins; otherwise it searches
        the spines with ``spine[0] < spine[-1]`` and doubles for n >= 2.
        """
        self.count = 0
        self.count_all = count_all
        # reversal break: always in find mode, in count mode only without twins
        twins = self.orbit > 1
        self.reverse = not (count_all and twins)
        found = self._extend()
        if not count_all:
            return tuple(self.names[v] for v in self.spine) if found else None
        if twins:
            return self.count * self.orbit
        # the reversal break kept one layout of each reversed pair
        return 2 * self.count if self.n >= 2 else self.count

    def _extend(self) -> bool:
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

        Cut check (width bound only): the gap right of the prefix is
        spanned by every edge between the placed vertices and the rest
        (``cut``); each such edge, assigned or dangling, takes some page
        there, so more than ``q`` times the number of pages leaves no valid
        completion.  The count at a gap depends only on the vertices left
        of it, so the gaps of shorter prefixes keep the counts they passed
        with.  The per-page counts of assigned edges are checked in
        ``_assign``.
        """
        spine, n = self.spine, self.n
        i = len(spine)
        if i == n:
            if self.count_all:
                self.count += 1
                return False
            return True
        admits: dict[int, tuple[int, ...]] = {}
        if i:
            admits, key = self._frontier()
            known = self.memo.get(key)
            if known is not None:
                self.count += known
                return False
            before = self.count
        pos, adj, twin_prev, unplaced = self.pos, self.adj, self.twin_prev, self.unplaced_deg
        cut_cap = None if self.q is None else self.q * len(self.pages)
        above_before, cut_before = self.above, self.cut
        for v in range(n):
            if pos[v] >= 0:
                continue
            if twin_prev[v] >= 0 and pos[twin_prev[v]] < 0:
                continue  # twin break
            if i == 0:
                above = n - 1 - v
            elif v > spine[0]:
                above = above_before - 1
            else:
                above = above_before
            if above == 0 and i + 1 < n and self.reverse:
                continue  # reversal break
            # the new edges (a, i) in neighbour order, each with its admitted pages
            new = [(pos[u], admits[pos[u]]) for u in adj[v] if pos[u] >= 0]
            cut = cut_before + len(adj[v]) - 2 * len(new)
            if cut_cap is not None and cut > cut_cap:
                continue  # cut check
            self.above, self.cut = above, cut
            spine.append(v)
            pos[v] = i
            self.placed |= 1 << v
            for u in adj[v]:
                unplaced[u] -= 1
            if self._assign(new, 0, i):
                return True
            for u in adj[v]:
                unplaced[u] += 1
            self.placed ^= 1 << v
            pos[v] = -1
            spine.pop()
        self.above, self.cut = above_before, cut_before
        if i:
            if len(self.memo) >= MEMO_CAP:
                self.memo.clear()
            self.memo[key] = self.count - before
        return False

    def _assign(self, new: list[tuple[int, tuple[int, ...]]], idx: int, k: int) -> bool:
        """Page the new edges from ``idx`` on, each over its admitted pages
        in page order, then extend.

        With a width bound, a page is skipped for an edge when some gap
        the edge spans already holds ``q`` of that page's edges: counts
        only grow as more edges get pages.
        """
        if idx == len(new):
            if new and not self._forward_ok(new, k):
                return False
            return self._extend()
        a, admitted = new[idx]
        gaps, q = self.gaps, self.q
        for p in admitted:
            if gaps is not None:
                span = gaps[p]
                if max(span[a:k]) >= q:
                    continue
                for j in range(a, k):
                    span[j] += 1
            if self.stack_kind:
                row = self.cover[p]
                for j in range(a + 1, k):
                    row[j] += 1
            else:
                left = self.max_left[p]
                if a > left:
                    self.max_left[p] = a
            if self._assign(new, idx + 1, k):
                return True
            if self.stack_kind:
                for j in range(a + 1, k):
                    row[j] -= 1
            else:
                self.max_left[p] = left
            if gaps is not None:
                for j in range(a, k):
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
