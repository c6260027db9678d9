"""Independent reference implementations used as test oracles.

Everything here restates definitions directly (plain double loops and full
enumeration) and deliberately shares no code with the package solvers.
Some references pin a search's *order* or restate a solver's conditions
literally, and so reuse package code:

- :func:`eager_bounded_width` drives the package's own successor generator
  with an eager loop, against which the cut-set solver's lazy loop is
  checked;
- :func:`arc_exists` checks the cut-set state graph's arc conditions one
  by one, against which the successor generator is checked;
- :func:`uncapped_vertex_integrity` is the vertex-integrity search with
  every component walked in full, against which the capped walk is
  checked;
- :class:`ReferenceSearch` is the oracle's spine search with name-keyed
  state and no memo, against which the integer-indexed search is checked;
- :func:`reference_labeling_search` is queue1's labeling search on a
  name-keyed union-find with rollback (:class:`RollbackUnionFind`) and
  no forward check, against which the index-level search is checked.
"""

from __future__ import annotations

import itertools
import math
import random

from linlay.cutset import OrientedCutSet, _successors, left_side
from linlay.graphs import Edge, Graph, edge
from linlay.kernel import ViDecomposition
from linlay.layouts import LayoutKind, LinearLayout, _page_has_conflict
from linlay.levelplan import OffsetUnionFind
from linlay.oracle import OracleQuery
from linlay.queue_one import (
    _EDGE_OPTIONS,
    ArcTag,
    BranchResult,
    Labeling,
    _decide_branch,
    _levels,
    embedding_to_queue_layout,
)


def naive_conflicting_pairs(g, layout):
    """All same-page crossing (stack) / nesting (queue) pairs, by definition."""
    pos = {v: i for i, v in enumerate(layout.spine)}
    bad = []
    edges = sorted(layout.pages)
    for e, f in itertools.combinations(edges, 2):
        if layout.pages[e] != layout.pages[f]:
            continue
        if set(e) & set(f):
            continue
        (a1, b1) = sorted((pos[e[0]], pos[e[1]]))
        (a2, b2) = sorted((pos[f[0]], pos[f[1]]))
        lo, hi = ((a1, b1), (a2, b2)) if a1 < a2 else ((a2, b2), (a1, b1))
        if layout.kind is LayoutKind.STACK:
            conflict = lo[0] < hi[0] < lo[1] < hi[1]
        else:
            conflict = lo[0] < hi[0] < hi[1] < lo[1]
        if conflict:
            bad.append(tuple(sorted((e, f))))
    return sorted(bad)


def naive_is_valid(g, layout):
    return not naive_conflicting_pairs(g, layout)


def naive_page_width(layout):
    pos = {v: i for i, v in enumerate(layout.spine)}
    best = 0
    pages = {p for p in layout.pages.values()}
    for p in pages:
        for v in layout.spine:
            i = pos[v]
            cnt = 0
            for e, ep in layout.pages.items():
                if ep != p:
                    continue
                a, b = sorted((pos[e[0]], pos[e[1]]))
                if a <= i < b:
                    cnt += 1
            best = max(best, cnt)
    return best


def all_layouts(g, kind, pages):
    """Every (spine, assignment) pair, unpruned."""
    edges = list(g.edges)
    for spine in itertools.permutations(g.vertices):
        for assignment in itertools.product(range(1, pages + 1), repeat=len(edges)):
            yield LinearLayout(kind, pages, spine, dict(zip(edges, assignment)))


def naive_lex_first_layout(g, kind, pages, max_width=None):
    """First valid layout within the width: spines in ``itertools.permutations``
    order, then page vectors over ``g.edges`` in ``itertools.product`` order."""
    for layout in all_layouts(g, kind, pages):
        if naive_is_valid(g, layout):
            if max_width is None or naive_page_width(layout) <= max_width:
                return layout
    return None


def naive_layout_exists(g, kind, pages, max_width=None):
    return naive_lex_first_layout(g, kind, pages, max_width) is not None


def naive_count_layouts(g, kind, pages, max_width=None):
    count = 0
    for layout in all_layouts(g, kind, pages):
        if naive_is_valid(g, layout):
            if max_width is None or naive_page_width(layout) <= max_width:
                count += 1
    return count


def eager_bounded_width(g, kind, pages, width):
    """The cut-set search with every successor list built in full.

    Pops a state, generates all its successors, records the new ones and
    pushes them in reverse, so the first successor is expanded first.
    Returns ``(layout, states, arcs, recorded)``: the witness (spine and
    pages read off the parent links) or None, the states recorded, the arcs
    generated, and the recorded states in record order.  ``g`` must be
    connected and pass the edge-count bound.
    """
    start, goal = start_state(), goal_state(g)
    parents = {start: None}
    stack = [start]
    states = arcs = 0
    recorded = []
    while stack and goal not in parents:
        state = stack.pop()
        succs = list(_successors(g, kind, pages, width, state))
        arcs += len(succs)
        for nxt, label in reversed(succs):
            if nxt in parents:
                continue
            parents[nxt] = (state, label)
            states += 1
            recorded.append(nxt)
            if nxt == goal:
                break
            stack.append(nxt)
    if goal not in parents:
        return None, states, arcs, recorded
    spine, page_map = [], {}
    state = goal
    while parents[state] is not None:
        prev, label = parents[state]
        spine.append(label)
        page_map.update(zip(state[0], state[3]))
        state = prev
    return LinearLayout(kind, pages, tuple(reversed(spine)), page_map), states, arcs, recorded


class ReferenceSearch:
    """The oracle's spine search with name-keyed state, a pairwise
    conflict scan per page and no memo.  ``ReferenceSearch(query).run(
    count_all)`` returns the same spine or count as ``oracle._Search``,
    whose integer state, constant-time page tests and frontier memo are
    checked against it."""

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
        classes = g.twin_classes
        self.twin_prev = {v: u for c in classes for u, v in zip(c, c[1:])}
        # layouts per twin-ordered one: the twin swaps permute freely
        self.orbit = math.prod(math.factorial(len(c)) for c in classes)

    # -- pruning -------------------------------------------------------------

    def _cut_ok(self) -> bool:
        """Width check on the gap right of the placed prefix."""
        unplaced = self.unplaced_deg
        return sum(unplaced[v] for v in self.spine) <= self.q * self.pages

    def _forward_ok(self, lo: int) -> bool:
        """Forward check: every dangling edge still has a page it may take."""
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
        """Count every valid layout, or return the first feasible spine."""
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
        """Place the next vertex, in vertex order, and page its new edges."""
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
        """Page the new edges from ``idx`` on in page order, then extend."""
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


# -- literal cut-set state conditions ---------------------------------------


class RollbackUnionFind(OffsetUnionFind):
    """``OffsetUnionFind`` that can undo its unions: ``mark`` returns the
    number made so far, and ``rollback`` undoes every later one, newest
    first.  Union by size keeps the paths short, and nothing compresses
    them, so undoing a union restores every find exactly."""

    def __init__(self, modulus: int = 0) -> None:
        super().__init__(modulus)
        self.trail: list = []  # (child, root) per union, newest last

    def union(self, u, v, d: int) -> bool:
        ru, rv = self.find(u)[0], self.find(v)[0]
        if not super().union(u, v, d):
            return False
        if ru != rv:
            child = rv if rv in self.parent else ru
            self.trail.append((child, self.parent[child]))
        return True

    def mark(self) -> int:
        return len(self.trail)

    def rollback(self, mark: int) -> None:
        while len(self.trail) > mark:
            child, root = self.trail.pop()
            self.size[root] -= self.size.get(child, 1)
            del self.parent[child], self.offset[child]


def reference_labeling_search(g: Graph, leaves: list | None = None) -> BranchResult:
    """queue1's labeling search with its levels in a union-find: per edge,
    each option in ``_EDGE_OPTIONS`` order is unioned, kept when consistent
    and without an arch-source clash, and rolled back after its subtree.
    Every leaf decides its branch with ``_decide_branch``; ``leaves``, when
    given, receives each leaf's ``(labeling, levels)`` in visiting order."""
    edges = g.edges
    m = len(edges)
    uf = RollbackUnionFind()
    tried = 0
    chosen: list[tuple[bool, ArcTag]] = []

    def leaf() -> BranchResult | None:
        nonlocal tried
        tried += 1
        arcs = tuple((e[1], e[0]) if flip else e for e, (flip, _) in zip(edges, chosen))
        lab = Labeling(arcs, tuple(tag for _, tag in chosen))
        levels = _levels(uf, g.vertices)
        if leaves is not None:
            leaves.append((lab, levels))
        emb = _decide_branch(g, lab, levels)
        if emb is None:
            return None
        return BranchResult(embedding_to_queue_layout(g, lab, levels, emb), lab, levels, tried)

    arch_sources: list[str] = []

    def arch_source_clash(a: str) -> bool:
        # two distinct arch sources already known to share a level doom
        # every completion of this prefix
        ra, oa = uf.find(a)
        for u2 in arch_sources:
            if u2 == a:
                continue
            ru, ou = uf.find(u2)
            if ru == ra and ou == oa:
                return True
        return False

    def rec(idx: int) -> BranchResult | None:
        if idx == m:
            return leaf()
        u, v = edges[idx]
        for flip, tag in _EDGE_OPTIONS:
            d = 1 if tag is ArcTag.ORDINARY else 0
            a, b = (v, u) if flip else (u, v)
            mark = uf.mark()
            if uf.union(a, b, d):
                arching = tag is ArcTag.ARCHING
                if arching and arch_source_clash(a):
                    uf.rollback(mark)
                    continue
                if arching:
                    arch_sources.append(a)
                chosen.append((flip, tag))
                result = rec(idx + 1)
                chosen.pop()
                if arching:
                    arch_sources.pop()
                if result is not None:
                    uf.rollback(mark)
                    return result
            uf.rollback(mark)
        return None

    result = rec(0)
    if result is not None:
        return result
    return BranchResult(None, None, None, tried)


def start_state() -> tuple:
    return ((), (), (), (), frozenset())


def goal_state(g: Graph) -> tuple:
    return ((), (), (), (), frozenset(g.vertices))


def state_of(g: Graph, cut: OrientedCutSet, page_of) -> tuple:
    """The search's state tuple for a nonempty oriented cut and its pages."""
    sources, sinks = cut.sources_and_sinks()
    return (cut.edges, sources, sinks, tuple(page_of), left_side(g, cut))


def state_cut(state: tuple) -> OrientedCutSet:
    return OrientedCutSet(state[0], state[1] + state[2])


def state_left_side(g: Graph, state: tuple) -> frozenset[str]:
    """The processed side, recomputed from the cut; only an empty-cut
    sentinel is told apart by its tuple."""
    if not state[0]:
        return frozenset(g.vertices) if state[4] else frozenset()
    return left_side(g, state_cut(state))


def _mini_layout_valid(
    kind: LayoutKind,
    order_pos: dict[str, int],
    edges_pages: list[tuple[Edge, int]],
    width: int,
) -> bool:
    """AC-style validity of the cut-only layout: per page, at most ``width``
    edges and no conflict under :func:`_page_has_conflict`.

    Every edge runs from a source to a sink and all sources precede all
    sinks, so no edge's right end is another edge's left end.  Two edges of
    a page therefore either share an endpoint, and never conflict, or have
    four distinct positions, where the sweep's strict patterns
    (``a1 < a2 < b1 < b2`` crossing, ``a1 < a2 < b2 < b1`` nesting) are the
    whole conflict test.  Page width equals the page size here, since every
    edge of a page spans the source/sink boundary.
    """
    per_page: dict[int, list[tuple[int, int]]] = {}
    for (u, v), p in edges_pages:
        a, b = order_pos[u], order_pos[v]
        per_page.setdefault(p, []).append((min(a, b), max(a, b)))
    return all(
        len(spans) <= width and not _page_has_conflict(kind, spans)
        for spans in per_page.values()
    )


def arc_exists(
    g: Graph,
    sx: tuple,
    sy: tuple,
    pages: int,
    width: int,
    kind: LayoutKind,
) -> str | None:
    """Label vertex of the arc sx -> sy, or None; checks the conditions literally."""
    proc_x = state_left_side(g, sx)
    proc_y = state_left_side(g, sy)
    unproc_x = [v for v in g.vertices if v not in proc_x]
    cut_x, cut_y = state_cut(sx), state_cut(sy)
    fx = set(cut_x.edges)
    for v in unproc_x:
        fy_expected = {e for e in fx if v not in e} | {
            edge(v, w) for w in g.neighbors(v) if w not in proc_x and w != v
        }
        if fy_expected != set(cut_y.edges):
            continue
        if proc_y != proc_x | {v}:
            continue
        # order and page agreement on the shared edges
        shared = fx & fy_expected
        shared_eps = sorted({u for e in shared for u in e})
        pos_x = {u: i for i, u in enumerate(cut_x.order)}
        pos_y = {u: i for i, u in enumerate(cut_y.order)}
        ok = all(
            (pos_x[a] < pos_x[b]) == (pos_y[a] < pos_y[b])
            for a, b in itertools.combinations(shared_eps, 2)
        )
        if not ok:
            continue
        px = dict(zip(cut_x.edges, sx[3]))
        py = dict(zip(cut_y.edges, sy[3]))
        if any(px[e] != py[e] for e in shared):
            continue
        # moved vertex sits at the boundary of both orders
        if v in {u for e in fx for u in e}:
            _, sinks_x = cut_x.sources_and_sinks()
            if not sinks_x or sinks_x[0] != v:
                continue
        if v in {u for e in fy_expected for u in e}:
            sources_y, _ = cut_y.sources_and_sinks()
            if not sources_y or sources_y[-1] != v:
                continue
        # both boundary layouts must be valid for the kind at this width
        def mini_ok(cut: OrientedCutSet, page_of: tuple[int, ...]) -> bool:
            pos = {u: i for i, u in enumerate(cut.order)}
            return _mini_layout_valid(kind, pos, list(zip(cut.edges, page_of)), width)

        if not (mini_ok(cut_x, sx[3]) and mini_ok(cut_y, sy[3])):
            continue
        return v
    return None


def without_vertices(g, vs):
    drop = set(vs)
    return g.induced(v for v in g.vertices if v not in drop)


def naive_vertex_integrity(g):
    """min over all separators of |S| + size of the largest remaining component."""
    verts = list(g.vertices)
    best = g.n if g.n else 1
    for r in range(len(verts) + 1):
        if r >= best:
            break
        for sep in itertools.combinations(verts, r):
            rest = without_vertices(g, sep)
            worst = max((len(c) for c in rest.components()), default=0)
            best = min(best, r + worst if rest.n else r)
    return max(best, 1)


def _uncapped_vi_witness(g, p):
    """Separator S with |S| + max component size <= p, or None.

    Branches over a connected (p - |S| + 1)-vertex piece of any oversized
    component; every witness must hit that piece.
    """

    def rec(sep):
        for comp in g.bfs_components(sep):
            if len(comp) + len(sep) > p:
                break
        else:
            return tuple(sorted(sep))
        if len(sep) >= p:
            return None
        for v in comp[: p - len(sep) + 1]:
            found = rec(sep | {v})
            if found is not None:
                return found
        return None

    return rec(frozenset())


def uncapped_vertex_integrity(g, budget=None):
    """``kernel.compute_vertex_integrity`` with every component of G - S
    walked in full at every search node, and G - S walked again for the
    decomposition."""
    if g.n == 0:
        return ViDecomposition((), (), 1)
    top = min(budget, g.n) if budget is not None else g.n
    for p in range(1, top + 1):
        sep = _uncapped_vi_witness(g, p)
        if sep is not None:
            comps = tuple(tuple(sorted(c)) for c in g.bfs_components(sep))
            return ViDecomposition(sep, comps, p)
    return None


def naive_first_twin_map(g, separator, comp_a, comp_b):
    """First attachment-preserving isomorphism comp_a -> comp_b in
    ``itertools.permutations(comp_b)`` order, or None."""
    if len(comp_a) != len(comp_b):
        return None
    sep = set(separator)
    for perm in itertools.permutations(comp_b):
        m = dict(zip(comp_a, perm))
        ok = True
        for u in comp_a:
            for w in comp_a:
                if u < w and g.has_edge(u, w) != g.has_edge(m[u], m[w]):
                    ok = False
                    break
            if not ok:
                break
            for s in sep:
                if g.has_edge(u, s) != g.has_edge(m[u], s):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return m
    return None


def naive_twins(g, separator, comp_a, comp_b):
    """Exhaustive search for an attachment-preserving isomorphism comp_a -> comp_b."""
    return naive_first_twin_map(g, separator, comp_a, comp_b) is not None


def random_connected_graph(rng: random.Random, n: int, extra_edges: int) -> Graph:
    """Random labeled tree plus ``extra_edges`` distinct non-tree edges."""
    names = [f"v{i}" for i in range(n)]
    edges = set()
    for i in range(1, n):
        j = rng.randrange(i)
        edges.add(edge(names[i], names[j]))
    candidates = [
        edge(a, b) for a, b in itertools.combinations(names, 2) if edge(a, b) not in edges
    ]
    rng.shuffle(candidates)
    edges.update(candidates[:extra_edges])
    return Graph.build(names, edges)


def random_graph(rng: random.Random, n: int, m: int) -> Graph:
    """``m`` distinct random edges on ``n`` vertices; may be disconnected and
    keep isolated vertices."""
    names = [f"v{i}" for i in range(n)]
    return Graph.build(names, rng.sample(list(itertools.combinations(names, 2)), m))


# -- small named graphs ----------------------------------------------------


def path_of(*names):
    return Graph.from_edges(zip(names, names[1:]))


def cycle_of(*names):
    return Graph.from_edges(list(zip(names, names[1:])) + [(names[-1], names[0])])


def complete_of(*names):
    return Graph.from_edges(itertools.combinations(names, 2))


def star_of(center, leaves):
    return Graph.from_edges((center, leaf) for leaf in leaves)
