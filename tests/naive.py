"""Independent reference implementations used as test oracles.

Everything here restates definitions directly (plain double loops and full
enumeration) and deliberately shares no code with the package solvers.
Two references pin a search's *order* and so reuse package code:
:func:`eager_bounded_width` drives the package's own successor generator
with an eager loop, against which the cut-set solver's lazy loop is
checked, and :func:`uncapped_vertex_integrity` is the vertex-integrity
search with every component walked in full, against which the capped
walk is checked.
"""

from __future__ import annotations

import itertools
import random

from linlay.cutset import S_FULL, OrientedCutSet, StateNode, _successors
from linlay.graphs import Graph, edge
from linlay.kernel import ViDecomposition
from linlay.layouts import LayoutKind, LinearLayout


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
    Returns ``(layout, states, arcs, dumped)``: the witness (spine and pages
    read off the parent links) or None, the states recorded, the arcs
    generated, and the recorded states as ``StateNode``s in record order.
    ``g`` must be connected and pass the edge-count bound.
    """
    start = ((), (), (), (), frozenset())
    goal = ((), (), (), (), frozenset(g.vertices))
    parents = {start: None}
    stack = [start]
    states = arcs = 0
    dumped = []
    while stack and goal not in parents:
        state = stack.pop()
        succs = list(_successors(g, kind, pages, width, state))
        arcs += len(succs)
        for nxt, label in reversed(succs):
            if nxt in parents:
                continue
            parents[nxt] = (state, label)
            states += 1
            edges, srcs, snks, pagevec, _ = nxt
            dumped.append(
                S_FULL if nxt == goal else StateNode(OrientedCutSet(edges, srcs + snks), pagevec)
            )
            if nxt == goal:
                break
            stack.append(nxt)
    if goal not in parents:
        return None, states, arcs, dumped
    spine, page_map = [], {}
    state = goal
    while parents[state] is not None:
        prev, label = parents[state]
        spine.append(label)
        page_map.update(zip(state[0], state[3]))
        state = prev
    return LinearLayout(kind, pages, tuple(reversed(spine)), page_map), states, arcs, dumped


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
