"""Bounded-page-width layouts via a state graph over nicely oriented cut-sets.

A state is a cut-set F (|F| <= width * pages), a total order over its
endpoints in which every endpoint is a pure source or pure sink, all sources
precede all sinks, and components of G - F are side-pure, plus a page
assignment with at most ``width`` edges per page.  Moving one vertex from
the unprocessed to the processed side induces an arc between states; a
layout exists iff the two sentinel states are connected.

Every arc increases the processed side by exactly one vertex, so every
sentinel-to-sentinel path has the same length and any reachability search
returns a shortest (layer-monotone) path.  The search below is a
deterministic depth-first traversal that generates successors lazily: each
stack entry is a state with its own successor iterator, one successor is
taken at a time, and the search stops as soon as the goal is recorded.  The
``parents`` map holds each recorded state and its arc.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from random import Random
from typing import Iterator

from .bounds import edge_count_bound
from .graphs import Edge, Graph, edge
from .layouts import LayoutKind, LinearLayout, page_width, validate_layout
from .levelplan import _insert_everywhere


class CutSetError(ValueError):
    """Edge set is not a cut-set, or the orientation is not nicely oriented."""


class NotConnectedError(ValueError):
    """This solver requires a connected input; split components first."""


@dataclass(frozen=True)
class OrientedCutSet:
    """A cut-set plus a total order over its endpoints.

    The stored order is always restricted to the endpoints, so dataclass
    equality implements "orders agree on V(F)".
    """

    edges: tuple[Edge, ...]
    order: tuple[str, ...]

    @classmethod
    def from_order(cls, edges, order) -> "OrientedCutSet":
        """Build from any order over a superset of the endpoints."""
        es = tuple(sorted(edge(u, v) for u, v in edges))
        endpoints = {v for e in es for v in e}
        restricted = tuple(v for v in order if v in endpoints)
        if set(restricted) != endpoints:
            raise CutSetError("order does not cover every cut-set endpoint")
        return cls(es, restricted)

    def sources_and_sinks(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Classify endpoints by the order; raises if some endpoint is mixed."""
        pos = {v: i for i, v in enumerate(self.order)}
        sources, sinks = [], []
        for v in self.order:
            smaller = [u if w == v else w for u, w in self.edges if v in (u, w)]
            if all(pos[v] < pos[u] for u in smaller):
                sources.append(v)
            elif all(pos[v] > pos[u] for u in smaller):
                sinks.append(v)
            else:
                raise CutSetError(f"endpoint {v!r} is neither a pure source nor a pure sink")
        return tuple(sources), tuple(sinks)


@dataclass(frozen=True)
class StateNode:
    cut: OrientedCutSet
    page_of: tuple[int, ...]  # aligned with cut.edges
    processed_all: bool = False  # distinguishes the two empty-cut sentinels

    @classmethod
    def sentinel(cls, full: bool) -> "StateNode":
        return cls(OrientedCutSet((), ()), (), full)

    @property
    def is_sentinel(self) -> bool:
        return not self.cut.edges

    def key(self):
        return (self.cut.edges, self.cut.order, self.page_of, self.processed_all)


S_EMPTY = StateNode.sentinel(full=False)
S_FULL = StateNode.sentinel(full=True)


# -- cut-set structure -------------------------------------------------------


def cut_bipartition(g: Graph, edges) -> tuple[frozenset[str], frozenset[str]] | None:
    """Sides (A, B) with F exactly the A-B edges, or None if F is no cut-set.

    For a connected graph the bipartition is unique up to swapping sides; A
    is the side containing the canonically smallest endpoint.
    """
    es = {edge(u, v) for u, v in edges}
    if not es:
        return None
    remaining = [e for e in g.edges if e not in es]
    rest = Graph.build(g.vertices, remaining)
    comp_of: dict[str, int] = {}
    comps = rest.components()
    for i, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = i
    color: dict[int, int] = {}
    # every cut edge must straddle two components, colored oppositely
    adj: dict[int, list[int]] = {}
    for u, v in es:
        cu, cv = comp_of[u], comp_of[v]
        if cu == cv:
            return None
        adj.setdefault(cu, []).append(cv)
        adj.setdefault(cv, []).append(cu)
    for start in sorted(adj):
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            c = stack.pop()
            for d in adj[c]:
                if d not in color:
                    color[d] = 1 - color[c]
                    stack.append(d)
                elif color[d] == color[c]:
                    return None
    # components with no cut endpoint exist only in disconnected inputs;
    # pin them to side A for determinism
    a_vertices, b_vertices = [], []
    for i, comp in enumerate(comps):
        (b_vertices if color.get(i, 0) else a_vertices).extend(comp)
    anchor = min(v for e in es for v in e)
    if anchor in set(b_vertices):
        a_vertices, b_vertices = b_vertices, a_vertices
    return frozenset(a_vertices), frozenset(b_vertices)


def is_cut_set(g: Graph, edges) -> bool:
    return cut_bipartition(g, edges) is not None


def is_nicely_oriented(g: Graph, cut: OrientedCutSet) -> bool:
    sides = cut_bipartition(g, cut.edges)
    if sides is None:
        raise CutSetError("the edge set is not a cut-set of the graph")
    try:
        sources, sinks = cut.sources_and_sinks()
    except CutSetError:
        return False
    pos = {v: i for i, v in enumerate(cut.order)}
    if sources and sinks and max(pos[s] for s in sources) > min(pos[t] for t in sinks):
        return False
    # each component of G - F must hold only sources or only sinks
    rest = Graph.build(g.vertices, [e for e in g.edges if e not in set(cut.edges)])
    for comp in rest.components():
        has_src = any(v in comp for v in sources)
        has_snk = any(v in comp for v in sinks)
        if has_src and has_snk:
            return False
    return True


def _component_sides(g: Graph, cut: OrientedCutSet):
    """Components of G - F split into source-side and sink-side lists."""
    sources, sinks = cut.sources_and_sinks()
    src_set, snk_set = set(sources), set(sinks)
    rest = Graph.build(g.vertices, [e for e in g.edges if e not in set(cut.edges)])
    src_comps, snk_comps = [], []
    for comp in rest.components():
        has_src = any(v in src_set for v in comp)
        has_snk = any(v in snk_set for v in comp)
        if has_src and has_snk:
            raise CutSetError("a component contains both a source and a sink")
        if has_src:
            src_comps.append(comp)
        elif has_snk:
            snk_comps.append(comp)
        else:
            raise CutSetError(
                "a component holds no cut endpoint; the input graph must be connected"
            )
    return sources, sinks, src_comps, snk_comps


def induce_order(
    g: Graph, cut: OrientedCutSet, shuffle: Random | None = None
) -> tuple[tuple[str, ...], str]:
    """A vertex order whose spanning set at the witness vertex is exactly F.

    Source components come first (internal vertices in breadth-first order
    from their smallest vertex), then the endpoint order, then the sink
    components.  The witness is the rightmost source.  ``shuffle``
    randomizes the free choices; the induced left side never changes.
    """
    if not cut.edges:
        raise CutSetError("the empty edge set induces no cut")
    if not is_nicely_oriented(g, cut):
        raise CutSetError("cut-set is not nicely oriented")
    sources, sinks, src_comps, snk_comps = _component_sides(g, cut)
    endpoint = set(cut.order)

    def internal(comp: tuple[str, ...]) -> list[str]:
        order = [v for v in next(g.induced(comp).bfs_components()) if v not in endpoint]
        if shuffle is not None:
            shuffle.shuffle(order)
        return order

    if shuffle is not None:
        src_comps = list(src_comps)
        snk_comps = list(snk_comps)
        shuffle.shuffle(src_comps)
        shuffle.shuffle(snk_comps)
    prefix = [v for comp in src_comps for v in internal(comp)]
    suffix = [v for comp in snk_comps for v in internal(comp)]
    order = tuple(prefix) + cut.order + tuple(suffix)
    return order, sources[-1]


def left_side(g: Graph, cut: OrientedCutSet) -> frozenset[str]:
    """Vertices on the processed side; a function of the oriented cut alone."""
    _, _, src_comps, _ = _component_sides(g, cut)
    return frozenset(v for comp in src_comps for v in comp)


# -- state graph --------------------------------------------------------------


def _successors(
    g: Graph, kind: LayoutKind, pages: int, width: int, state: tuple
) -> Iterator[tuple[tuple, str]]:
    """Arcs leaving ``state``, yielding ``(successor, label)`` pairs.

    A state is the tuple ``(cut edges, sources, sinks, page vector,
    processed)`` and serves as its own key.  That key is sound: in a
    connected graph the processed side of a nonempty cut is the source side
    of the oriented cut (:func:`left_side`), so it adds nothing to the first
    four entries, and the split of the endpoint order into sources and sinks
    is fixed by the cut edges.  The two empty-cut sentinels are the only
    states that share those entries, and ``processed`` (empty or all of V)
    tells them apart.  The tuples therefore fall into the same classes as
    the (edges, endpoint order, pages, sentinel) keys of :class:`StateNode`.

    Pair validity against the retained edges reduces to sink positions:
    the moved vertex becomes the rightmost source, so a new edge crosses a
    retained same-page edge of a stack exactly when the retained sink lies
    strictly left of the new one, and nests with one of a queue exactly when
    it lies strictly right.  Counting queue sink positions from the right,
    both reduce to the new sink lying right of the page's ``bound``, its
    smallest retained sink position.  Retained-retained pairs were already
    valid in the predecessor state and relative orders are preserved.
    """
    cut_edges, sources, sinks, pagevec, processed = state
    unprocessed = [v for v in g.vertices if v not in processed]
    endpoint = set(sources) | set(sinks)
    leftmost_sink = sinks[0] if sinks else None
    pages_by_edge = dict(zip(cut_edges, pagevec))
    snk_set = set(sinks)
    stack_kind = kind is LayoutKind.STACK
    cap = width * pages
    canonical = not cut_edges and not processed

    for v in unprocessed:
        if v in endpoint and v != leftmost_sink:
            continue  # the moved vertex must be the leftmost sink
        retained = [e for e in cut_edges if v not in e]
        new_edges = sorted(edge(v, w) for w in g.neighbors(v) if w not in processed and w != v)
        k = len(new_edges)
        if not retained and not new_edges:
            if len(unprocessed) == 1:
                yield ((), (), (), (), processed | {v}), v
            continue
        if len(retained) + k > cap:
            continue
        next_processed = processed | {v}
        retained_eps = {u for e in retained for u in e}
        srcs_y = tuple(s for s in sources if s in retained_eps) + ((v,) if new_edges else ())
        fixed_snks = [t for t in sinks if t != v]
        known = set(fixed_snks)
        new_snks = sorted({w for e in new_edges for w in e if w != v and w not in known})
        fy_edges = tuple(sorted(retained + new_edges))
        retained_pages = [pages_by_edge[e] for e in retained]
        retained_sink = [e[0] if e[0] in snk_set else e[1] for e in retained]
        new_sink = [e[0] if e[1] == v else e[1] for e in new_edges]
        # each edge's retained page, 0 where a new edge takes the next combo entry
        slots = [pages_by_edge.get(e, 0) for e in fy_edges]
        base_counts: dict[int, int] = {}
        for p in retained_pages:
            base_counts[p] = base_counts.get(p, 0) + 1

        page_options = _page_combos(k, pages, base_counts, width, canonical)
        if not page_options:
            continue
        for snk_order in _insert_everywhere(fixed_snks, new_snks):
            tpos = {t: i for i, t in enumerate(snk_order if stack_kind else reversed(snk_order))}
            bound: dict[int, int] = {}
            for p, t in zip(retained_pages, retained_sink):
                i = tpos[t]
                if i < bound.get(p, i + 1):
                    bound[p] = i
            new_tpos = [tpos[t] for t in new_sink]
            for combo in page_options:
                for p, i in zip(combo, new_tpos):
                    if i > bound.get(p, i):
                        break
                else:
                    fill = iter(combo)
                    yield (
                        fy_edges,
                        srcs_y,
                        snk_order,
                        tuple(p or next(fill) for p in slots),
                        next_processed,
                    ), v


def _page_combos(
    k: int, pages: int, base_counts: dict[int, int], width: int, canonical: bool
) -> list[tuple[int, ...]]:
    """Page vectors for the k new edges respecting the per-page cap.

    With ``canonical`` (used for arcs out of the empty state, where a global
    page permutation maps solution paths to solution paths) only first-use
    ordered vectors are kept.
    """
    out: list[tuple[int, ...]] = []

    def rec(i: int, counts: dict[int, int], acc: list[int], used_max: int) -> None:
        if i == k:
            out.append(tuple(acc))
            return
        limit = min(pages, used_max + 1) if canonical else pages
        for p in range(1, limit + 1):
            c = counts.get(p, 0)
            if c >= width:
                continue
            counts[p] = c + 1
            acc.append(p)
            rec(i + 1, counts, acc, max(used_max, p))
            acc.pop()
            counts[p] = c

    rec(0, dict(base_counts), [], 0)
    return out


def enumerate_states(
    g: Graph, pages: int, width: int, kind: LayoutKind
) -> Iterator[StateNode]:
    """All consistent states: sentinels plus every nicely oriented cut-set of
    size up to width*pages with a page assignment of at most ``width`` edges
    per page.  Orders enumerate both side orientations and all source/sink
    permutations; validity beyond the node conditions is not filtered here.
    """
    yield S_EMPTY
    yield S_FULL
    all_edges = list(g.edges)
    for size in range(1, width * pages + 1):
        for combo in itertools.combinations(all_edges, size):
            sides = cut_bipartition(g, combo)
            if sides is None:
                continue
            side_a, side_b = sides
            eps = {v for e in combo for v in e}
            for src_side, snk_side in ((side_a, side_b), (side_b, side_a)):
                srcs = sorted(eps & src_side)
                snks = sorted(eps & snk_side)
                for sp in itertools.permutations(srcs):
                    for tp in itertools.permutations(snks):
                        order = sp + tp
                        for pv in itertools.product(range(1, pages + 1), repeat=size):
                            counts: dict[int, int] = {}
                            ok = True
                            for p in pv:
                                counts[p] = counts.get(p, 0) + 1
                                if counts[p] > width:
                                    ok = False
                                    break
                            if ok:
                                yield StateNode(OrientedCutSet(combo, order), pv)


@dataclass
class CutsetReport:
    layout: LinearLayout | None
    bound_rejected: bool
    states_seen: int
    arcs_seen: int
    dumped_states: list[StateNode] = field(default_factory=list)


def solve_bounded_width_report(
    g: Graph,
    kind: LayoutKind,
    pages: int,
    width: int,
    collect_states: bool = False,
) -> CutsetReport:
    """Decide a layout of page width at most ``width`` by a lazy DFS.

    The stack holds ``(state, successor iterator)`` pairs and is always
    the path from the empty state to its top.  The top's iterator yields
    one successor at a time; one already in ``parents`` is skipped,
    otherwise it is recorded with its arc and pushed with its own
    iterator.  A state whose iterator is exhausted is popped, and the
    search stops as soon as the goal is recorded.

    This expands states in the same order, and records the same parent
    links, as the eager search that builds each successor list in full,
    records every new successor and pushes them in reverse.  Every arc
    adds exactly one processed vertex and ``processed`` is part of the
    state, so the successors of a state in layer k all lie in layer
    k + 1, and every state of an earlier sibling's subtree lies in layer
    k + 2 or later.  No sibling is therefore reachable from an earlier
    sibling's subtree: recording one successor and descending at once
    meets each sibling exactly as recording them all first would.  Only
    one state per layer is on the stack, so each state's parent is the
    first expanded state that generates it in both searches, and the
    witness is the same.

    ``states_seen`` counts the states recorded (the start excluded) and
    ``arcs_seen`` the arcs examined.  On an infeasible instance both
    searches expand every reachable state, so both counts and the set
    of dumped states equal the eager search's, in a different dump order.
    On a feasible one the siblings never taken are never generated, and
    the counts and the dump cover only what came before the goal.
    """
    if not g.is_connected():
        raise NotConnectedError("solve_bounded_width expects a connected graph")
    if not edge_count_bound(g, kind, pages):
        return CutsetReport(None, True, 0, 0)
    if g.n == 0:
        return CutsetReport(LinearLayout(kind, pages, (), {}), False, 0, 0)

    start = ((), (), (), (), frozenset())
    goal = ((), (), (), (), frozenset(g.vertices))
    parents: dict[tuple, tuple[tuple, str] | None] = {start: None}
    stack = [(start, _successors(g, kind, pages, width, start))]
    states_seen = arcs_seen = 0
    dumped: list[StateNode] = []
    while stack:
        state, succs = stack[-1]
        for nxt, label in succs:
            arcs_seen += 1
            if nxt not in parents:
                break
        else:
            stack.pop()
            continue
        parents[nxt] = (state, label)
        states_seen += 1
        if collect_states:
            edges, srcs, snks, pagevec, _ = nxt
            dumped.append(
                S_FULL if nxt == goal else StateNode(OrientedCutSet(edges, srcs + snks), pagevec)
            )
        if nxt == goal:
            break
        stack.append((nxt, _successors(g, kind, pages, width, nxt)))

    if goal not in parents:
        return CutsetReport(None, False, states_seen, arcs_seen, dumped)

    # reconstruct: spine = arc labels, pages = union of node assignments
    spine_rev: list[str] = []
    page_map: dict[Edge, int] = {}
    state = goal
    while parents[state] is not None:
        prev, label = parents[state]
        spine_rev.append(label)
        for e, p in zip(state[0], state[3]):
            assert page_map.get(e, p) == p, "inconsistent page along the path"
            page_map[e] = p
        state = prev
    spine = tuple(reversed(spine_rev))
    layout = LinearLayout(kind, pages, spine, page_map)
    report = validate_layout(g, layout)
    assert report.ok, f"state-graph path produced an invalid layout: {report.violations!r}"
    assert page_width(layout) <= width
    return CutsetReport(layout, False, states_seen, arcs_seen, dumped)


def solve_bounded_width(
    g: Graph, kind: LayoutKind, pages: int, width: int
) -> LinearLayout | None:
    """Layout with at most ``pages`` pages and page width at most ``width``."""
    return solve_bounded_width_report(g, kind, pages, width).layout
