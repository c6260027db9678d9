"""Single-page queue layouts via labelings and level planarity.

A labeling orients every edge and tags it ordinary (step up one level) or
arching (stay on the level).  Each consistent labeling determines a level
assignment up to shift; the graph then has a queue layout inducing that
labeling iff a derived proper-leveled instance is level planar.  The
derived instance wraps the graph in a frame cycle and attaches each
arching source to the frame's left side and each arching target to its
right side, which pins exactly the freedoms the arches need.

The solver takes a connected graph (``linlay.runner`` lays out the
components of a disconnected one and concatenates them).  It branches over
the 4^m labelings in a fixed order (per edge: forward-ordinary,
backward-ordinary, forward-arching, backward-arching) and returns the
first branch that succeeds, pruning labeling prefixes whose level
constraints are already contradictory.  The constraints live in
``levelplan.OffsetUnionFind`` over the integers, whose rollback undoes a
branch's union and which gives each complete labeling its levels.  Each
complete labeling states its arch side conditions as same-level
precedence pairs and is first checked on a relaxation over the original
vertices: the ordering-parity system of its ordinary arcs with those
pairs, decided by the same class over parities.  Nearly every branch
fails there, and only the survivors are reduced and handed, with the
pairs, to the level-planarity tester.  The relaxation is implied by the
framed instance's own system, so every branch's outcome is the one the
tester alone would give.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterator

from .bounds import edge_count_bound
from .graphs import Graph
from .layouts import LayoutKind, LinearLayout, validate_layout
from .levelplan import (
    LevelAssignment,
    LeveledGraph,
    LevelEmbedding,
    OffsetUnionFind,
    Precedence,
    find_level_embedding,
    parity_consistent,
)

DEFAULT_EDGE_GUARD = 26


class BranchGuardError(RuntimeError):
    """Too many edges for the labeling search; not a feasibility verdict."""


class QueueSolverError(AssertionError):
    """Internal consistency failure while rebuilding a layout (a bug, not
    an infeasible instance)."""


class ArcTag(enum.Enum):
    ORDINARY = "ordinary"
    ARCHING = "arching"


@dataclass(frozen=True)
class Labeling:
    """One oriented arc per edge, aligned with the graph's canonical edges."""

    arcs: tuple[tuple[str, str], ...]
    tags: tuple[ArcTag, ...]

    def items(self) -> Iterator[tuple[tuple[str, str], ArcTag]]:
        return zip(self.arcs, self.tags)


_EDGE_OPTIONS = (
    (False, ArcTag.ORDINARY),
    (True, ArcTag.ORDINARY),
    (False, ArcTag.ARCHING),
    (True, ArcTag.ARCHING),
)


def enumerate_labelings(g: Graph) -> Iterator[Labeling]:
    """All 4^m labelings, in the solver's branch order."""
    edges = g.edges
    for choice in itertools.product(_EDGE_OPTIONS, repeat=len(edges)):
        arcs = tuple(
            (e[1], e[0]) if flip else e for e, (flip, _) in zip(edges, choice)
        )
        yield Labeling(arcs, tuple(tag for _, tag in choice))


def level_assignment_from_labeling(g: Graph, lab: Labeling) -> LevelAssignment | None:
    """The level constraints of a labeling, solved by union-find; None on
    conflict, ValueError on a disconnected graph.

    Ordinary arcs climb one level, arching arcs stay level; the result is
    shifted so the lowest level is 1.
    """
    if g.n == 0:
        return LevelAssignment.build({})
    uf = OffsetUnionFind()
    unions = [uf.union(u, v, 1 if tag is ArcTag.ORDINARY else 0) for (u, v), tag in lab.items()]
    levels = _levels(uf, g.vertices)
    return levels if all(unions) else None


def _levels(uf: OffsetUnionFind, vertices: tuple[str, ...]) -> LevelAssignment:
    """The levels of ``vertices`` in ``uf``, shifted so the lowest is 1;
    ValueError unless they are all in one set."""
    found = [uf.find(v) for v in vertices]
    root = found[0][0]
    if any(r != root for r, _ in found):
        raise ValueError("level assignment expects a connected graph")
    low = min(off for _, off in found)
    return LevelAssignment.build({v: off - low + 1 for v, (_, off) in zip(vertices, found)})


# -- reduction to level planarity ---------------------------------------------
#
# Vertex naming in the derived instance:
#   g:<v>        original vertex
#   d:<u>|<v>    subdivision of the ordinary edge uv (canonical order)
#   f:bot f:top  frame bottom / top
#   f:l:<i>      left frame vertex between original levels i and i+1
#   f:r:<i>      right frame vertex between original levels i and i+1
#   d:f:l:<i>    subdivision of the left frame edge crossing original level i
#
# Original level x maps to 2x+1, the half level between x and x+1 to 2x+2;
# the frame bottom sits at 1 and the top at 2h+3.


def _orig(v: str) -> str:
    return f"g:{v}"


def reduce_to_level_planarity(
    g: Graph, lab: Labeling, levels: LevelAssignment
) -> LeveledGraph | None:
    """The framed proper-leveled instance for one labeling branch.

    Returns None immediately when two distinct vertices on one level would
    need to attach to the left frame side (two arching sources per level).
    """
    lv = levels.levels
    h = levels.h
    arch_source: dict[int, str] = {}
    for (u, v), tag in lab.items():
        if tag is ArcTag.ARCHING:
            i = lv[u]
            if arch_source.setdefault(i, u) != u:
                return None
    out_levels: dict[str, int] = {}
    edges: set[tuple[str, str]] = set()

    for v in g.vertices:
        out_levels[_orig(v)] = 2 * lv[v] + 1
    for (u, v), tag in lab.items():
        if tag is ArcTag.ORDINARY:
            lo = u if lv[u] < lv[v] else v
            hi = v if lo == u else u
            mid = f"d:{min(u, v)}|{max(u, v)}"
            out_levels[mid] = 2 * lv[lo] + 2
            edges.add((_orig(lo), mid))
            edges.add((mid, _orig(hi)))

    out_levels["f:bot"] = 1
    out_levels["f:top"] = 2 * h + 3
    for i in range(0, h + 1):
        out_levels[f"f:l:{i}"] = 2 * i + 2
        out_levels[f"f:r:{i}"] = 2 * i + 2
    edges.add(("f:bot", "f:l:0"))
    edges.add(("f:bot", "f:r:0"))
    edges.add((f"f:l:{h}", "f:top"))
    edges.add((f"f:r:{h}", "f:top"))
    for i in range(0, h):
        for side in "lr":
            mid = f"d:f:{side}:{i + 1}"
            out_levels[mid] = 2 * (i + 1) + 1
            edges.add((f"f:{side}:{i}", mid))
            edges.add((mid, f"f:{side}:{i + 1}"))

    for (u, v), tag in lab.items():
        if tag is ArcTag.ARCHING:
            i = lv[u]
            edges.add((_orig(u), f"f:l:{i - 1}"))
            edges.add((_orig(u), f"f:l:{i}"))
            edges.add((_orig(v), f"f:r:{i}"))

    derived = Graph.from_edges(edges, isolated=set(out_levels))
    return LeveledGraph(derived, LevelAssignment.build(out_levels))


def branch_side_filter(g: Graph, lab: Labeling, levels: LevelAssignment) -> list[Precedence]:
    """Same-level precedence pairs pinning the arch side conditions.

    Level planarity of the framed instance alone does not force arch
    targets to stay inside the frame: a target hangs on the right chain by
    a single edge, so a drawing may park it (and its subtree) outside,
    violating the at-or-right-of-the-upward-vertices rule.  The conditions
    are properties of one level's order, and a drawing satisfying them
    always exists when some arched embedding induces this labeling.  As
    pairs (p, q), "p left of q", they are:

    * the left frame vertex before the right one on level 2, which fixes
      the drawing's reflection;
    * on each arch level, the arch source before every other original
      vertex of the level;
    * on each arch level, every vertex with a neighbor one level up
      before every arch target other than itself.

    A row honours all pairs of its level exactly when it meets the
    conditions.  Empty when nothing arches.
    """
    lv = levels.levels
    arch_by_level: dict[int, tuple[str, set[str]]] = {}
    climbers: set[str] = set()  # an ordinary arc (a, b) climbs from a to a's level + 1
    for (u, v), tag in lab.items():
        if tag is ArcTag.ARCHING:
            arch_by_level.setdefault(lv[u], (u, set()))[1].add(v)
        else:
            climbers.add(u)
    if not arch_by_level:
        return []
    pairs = [("f:l:0", "f:r:0")]
    for i, (source, targets) in sorted(arch_by_level.items()):
        row = [w for w in g.vertices if lv[w] == i]
        pairs.extend((_orig(source), _orig(w)) for w in row if w != source)
        uppers = [w for w in row if w in climbers]
        pairs.extend((_orig(w), _orig(t)) for t in sorted(targets) for w in uppers if w != t)
    return pairs


def _relaxation_consistent(
    lab: Labeling, levels: LevelAssignment, pairs: list[Precedence]
) -> bool:
    """The ordering-parity system of one branch restricted to the original
    vertices at the labeling's levels: the side pairs ``pairs`` of
    ``branch_side_filter`` without the frame pair (their first) and with
    the ``g:`` prefix dropped, and x(a, c) = x(b, d) for every two
    ordinary arcs a->b and c->d with the same lower level, a != c and
    b != d.

    Sound as a rejection.  In the framed instance the arcs become the
    paths a - d:ab - b and c - d:cd - d, whose four edges give
    x(a, c) = x(d:ab, d:cd) and x(d:ab, d:cd) = x(b, d); the side pairs
    other than the frame pair are units of that system too.  So every
    solution of the framed system restricts to a solution of this one, and
    when this one has none, ``find_level_embedding`` would reject the
    branch on its own parity check.
    """
    ordinary = [arc for arc, tag in lab.items() if tag is ArcTag.ORDINARY]
    return parity_consistent(levels.levels, ordinary, ((p[2:], q[2:]) for p, q in pairs[1:]))


def _decide_branch(g: Graph, lab: Labeling, levels: LevelAssignment) -> LevelEmbedding | None:
    """A drawing of the branch's framed instance that meets the arch side
    conditions, or None.  The relaxation over the original graph rejects
    most branches before the instance is built."""
    pairs = branch_side_filter(g, lab, levels)
    if not _relaxation_consistent(lab, levels, pairs):
        return None
    derived = reduce_to_level_planarity(g, lab, levels)
    if derived is None:
        return None
    return find_level_embedding(derived, before=pairs)


def branch_accepts(g: Graph, lab: Labeling, levels: LevelAssignment) -> bool:
    """Whether one labeling branch succeeds; the search's leaves decide
    with the same function."""
    return _decide_branch(g, lab, levels) is not None


def embedding_to_queue_layout(
    g: Graph, lab: Labeling, levels: LevelAssignment, emb: LevelEmbedding
) -> LinearLayout:
    """Queue layout from a positive derived instance.

    Per-level orders of the original vertices are read off the drawing
    (normalizing a possible global reflection using the frame), the arched
    side conditions are re-verified, and the spine concatenates the
    reversed per-level orders bottom-up.
    """
    arch_arcs = [(u, v) for (u, v), tag in lab.items() if tag is ArcTag.ARCHING]
    reflect = False
    if arch_arcs:
        row = emb.orders.get(2, ())
        li, ri = row.index("f:l:0"), row.index("f:r:0")
        reflect = li > ri
    orders: dict[int, list[str]] = {}
    for i in range(1, levels.h + 1):
        row = emb.orders.get(2 * i + 1, ())
        if reflect:
            row = row[::-1]
        orders[i] = [v[2:] for v in row if v.startswith("g:")]
    lv = levels.levels

    for u, v in arch_arcs:
        i = lv[u]
        row = orders[i]
        if not row or row[0] != u:
            raise QueueSolverError(f"arching source {u!r} is not leftmost on its level")
        pos = {w: j for j, w in enumerate(row)}
        uppers = [
            w for w in row
            if any(lv.get(x) == i + 1 for x in g.neighbors(w))
        ]
        anchor = pos[uppers[-1]] if uppers else 0
        if pos[v] < anchor:
            raise QueueSolverError(
                f"arching target {v!r} lies left of the last upward vertex"
            )

    spine: list[str] = []
    for i in range(1, levels.h + 1):
        spine.extend(reversed(orders[i]))
    layout = LinearLayout(LayoutKind.QUEUE, 1, tuple(spine), {e: 1 for e in g.edges})
    report = validate_layout(g, layout)
    if not report.ok:
        raise QueueSolverError(f"rebuilt layout is invalid: {report.violations!r}")
    return layout


# -- labeling search ----------------------------------------------------------


@dataclass
class BranchResult:
    layout: LinearLayout | None
    labeling: Labeling | None
    levels: LevelAssignment | None
    branches_tried: int
    bound_rejected: bool = False


def _solve_component(g: Graph) -> BranchResult:
    edges = g.edges
    m = len(edges)
    uf = OffsetUnionFind()
    tried = 0
    chosen: list[tuple[bool, ArcTag]] = []

    def leaf() -> BranchResult | None:
        nonlocal tried
        tried += 1
        arcs = tuple(
            (e[1], e[0]) if flip else e for e, (flip, _) in zip(edges, chosen)
        )
        lab = Labeling(arcs, tuple(tag for _, tag in chosen))
        levels = _levels(uf, g.vertices)
        emb = _decide_branch(g, lab, levels)
        if emb is None:
            return None
        layout = embedding_to_queue_layout(g, lab, levels, emb)
        return BranchResult(layout, lab, levels, tried)

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


def solve_queue_one_page(
    g: Graph, edge_guard: int = DEFAULT_EDGE_GUARD
) -> LinearLayout | None:
    """1-page queue layout of a connected graph, or None."""
    return solve_queue_one_page_report(g, edge_guard).layout


def solve_queue_one_page_report(
    g: Graph, edge_guard: int = DEFAULT_EDGE_GUARD
) -> BranchResult:
    if not g.is_connected():
        raise ValueError("solve_queue_one_page expects a connected graph")
    if not edge_count_bound(g, LayoutKind.QUEUE, 1):
        return BranchResult(None, None, None, 0, bound_rejected=True)
    if g.m > edge_guard:
        raise BranchGuardError(f"component has {g.m} edges, above the guard of {edge_guard}")
    if g.m == 0:
        return BranchResult(LinearLayout(LayoutKind.QUEUE, 1, g.vertices, {}), None, None, 0)
    return _solve_component(g)
