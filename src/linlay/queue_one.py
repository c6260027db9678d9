"""Single-page queue layouts via labelings and level planarity.

A labeling orients every edge and tags it ordinary (step up one level) or
arching (stay on the level).  Each consistent labeling determines a level
assignment up to shift; the graph then has a queue layout inducing that
labeling iff its ordinary arcs, at those levels, have a level drawing
that meets the arches' side conditions: the arch source first on its
level, and every arch target at or right of the last vertex with a
neighbor one level up.  The conditions are same-level precedence pairs
(``branch_side_filter``), so each branch is a level-planarity instance
with pairs, and the spine is the drawing's rows, each reversed, bottom-up.

The solver takes a connected graph (``linlay.runner`` lays out the
components of a disconnected one and concatenates them).  It branches over
the 4^m labelings in a fixed order (per edge: forward-ordinary,
backward-ordinary, forward-arching, backward-arching) and returns the
first branch that succeeds, pruning labeling prefixes whose level
constraints are already contradictory.  The search runs on vertex
indices: the components after each edge are fixed in advance (a merge
plan), and the levels live in one list that shifts the smaller side of
each join (``_solve_component``).  Each complete labeling is first checked
on its instance's ordering-parity system with the pairs
(``levelplan.parity_consistent``, on the indices).  Nearly every branch
fails there, and only the survivors are named, built and handed, with the
pairs, to the level-planarity tester, which decides the same system
first; so every branch's outcome is the one the tester alone would give.
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


# -- deciding one branch ------------------------------------------------------


def reduce_to_level_planarity(
    g: Graph, lab: Labeling, levels: LevelAssignment
) -> LeveledGraph | None:
    """The level-planarity instance of one labeling branch: every vertex of
    ``g`` at its labeling level, with the ordinary arcs as edges.

    The arches are not edges of the instance; ``branch_side_filter`` states
    them as precedence pairs.  Returns None when two distinct vertices of
    one level are arch sources, since both would have to come first on it.
    """
    lv = levels.levels
    arch_source: dict[int, str] = {}
    ordinary = []
    for (u, v), tag in lab.items():
        if tag is ArcTag.ARCHING:
            if arch_source.setdefault(lv[u], u) != u:
                return None
        else:
            ordinary.append((u, v))
    return LeveledGraph(Graph.build(g.vertices, ordinary), levels)


def branch_side_filter(g: Graph, lab: Labeling, levels: LevelAssignment) -> list[Precedence]:
    """Same-level precedence pairs (p, q), "p left of q", that state the
    arch side conditions of one branch:

    * on each arch level, the arch source before every other vertex of the
      level;
    * on each arch level, every vertex with a neighbor one level up before
      every arch target other than itself.

    A row honours all pairs of its level exactly when it meets the
    conditions.  Empty when nothing arches.

    Why the conditions are the arches' whole contribution: the spine is
    each level's row reversed, bottom-up.  Two ordinary arcs between the
    same two levels nest on the spine exactly when they cross in the
    drawing.  An arch (u, v) on level i has u last in its spine block, so
    it is nested only by an ordinary arc that leaves level i from a vertex
    w placed before v on the spine, that is, right of v in the row.  Every
    other pair of edges is disjoint, shares an endpoint, or crosses.
    """
    return _side_pairs(
        g.vertices, lab.arcs, [tag is ArcTag.ARCHING for tag in lab.tags], levels.levels
    )


def _side_pairs(vertices, arcs, arching, lv) -> list:
    """``branch_side_filter`` on any vertex type: ``arcs`` with their
    ``arching`` flags, levels ``lv``, rows in ``vertices`` order.  The
    search calls it on vertex indices."""
    arch_by_level: dict = {}
    climbers = set()  # an ordinary arc (a, b) climbs from a to a's level + 1
    for (u, v), arch in zip(arcs, arching):
        if arch:
            arch_by_level.setdefault(lv[u], (u, set()))[1].add(v)
        else:
            climbers.add(u)
    pairs = []
    for i, (source, targets) in sorted(arch_by_level.items()):
        row = [w for w in vertices if lv[w] == i]
        pairs.extend((source, w) for w in row if w != source)
        uppers = [w for w in row if w in climbers]
        pairs.extend((w, t) for t in sorted(targets) for w in uppers if w != t)
    return pairs


def _decide_branch(g: Graph, lab: Labeling, levels: LevelAssignment) -> LevelEmbedding | None:
    """A drawing of the branch's ordinary arcs that honours its side pairs,
    or None.

    By ``branch_side_filter``'s argument, a branch succeeds exactly when
    such a drawing exists: the source first on each arch level, and every
    upward vertex before every other arch target.  The instance's own
    ordering-parity system is decided first, on the level map alone, and
    rejects nearly every branch before the instance is built.
    """
    pairs = branch_side_filter(g, lab, levels)
    ordinary = [arc for arc, tag in lab.items() if tag is ArcTag.ORDINARY]
    if not parity_consistent(levels.levels, ordinary, pairs):
        return None
    instance = reduce_to_level_planarity(g, lab, levels)
    if instance is None:
        return None
    return find_level_embedding(instance, before=pairs)


def branch_accepts(g: Graph, lab: Labeling, levels: LevelAssignment) -> bool:
    """Whether one labeling branch succeeds; the search's leaves decide
    with the same function."""
    return _decide_branch(g, lab, levels) is not None


def embedding_to_queue_layout(
    g: Graph, lab: Labeling, levels: LevelAssignment, emb: LevelEmbedding
) -> LinearLayout:
    """Queue layout from a drawing of a branch's instance.

    The arched side conditions are re-verified on the drawing's rows, and
    the spine concatenates the reversed rows bottom-up.
    """
    lv = levels.levels
    for (u, v), tag in lab.items():
        if tag is not ArcTag.ARCHING:
            continue
        i = lv[u]
        row = emb.orders.get(i, ())
        if not row or row[0] != u:
            raise QueueSolverError(f"arching source {u!r} is not leftmost on its level")
        pos = {w: j for j, w in enumerate(row)}
        uppers = [w for w in row if any(lv[x] == i + 1 for x in g.neighbors(w))]
        if pos[v] < (pos[uppers[-1]] if uppers else 0):
            raise QueueSolverError(f"arching target {v!r} lies left of the last upward vertex")

    spine: list[str] = []
    for i in range(1, levels.h + 1):
        spine.extend(reversed(emb.orders.get(i, ())))
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


_GAP = (1, -1, 0, 0)  # level(v) - level(u) on edge (u, v), per option of _EDGE_OPTIONS


def _merge_plan(n: int, edges: list[tuple[int, int]]) -> list[tuple]:
    """Per edge, in order: ``(labels, moved, v_moves, closes)``.

    ``labels`` names each vertex's component once the edge is in.  For an
    edge that joins two components, ``moved`` holds the vertices of the
    smaller one, ``v_moves`` says whether that side holds the edge's
    second endpoint, and ``closes`` lists the later edges whose endpoints
    this edge joins into one component; ``moved`` is empty otherwise.
    None of this depends on the labels chosen.
    """
    label = list(range(n))
    members = [[w] for w in range(n)]
    plan = []
    for u, v in edges:
        ru, rv = label[u], label[v]
        moved: tuple[int, ...] = ()
        v_moves = False
        if ru != rv:
            v_moves = len(members[rv]) <= len(members[ru])
            keep, gone = (ru, rv) if v_moves else (rv, ru)
            moved = tuple(members[gone])
            for w in moved:
                label[w] = keep
            members[keep] += moved
        plan.append((tuple(label), moved, v_moves, []))
    for j, (u, v) in enumerate(edges):
        k = next(k for k, step in enumerate(plan) if step[0][u] == step[0][v])
        if k < j:
            plan[k][3].append((u, v))
    return plan


def _solve_component(g: Graph) -> BranchResult:
    """The first labeling, in branch order, whose branch succeeds.

    The search runs on vertex indices (index order is name order).  Which
    vertices share a component after the first k edges does not depend on
    the labels, only their levels do, so ``_merge_plan`` fixes the
    components once.  ``level`` holds each vertex's level relative to its
    component.  An edge that joins two components admits all four
    options: the smaller side shifts so the option's step holds, and
    shifts back on return.  An edge inside a component admits exactly the
    options whose step (+1, -1 or 0) equals its current level gap.  Two
    distinct arch sources in one component on one level doom every
    completion, as before.

    Forward check: a later edge's gap is fixed from the moment one edge
    joins its endpoints, since every later shift moves a whole component.
    A gap outside {-1, 0, 1} fits none of its options, so no labeling
    below the prefix reaches a leaf, and the prefix is cut.  The cut
    removes only subtrees without leaves, so the leaves, their order and
    ``branches_tried`` are those of the plain search.

    Each leaf decides its ordering-parity system with its side pairs on
    the indices; only a leaf that passes gets its ``Labeling``, its
    ``LevelAssignment`` and ``_decide_branch``, which decides the same
    system on the names first, so every leaf's outcome is unchanged.
    """
    names = g.vertices
    index = {v: i for i, v in enumerate(names)}
    edges = [(index[u], index[v]) for u, v in g.edges]
    m = len(edges)
    plan = _merge_plan(len(names), edges)
    arc_options = [((u, v), (v, u), (u, v), (v, u)) for u, v in edges]
    indices = range(len(names))
    level = [0] * len(names)
    choice: list[int] = []  # option per decided edge
    sources: list[int] = []  # arch sources of the prefix
    tried = 0

    def leaf() -> BranchResult | None:
        nonlocal tried
        tried += 1
        low = min(level)
        lv = [x - low + 1 for x in level]
        arcs = [arc_options[k][o] for k, o in enumerate(choice)]
        arching = [o >= 2 for o in choice]
        pairs = _side_pairs(indices, arcs, arching, lv)
        ordinary = [arc for arc, a in zip(arcs, arching) if not a]
        if not parity_consistent(lv, ordinary, pairs):
            return None
        lab = Labeling(
            tuple((names[a], names[b]) for a, b in arcs),
            tuple(_EDGE_OPTIONS[o][1] for o in choice),
        )
        levels = LevelAssignment.build(dict(zip(names, lv)))
        emb = _decide_branch(g, lab, levels)
        if emb is None:
            return None
        return BranchResult(embedding_to_queue_layout(g, lab, levels, emb), lab, levels, tried)

    def rec(k: int) -> BranchResult | None:
        if k == m:
            return leaf()
        u, v = edges[k]
        labels, moved, v_moves, closes = plan[k]
        gap = level[v] - level[u]
        for o, want in enumerate(_GAP):
            shift = 0
            if moved:
                shift = want - gap if v_moves else gap - want
                for w in moved:
                    level[w] += shift
                ok = True
                for x, y in closes:
                    if not -1 <= level[y] - level[x] <= 1:
                        ok = False
                        break
            else:
                ok = gap == want
            if ok and o >= 2:
                a = v if o == 3 else u  # the arch's source
                la, ca = level[a], labels[a]
                for w in sources:
                    if w != a and level[w] == la and labels[w] == ca:
                        ok = False
                        break
            result = None
            if ok:
                if o >= 2:
                    sources.append(a)
                choice.append(o)
                result = rec(k + 1)
                choice.pop()
                if o >= 2:
                    sources.pop()
            for w in moved:
                level[w] -= shift
            if result is not None:
                return result
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
