"""Certifying tester for level planarity of proper-leveled graphs.

Input graphs have every vertex on an integer level and every edge between
consecutive levels.  The tester searches per-level left-to-right orders
bottom-up: given the order of level i, the admissible orders of level i+1
are forced up to permuting vertices whose neighborhoods below coincide in a
single position and inserting vertices with no neighbor below.  Without
precedence pairs, components are handled independently and drawn side by
side.

Before that search starts, the tester decides the ordering-parity system
of the instance (Randerath et al. 2001, "A satisfiability formulation of
problems on level graphs"; Brückner, Rutter and Stumpf 2018, "Level
planarity: transitivity vs. even crossings").  Each same-level pair
{u, v} has one boolean "u is left of v"; two edges between the same two
levels with distinct lower ends a, c and distinct upper ends b, d cannot
cross iff x(a, c) = x(b, d); each precedence pair the caller asks for
sets one variable.  ``OffsetUnionFind`` with offsets read mod 2 decides
the system, each equation in time logarithmic in its size, and a
contradiction rejects the instance before any order is enumerated.  The
same class over the integers gives ``queue_one`` the levels of a
labeling.  Without precedence pairs the system is satisfiable exactly
when the instance is level planar (both papers); with them it is only a
necessary condition, so the search still decides.
``parity_consistent`` takes a level map, edges and pairs rather than an
instance, and any vertex type with a total order, so the queue1 solver
decides each branch's system with the same code, on vertex indices,
before it builds the branch's instance.

Correctness is the contract here, not the linear running time of the
published level-planarity algorithms; instances in this package arrive
small and pre-filtered.  The returned embedding is certified by an
explicit crossing check before being handed back.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .graphs import Graph

Precedence = tuple[str, str]  # (p, q): p lies left of q on their common level


class ImproperEdgeError(ValueError):
    """An edge does not join two consecutive levels."""


class LevelError(ValueError):
    """Malformed level assignment (gap, empty level, or unknown vertex)."""


@dataclass(frozen=True)
class LevelAssignment:
    levels: dict[str, int]

    @classmethod
    def build(cls, levels: dict[str, int]) -> "LevelAssignment":
        if levels:
            values = sorted(set(levels.values()))
            if values[0] != 1 or values != list(range(1, len(values) + 1)):
                raise LevelError(f"levels must form the contiguous range 1..h, got {values}")
        return cls(dict(levels))

    @property
    def h(self) -> int:
        return max(self.levels.values(), default=0)


@dataclass(frozen=True)
class LeveledGraph:
    graph: Graph
    levels: LevelAssignment

    def check_proper(self) -> None:
        for v in self.graph.vertices:
            if v not in self.levels.levels:
                raise LevelError(f"vertex {v!r} has no level")
        for u, v in self.graph.edges:
            if abs(self.levels.levels[u] - self.levels.levels[v]) != 1:
                raise ImproperEdgeError(f"edge {u!r}-{v!r} is not proper")


@dataclass(frozen=True)
class LevelEmbedding:
    orders: dict[int, tuple[str, ...]]


def _crossing_free(lg: LeveledGraph, orders: dict[int, tuple[str, ...]]) -> bool:
    pos = {}
    for vs in orders.values():
        for i, v in enumerate(vs):
            pos[v] = i
    lv = lg.levels.levels
    by_pair: dict[int, list[tuple[int, int]]] = {}
    for u, v in lg.graph.edges:
        if lv[u] > lv[v]:
            u, v = v, u
        by_pair.setdefault(lv[u], []).append((pos[u], pos[v]))
    for pairs in by_pair.values():
        for (a1, b1), (a2, b2) in itertools.combinations(pairs, 2):
            if a1 != a2 and b1 != b2 and (a1 < a2) != (b1 < b2):
                return False
    return True


def _candidate_orders(
    vertices: tuple[str, ...],
    below_neighbors: dict[str, list[str]],
    below_pos: dict[str, int],
) -> Iterator[tuple[str, ...]]:
    """Orders of one level compatible with a fixed order below.

    Vertices with neighbors below must appear sorted by their neighbor
    interval; only groups tied on a single shared position may permute.
    Vertices without neighbors below may go anywhere.
    """
    attached = []
    free = []
    for v in vertices:
        ns = below_neighbors[v]
        if ns:
            ps = [below_pos[u] for u in ns]
            attached.append((min(ps), max(ps), v))
        else:
            free.append(v)
    attached.sort()
    for (lo1, hi1, _), (lo2, hi2, _) in zip(attached, attached[1:]):
        if (lo1, hi1) == (lo2, hi2):
            if lo1 != hi1:
                return  # two spread-out vertices over the same interval must cross
        elif hi1 > lo2:
            return  # overlapping intervals force a crossing
    # group consecutive point-ties; they may permute freely
    groups: list[list[str]] = []
    for lo, hi, v in attached:
        if groups and groups[-1] and (lo, hi) == groups[-1][0][:2]:
            groups[-1].append((lo, hi, v))
        else:
            groups.append([(lo, hi, v)])
    group_lists = [[t[2] for t in grp] for grp in groups]

    for perms in itertools.product(*(itertools.permutations(g) for g in group_lists)):
        base = [v for grp in perms for v in grp]
        yield from _insert_everywhere(base, free)


def _insert_everywhere(base: list[str], free: list[str]) -> Iterator[tuple[str, ...]]:
    """All orders containing ``base`` as a subsequence and ``free`` anywhere.

    Orders come by the positions of ``free`` in lexicographic order, then by
    the permutation of ``free``; the cutset search and its state dump rely
    on this order.
    """
    if not free:
        yield tuple(base)
        return
    total = len(base) + len(free)
    for positions in itertools.combinations(range(total), len(free)):
        pos_set = set(positions)
        for perm in itertools.permutations(free):
            out = []
            bi, fi = 0, 0
            for i in range(total):
                if i in pos_set:
                    out.append(perm[fi])
                    fi += 1
                else:
                    out.append(base[bi])
                    bi += 1
            yield tuple(out)


class OffsetUnionFind:
    """Union-find over hashable nodes, each storing the offset of its value
    against its parent's; roots have no entry.

    Offsets are integers, and the group they are read in is fixed for the
    instance: ``modulus`` 0 for the integers (``queue_one``'s
    ``level_assignment_from_labeling``), 2 for parities (the
    ordering-parity system).  Union by size keeps every path short
    without compression.
    """

    def __init__(self, modulus: int = 0) -> None:
        self.modulus = modulus
        self.parent: dict = {}
        self.offset: dict = {}  # value(x) - value(parent(x))
        self.size: dict = {}  # of a root; absent means 1

    def find(self, x) -> tuple[object, int]:
        """The root of ``x`` and value(x) - value(root)."""
        parent, offset = self.parent, self.offset
        off = 0
        while x in parent:
            off += offset[x]
            x = parent[x]
        return x, off

    def union(self, u, v, d: int) -> bool:
        """Impose value(v) - value(u) = d; False on a contradiction."""
        ru, ou = self.find(u)
        rv, ov = self.find(v)
        if ru == rv:
            gap = ov - ou - d
            return gap % self.modulus == 0 if self.modulus else gap == 0
        su, sv = self.size.get(ru, 1), self.size.get(rv, 1)
        if su < sv:  # hang the smaller set: the same equation, read backwards
            ru, ou, rv, ov, d = rv, ov, ru, ou, -d
        self.parent[rv] = ru
        self.offset[rv] = ou + d - ov
        self.size[ru] = su + sv
        return True


_FALSE = None  # anchor node of the parity system, the constant 0


def parity_consistent(lv, edges: Iterable[tuple], before: Iterable[tuple]) -> bool:
    """Whether the ordering-parity system of the proper edges ``edges`` at
    levels ``lv``, with units ``before``, has a solution.  Vertices may be
    names (``lv`` a dict) or indices (``lv`` a list); only their order
    and equality matter.

    The variable of a same-level pair u < v is "u is left of v"; the
    literal x(a, c) of the reversed pair is its negation.  Any
    crossing-free drawing that places p left of q for every pair (p, q)
    in ``before`` satisfies every equation and unit, so a contradiction
    proves that no such drawing exists.
    """
    uf = OffsetUnionFind(modulus=2)
    for p, q in before:
        if not uf.union((min(p, q), max(p, q)), _FALSE, int(p < q)):
            return False
    spans: dict[int, list[tuple[str, str]]] = {}
    for u, v in edges:
        if lv[u] > lv[v]:
            u, v = v, u
        spans.setdefault(lv[u], []).append((u, v))
    for pairs in spans.values():
        for (a, b), (c, d) in itertools.combinations(pairs, 2):
            if a != c and b != d:
                ac = (a, c) if a < c else (c, a)
                bd = (b, d) if b < d else (d, b)
                if not uf.union(ac, bd, (a < c) ^ (b < d)):
                    return False
    return True


def _honours(row: tuple[str, ...], pairs: list[Precedence]) -> bool:
    pos = {v: i for i, v in enumerate(row)}
    return all(pos[p] < pos[q] for p, q in pairs)


def _solve_component(
    lg: LeveledGraph,
    comp: tuple[str, ...],
    before_by_level: dict[int, list[Precedence]],
) -> dict[int, tuple[str, ...]] | None:
    lv = lg.levels.levels
    levels = sorted({lv[v] for v in comp})
    by_level = {i: tuple(sorted(v for v in comp if lv[v] == i)) for i in levels}
    below: dict[str, list[str]] = {v: [] for v in comp}
    for u, v in lg.graph.edges:
        if u in below and v in below:
            if lv[u] + 1 == lv[v]:
                below[v].append(u)
            elif lv[v] + 1 == lv[u]:
                below[u].append(v)

    chosen: dict[int, tuple[str, ...]] = {}

    def extend(idx: int) -> bool:
        if idx == len(levels):
            return True
        level = levels[idx]
        if idx == 0:
            candidates: Iterator[tuple[str, ...]] = itertools.permutations(by_level[level])
        else:
            prev = chosen[levels[idx - 1]]
            below_pos = {v: i for i, v in enumerate(prev)}
            candidates = _candidate_orders(by_level[level], below, below_pos)
        pairs = before_by_level.get(level)
        for cand in candidates:
            if pairs and not _honours(cand, pairs):
                continue
            chosen[level] = tuple(cand)
            if extend(idx + 1):
                return True
        chosen.pop(level, None)
        return False

    return dict(chosen) if extend(0) else None


def find_level_embedding(
    lg: LeveledGraph, before: Iterable[Precedence] = ()
) -> LevelEmbedding | None:
    """A crossing-free proper-level drawing as per-level orders, or None.

    Every pair (p, q) in ``before`` names two vertices of one level, and
    the drawing must place p left of q.  Without pairs the components are
    drawn one by one, side by side; a pair may join two components' rows,
    so with pairs the whole instance is searched as one unit.  That search
    is complete on a disconnected instance too, since a vertex with no
    neighbor below may go anywhere in its row.

    The ordering-parity system is decided first.  It is sound as a
    rejection: a crossing-free drawing that honours ``before`` makes every
    equation true (its edges do not cross) and every unit true (it honours
    the pair), so an unsatisfiable system leaves nothing for the search
    to find.  When the system is satisfiable, the backtracking search
    decides, in its usual candidate order, so the drawing returned is the
    one it would have found without the check.
    """
    lg.check_proper()
    before = list(before)
    lv = lg.levels.levels
    before_by_level: dict[int, list[Precedence]] = {}
    for p, q in before:
        if p == q or p not in lv or lv[p] != lv.get(q):
            raise LevelError(f"precedence pair {p!r}, {q!r} is not on one level")
        before_by_level.setdefault(lv[p], []).append((p, q))
    if not parity_consistent(lv, lg.graph.edges, before):
        return None
    comps = [lg.graph.vertices] if before else lg.graph.components()
    merged: dict[int, list[str]] = {i: [] for i in range(1, lg.levels.h + 1)}
    for comp in comps:
        part = _solve_component(lg, comp, before_by_level)
        if part is None:
            return None
        for i, vs in part.items():
            merged[i].extend(vs)
    orders = {i: tuple(vs) for i, vs in merged.items()}
    assert _crossing_free(lg, orders), "tester produced a crossing drawing"
    return LevelEmbedding(orders)
