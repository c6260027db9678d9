"""Certifying tester for level planarity of proper-leveled graphs.

Input graphs have every vertex on an integer level and every edge between
consecutive levels.  The tester searches per-level left-to-right orders
bottom-up: given the order of level i, the admissible orders of level i+1
are forced up to permuting vertices whose neighborhoods below coincide in a
single position and inserting vertices with no neighbor below.  Components
are handled independently and drawn side by side.

Correctness is the contract here, not the linear running time of the
published level-planarity algorithms; instances in this package arrive
small and pre-filtered.  The returned embedding is certified by an
explicit crossing check before being handed back.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

from .graphs import Graph

LevelFilter = Callable[[int, tuple[str, ...]], bool]


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


def _solve_component(
    lg: LeveledGraph,
    comp: tuple[str, ...],
    level_filter: LevelFilter | None,
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
        for cand in candidates:
            if level_filter is not None and not level_filter(level, tuple(cand)):
                continue
            chosen[level] = tuple(cand)
            if extend(idx + 1):
                return True
        chosen.pop(level, None)
        return False

    return dict(chosen) if extend(0) else None


def find_level_embedding(
    lg: LeveledGraph, level_filter: LevelFilter | None = None
) -> LevelEmbedding | None:
    """A crossing-free proper-level drawing as per-level orders, or None.

    ``level_filter`` restricts the search to drawings whose per-level
    orders the caller accepts; it must be a property of one level's order
    alone.  Filters are meaningful for connected inputs (with several
    components a level's final order concatenates the components').
    """
    lg.check_proper()
    merged: dict[int, list[str]] = {i: [] for i in range(1, lg.levels.h + 1)}
    for comp in lg.graph.components():
        part = _solve_component(lg, comp, level_filter)
        if part is None:
            return None
        for i, vs in part.items():
            merged[i].extend(vs)
    orders = {i: tuple(vs) for i, vs in merged.items()}
    assert _crossing_free(lg, orders), "tester produced a crossing drawing"
    return LevelEmbedding(orders)
