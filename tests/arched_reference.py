"""Independent brute-force checker for arched leveled planar embeddings.

Enumerates all per-level orders directly against the definition: ordinary
edges join consecutive levels and may not cross; every arching arc must
leave the leftmost vertex of its level and end at or right of the
rightmost vertex that has a neighbor one level up (or anywhere, if the
level has no upward edges).  Used to cross-check the reduction-based
solver branch by branch.

``side_conditions_accept`` states the same arch conditions on one row of
original vertices, as a direct per-row predicate; it cross-checks the
precedence pairs of ``branch_side_filter`` row by row.
"""

from __future__ import annotations

import itertools

from linlay.queue_one import ArcTag


def arched_embedding_exists(g, lab, levels) -> bool:
    lv = levels.levels
    h = levels.h
    by_level = [sorted(v for v in g.vertices if lv[v] == i) for i in range(1, h + 1)]
    ordinary = []
    arching = []
    for (u, v), tag in lab.items():
        if tag is ArcTag.ORDINARY:
            lo, hi = (u, v) if lv[u] < lv[v] else (v, u)
            ordinary.append((lo, hi))
        else:
            arching.append((u, v))

    for orders in itertools.product(*(itertools.permutations(vs) for vs in by_level)):
        pos = {}
        for row in orders:
            for i, v in enumerate(row):
                pos[v] = i
        ok = True
        for (a, b), (c, d) in itertools.combinations(ordinary, 2):
            if lv[a] != lv[c]:
                continue
            if a != c and b != d and (pos[a] < pos[c]) != (pos[b] < pos[d]):
                ok = False
                break
        if not ok:
            continue
        for u, v in arching:
            row = orders[lv[u] - 1]
            if row[0] != u:
                ok = False
                break
            uppers = [w for w in row if any(lv[x] == lv[u] + 1 for x in g.neighbors(w))]
            anchor = pos[uppers[-1]] if uppers else 0
            if pos[v] < anchor:
                ok = False
                break
        if ok:
            return True
    return False


def side_conditions_accept(g, lab, levels, level: int, row: tuple[str, ...]) -> bool:
    """Whether one row of original vertices meets the arch side conditions.

    On an arch level the arch source comes first and every arch target
    sits at or right of the last vertex with a neighbor one level up.
    Every row passes on a level without arches.
    """
    lv = levels.levels
    arch_by_level: dict[int, tuple[str, set[str]]] = {}
    for (u, v), tag in lab.items():
        if tag is ArcTag.ARCHING:
            arch_by_level.setdefault(lv[u], (u, set()))[1].add(v)
    if level not in arch_by_level:
        return True
    source, targets = arch_by_level[level]
    if not row or row[0] != source:
        return False
    last_upper = -1
    for j, w in enumerate(row):
        if any(lv[x] == level + 1 for x in g.adjacency[w]):
            last_upper = j
    pos = {w: j for j, w in enumerate(row)}
    return all(pos[t] >= last_upper for t in targets)
