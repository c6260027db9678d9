"""Independent brute-force checker for arched leveled planar embeddings.

Enumerates all per-level orders directly against the definition: ordinary
edges join consecutive levels and may not cross; every arching arc must
leave the leftmost vertex of its level and end at or right of the
rightmost vertex that has a neighbor one level up (or anywhere, if the
level has no upward edges).  Used to cross-check the reduction-based
solver branch by branch.

``side_conditions_accept`` states the same arch conditions on one row of
the framed instance, as a direct per-row predicate; it cross-checks the
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
    """Whether one row of the framed instance meets the arch side conditions.

    Derived level 2 must put the left frame vertex before the right one;
    on the derived level of an original arch level, the arch source comes
    first among the original vertices and every arch target sits at or
    right of the last original vertex with a neighbor one level up.
    Every row passes when nothing arches.
    """
    lv = levels.levels
    arch_by_level: dict[int, tuple[str, set[str]]] = {}
    for (u, v), tag in lab.items():
        if tag is ArcTag.ARCHING:
            arch_by_level.setdefault(lv[u], (u, set()))[1].add(v)
    if not arch_by_level:
        return True
    if level == 2:
        return row.index("f:l:0") < row.index("f:r:0")
    if level % 2 == 1 and (level - 1) // 2 in arch_by_level:
        i = (level - 1) // 2
        origs = [v[2:] for v in row if v.startswith("g:")]
        source, targets = arch_by_level[i]
        if not origs or origs[0] != source:
            return False
        uppers = {w for w in g.vertices if lv[w] == i and any(lv[x] == i + 1 for x in g.adjacency[w])}
        last_upper = -1
        for j, w in enumerate(origs):
            if w in uppers:
                last_upper = j
        pos = {w: j for j, w in enumerate(origs)}
        return all(pos[t] >= last_upper for t in targets)
    return True
