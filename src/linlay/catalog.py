"""Catalog of connected graphs up to isomorphism, for exhaustive sweeps.

Graphs on n vertices are encoded as edge bitmasks over the C(n, 2) vertex
pairs in lexicographic order.  The catalog for n is grown from the catalog
for n - 1 by attaching a new vertex to every nonempty neighbor subset
(every connected graph has a non-cut vertex, so this reaches everything)
and deduplicating by a canonical certificate: the minimum bitmask over all
relabelings that respect an iterated degree-refinement partition.

The n = 7 catalog (853 graphs) ships as a data file; smaller ones are cheap
to regenerate on the fly.
"""

from __future__ import annotations

import itertools
from importlib import resources

from .graphs import Graph

_NAMES = "abcdefghij"

KNOWN_CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def _pair_index(n: int) -> dict[tuple[int, int], int]:
    idx = {}
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            idx[(i, j)] = k
            k += 1
    return idx


def _apply_perm(mask: int, perm: tuple[int, ...], pidx: dict) -> int:
    out = 0
    for (i, j), k in pidx.items():
        if mask >> k & 1:
            a, b = perm[i], perm[j]
            if a > b:
                a, b = b, a
            out |= 1 << pidx[(a, b)]
    return out


def _refinement_classes(n: int, adj: list[list[int]]) -> list[list[int]]:
    color: list = [len(adj[v]) for v in range(n)]
    while True:
        new = [(color[v], tuple(sorted(color[u] for u in adj[v]))) for v in range(n)]
        ranks = {c: i for i, c in enumerate(sorted(set(new)))}
        new_ids = [ranks[c] for c in new]
        if new_ids == color:
            break
        color = new_ids
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(color[v], []).append(v)
    return [classes[c] for c in sorted(classes)]


def canonical_certificate(n: int, mask: int) -> int:
    """Minimum bitmask over relabelings respecting the refinement partition."""
    pidx = _pair_index(n)
    adj: list[list[int]] = [[] for _ in range(n)]
    for (i, j), k in pidx.items():
        if mask >> k & 1:
            adj[i].append(j)
            adj[j].append(i)
    classes = _refinement_classes(n, adj)
    offsets = []
    pos = 0
    for cls in classes:
        offsets.append(pos)
        pos += len(cls)
    best = None
    for parts in itertools.product(*(itertools.permutations(cls) for cls in classes)):
        perm = [0] * n
        for cls_perm, off in zip(parts, offsets):
            for slot, v in enumerate(cls_perm):
                perm[v] = off + slot
        cand = _apply_perm(mask, tuple(perm), pidx)
        if best is None or cand < best:
            best = cand
    assert best is not None
    return best


def _mask_to_graph(n: int, mask: int) -> Graph:
    pidx = _pair_index(n)
    edges = [
        (_NAMES[i], _NAMES[j]) for (i, j), k in pidx.items() if mask >> k & 1
    ]
    return Graph.build(_NAMES[:n], edges)


def connected_graph_masks(n: int) -> list[int]:
    """Canonical bitmasks of all connected graphs on n vertices, generated."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return [0]
    prev = connected_graph_masks(n - 1)
    pidx = _pair_index(n)
    out: set[int] = set()
    new_vertex = n - 1
    for small in prev:
        # re-embed the (n-1)-vertex mask into the n-vertex pair indexing
        base = 0
        small_pidx = _pair_index(n - 1)
        for (i, j), k in small_pidx.items():
            if small >> k & 1:
                base |= 1 << pidx[(i, j)]
        for subset in range(1, 1 << (n - 1)):
            mask = base
            for i in range(n - 1):
                if subset >> i & 1:
                    mask |= 1 << pidx[(i, new_vertex)]
            out.add(canonical_certificate(n, mask))
    return sorted(out)


def connected_graphs(n: int) -> list[Graph]:
    return [_mask_to_graph(n, m) for m in connected_graph_masks(n)]


def catalog_upto(n: int) -> list[Graph]:
    """All connected graphs with 1..n vertices, canonical representatives."""
    out: list[Graph] = []
    for k in range(1, n + 1):
        if k == 7:
            out.extend(load_frozen_n7())
        else:
            out.extend(connected_graphs(k))
    return out


def load_frozen_n7() -> list[Graph]:
    text = resources.files("linlay").joinpath("data/connected_n7.txt").read_text()
    masks = [int(line, 16) for line in text.split() if line.strip()]
    if len(masks) != KNOWN_CONNECTED_COUNTS[7]:
        raise RuntimeError(
            f"frozen n=7 catalog holds {len(masks)} graphs, expected 853"
        )
    return [_mask_to_graph(7, m) for m in masks]

