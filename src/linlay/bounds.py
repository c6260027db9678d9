"""A-priori feasibility bound: edge-count rejection."""

from __future__ import annotations

from .graphs import Graph
from .layouts import LayoutKind


def edge_count_bound(g: Graph, kind: LayoutKind, pages: int) -> bool:
    """True if the edge count permits an ``pages``-page layout of this kind.

    Stack layouts on l pages carry at most (l+1)n - 3l edges, queue layouts
    at most 2ln - l(2l+1).  The bounds assume n >= 3; graphs with fewer
    vertices (at most one edge) are always accepted.
    """
    if pages < 1:
        raise ValueError("pages must be at least 1")
    n, m = g.n, g.m
    if n < 3:
        return True
    if kind is LayoutKind.STACK:
        return m <= (pages + 1) * n - 3 * pages
    if n < 2 * pages:
        # the queue formula only applies for n >= 2*pages; below that it
        # drops under C(n, 2) even though ceil(n/2) pages always suffice
        return True
    return m <= 2 * pages * n - pages * (2 * pages + 1)
