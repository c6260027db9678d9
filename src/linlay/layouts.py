"""Linear layouts: a spine order plus a page assignment, and their validators.

A stack page forbids two of its edges from crossing (u1 < u2 < v1 < v2 along
the spine); a queue page forbids two of its edges from nesting
(u1 < u2 < v2 < v1).  Edges sharing an endpoint never conflict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Mapping

from .graphs import Edge, Graph


class LayoutKind(enum.Enum):
    STACK = "stack"
    QUEUE = "queue"


class LayoutDomainError(ValueError):
    """Layout mentions vertices/edges that do not match the graph (or itself)."""


@dataclass(frozen=True)
class LinearLayout:
    kind: LayoutKind
    page_count: int
    spine: tuple[str, ...]
    pages: dict[Edge, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.page_count < 1:
            raise LayoutDomainError("page_count must be at least 1")

    def positions(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.spine)}


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[tuple[Edge, Edge], ...] = ()


def _pair_conflicts(kind: LayoutKind, pos: Mapping[str, int], e: Edge, f: Edge) -> bool:
    if e[0] in f or e[1] in f:
        return False
    a1, b1 = sorted((pos[e[0]], pos[e[1]]))
    a2, b2 = sorted((pos[f[0]], pos[f[1]]))
    if a1 > a2:
        a1, b1, a2, b2 = a2, b2, a1, b1
    if kind is LayoutKind.STACK:
        return a1 < a2 < b1 < b2
    return a1 < a2 < b2 < b1


def _check_domain(g: Graph, layout: LinearLayout) -> dict[str, int]:
    if tuple(sorted(layout.spine)) != g.vertices or len(layout.spine) != g.n:
        raise LayoutDomainError("spine is not a permutation of the graph's vertices")
    if set(layout.pages) != set(g.edges):
        missing = set(g.edges) - set(layout.pages)
        extra = set(layout.pages) - set(g.edges)
        raise LayoutDomainError(
            f"page assignment does not cover the edge set exactly "
            f"(missing {sorted(missing)!r}, extra {sorted(extra)!r})"
        )
    bad = {e: p for e, p in layout.pages.items() if not 1 <= p <= layout.page_count}
    if bad:
        raise LayoutDomainError(f"page indices out of range: {bad!r}")
    return layout.positions()


def _page_has_conflict(kind: LayoutKind, spans: list[tuple[int, int]]) -> bool:
    """Whether two spans of one page conflict; ``spans`` are ``(a, b)`` with ``a < b``.

    Spans are visited by left end, longer first on a tie.  Two spans that
    share an endpoint share a position, and both conflict patterns ask for
    four strictly increasing positions, so the sweeps below never report
    such a pair.

    Queue: a nesting is a pair with ``a1 < a2`` and ``b2 < b1``.  It exists
    iff some span's right end is smaller than ``reach``, the largest right
    end among spans with a strictly smaller left end: the span attaining
    ``reach`` then encloses it, and conversely the outer span of a nesting
    puts ``reach`` above the inner span's right end.

    Stack: a crossing is a pair with ``a1 < a2 < b1 < b2``.  ``open_ends``
    holds the right ends of visited spans that reach past the current left
    end.  As long as no crossing has been found they are non-increasing from
    bottom to top (a span is pushed only when its right end is at most the
    top), so popping the top while it is ``<= a`` removes exactly the
    closed spans.  A span whose right end exceeds the top crosses the top's
    span: that one starts strictly left (on an equal left end it would be
    the longer one, visited first) and ends strictly inside.  Conversely,
    for a crossing pair the first span is still open when the second is
    visited, so the top ends at or before ``b1 < b2`` and the crossing is
    reported then at the latest.
    """
    ordered = sorted(spans, key=lambda s: (s[0], -s[1]))
    if kind is LayoutKind.STACK:
        open_ends: list[int] = []
        for a, b in ordered:
            while open_ends and open_ends[-1] <= a:
                open_ends.pop()
            if open_ends and b > open_ends[-1]:
                return True
            open_ends.append(b)
        return False
    reach = best = last_a = -1
    for a, b in ordered:
        if a != last_a:
            reach, last_a = best, a
        if b < reach:
            return True
        best = max(best, b)
    return False


def validate_layout(g: Graph, layout: LinearLayout) -> ValidationReport:
    """Check all layout invariants; report every offending same-page pair.

    Each page is decided in O(m log m) by :func:`_page_has_conflict`; only
    a page with a conflict has its same-page pairs enumerated, so the
    sorted ``violations`` are exactly the pairs :func:`_pair_conflicts`
    flags among all same-page pairs.

    Domain mismatches (unknown vertices or edges) raise
    :class:`LayoutDomainError` instead of being reported as violations.
    """
    pos = _check_domain(g, layout)
    by_page: dict[int, list[Edge]] = {}
    spans: dict[int, list[tuple[int, int]]] = {}
    for e in g.edges:
        p = layout.pages[e]
        by_page.setdefault(p, []).append(e)
        a, b = pos[e[0]], pos[e[1]]
        spans.setdefault(p, []).append((a, b) if a < b else (b, a))
    violations = []
    for p in sorted(by_page):
        if not _page_has_conflict(layout.kind, spans[p]):
            continue
        es = by_page[p]
        for i in range(len(es)):
            for j in range(i + 1, len(es)):
                if _pair_conflicts(layout.kind, pos, es[i], es[j]):
                    violations.append((es[i], es[j]))
    violations.sort()
    return ValidationReport(ok=not violations, violations=tuple(violations))


def spanning_edges(layout: LinearLayout, v: str) -> frozenset[Edge]:
    """Edges with one endpoint at or left of ``v`` and the other right of it."""
    pos = layout.positions()
    if v not in pos:
        raise LayoutDomainError(f"unknown vertex {v!r}")
    i = pos[v]
    out = []
    for e in layout.pages:
        if e[0] not in pos or e[1] not in pos:
            raise LayoutDomainError(f"edge {e!r} mentions a vertex missing from the spine")
        a, b = sorted((pos[e[0]], pos[e[1]]))
        if a <= i < b:
            out.append(e)
    return frozenset(out)


def page_width(layout: LinearLayout) -> int:
    """Maximum number of same-page edges spanning any single spine gap.

    Per page, each edge ``(a, b)`` adds one at gap ``a`` and removes it at
    gap ``b`` of a difference array; its prefix sums are the gap counts.
    """
    pos = layout.positions()
    n = len(layout.spine)
    if n == 0 or not layout.pages:
        return 0
    diffs: dict[int, list[int]] = {}
    for e, p in layout.pages.items():
        if e[0] not in pos or e[1] not in pos:
            raise LayoutDomainError(f"edge {e!r} mentions a vertex missing from the spine")
        a, b = sorted((pos[e[0]], pos[e[1]]))
        diff = diffs.get(p)
        if diff is None:
            diff = diffs[p] = [0] * n
        diff[a] += 1
        diff[b] -= 1
    return max(max(accumulate(diff)) for diff in diffs.values())
