"""Schematic arc-diagram rendering: spine on a line, semicircular arcs,
one color per page.  Output bytes are deterministic for a fixed layout."""

from __future__ import annotations

from .layouts import LayoutDomainError, LinearLayout

PAGE_COLORS = (
    "#4472c4",  # blue
    "#b07cc6",  # lilac
    "#55a868",
    "#c44e52",
    "#dd8452",
    "#937860",
)

SPACING = 60
MARGIN = 40
BASELINE_PAD = 30
RADIUS = 9
# vertex ids are any whitespace-free token, so the <text> content is escaped
_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"})


def render_svg(layout: LinearLayout) -> str:
    """The layout's SVG; LayoutDomainError when the layout contradicts
    itself: a repeated spine vertex, a self-loop, an edge with an endpoint
    off the spine or a page outside 1..page_count."""
    n = len(layout.spine)
    pos = {v: MARGIN + i * SPACING for i, v in enumerate(layout.spine)}
    if len(pos) != n:
        raise LayoutDomainError("the spine repeats a vertex")
    for (u, w), page in layout.pages.items():
        if u == w:
            raise LayoutDomainError(f"self-loop at {u}")
        if u not in pos or w not in pos:
            raise LayoutDomainError(f"edge {u}-{w} has an endpoint that is not on the spine")
        if not 1 <= page <= layout.page_count:
            raise LayoutDomainError(
                f"edge {u}-{w} is on page {page}, outside 1..{layout.page_count}"
            )
    max_span = max(
        (abs(pos[u] - pos[w]) for u, w in layout.pages), default=SPACING
    )
    top = max_span // 2 + BASELINE_PAD
    width = 2 * MARGIN + max(n - 1, 0) * SPACING
    height = top + 2 * BASELINE_PAD
    base = top
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<line x1="{MARGIN - 20}" y1="{base}" x2="{width - MARGIN + 20}" y2="{base}" '
        f'stroke="#888888" stroke-width="1"/>',
    ]
    for (u, w), page in sorted(layout.pages.items(), key=lambda it: (it[1], it[0])):
        x1, x2 = sorted((pos[u], pos[w]))
        r = (x2 - x1) / 2
        color = PAGE_COLORS[(page - 1) % len(PAGE_COLORS)]
        parts.append(
            f'<path d="M {x1} {base} A {r:.1f} {r:.1f} 0 0 1 {x2} {base}" '
            f'fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
    for v in layout.spine:
        x = pos[v]
        parts.append(
            f'<circle cx="{x}" cy="{base}" r="{RADIUS}" fill="#ffffff" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{x}" y="{base + 4}" font-size="10" text-anchor="middle" '
            f'font-family="monospace">{v.translate(_XML_ESCAPES)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

