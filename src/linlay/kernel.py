"""Vertex-integrity kernelization with constructive layout lifting.

Pipeline: compute the vertex integrity p with a witnessing separator S,
group the components of G - S into twin classes (isomorphic with identical
attachments into S), fold every class with fewer than ``threshold`` members
into the kept core, and keep ``threshold`` disjoint "groups", each holding
one member of every large class.  A layout of the reduced graph is lifted
back by locating three groups laid out identically (a guiding sublayout),
reading off a block pattern, and replaying that pattern for every member.
``runner._solve_kernel`` runs these steps end to end around an inner solver.

Without a threshold, largeness follows the paper's tower function (see
``build_reduced_graph``), which no materializable class reaches, so every
class folds and the kernel is the whole graph.  An integer threshold
overrides it so the lifting machinery can be exercised at desk scale;
kernel completeness is then checked empirically against a complete solver
rather than guaranteed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .graphs import Edge, Graph, edge
from .layouts import LayoutKind, LinearLayout, validate_layout
from .oracle import DEFAULT_GUARD, OracleQuery, solve_exhaustive


class LiftError(AssertionError):
    """Internal inconsistency while lifting (a bug, not infeasibility)."""


# -- vertex integrity ---------------------------------------------------------


@dataclass(frozen=True)
class ViDecomposition:
    separator: tuple[str, ...]
    components: tuple[tuple[str, ...], ...]
    p: int


def _vi_witness(g: Graph, p: int) -> tuple[tuple[str, ...], list[list[str]]] | None:
    """Separator S with |S| + max component size <= p, with the components
    of G - S in walk order, or None.

    Branches over a connected (p - |S| + 1)-vertex piece of any oversized
    component; every witness must hit that piece.  The piece is the first
    ``cap`` = p - |S| + 1 vertices of the first oversized component in
    breadth-first order, and a component is oversized exactly when it
    reaches ``cap`` vertices.  So each node walks G - S with that cap: the
    walk stops at the first oversized component, yielding exactly the
    piece the uncapped walk would cut from it, and the components before
    it whole.  The branch sets, their order and hence the separator found
    are those of the uncapped search (``tests/naive.py`` keeps it as the
    reference).  The node that succeeds met no oversized component, so its
    walk covered all of G - S and its components are returned as they are.
    """

    def rec(sep: frozenset[str]) -> tuple[tuple[str, ...], list[list[str]]] | None:
        cap = p - len(sep) + 1
        comps = []
        for comp in g.bfs_components(sep, cap):
            if len(comp) >= cap:
                break
            comps.append(comp)
        else:
            return tuple(sorted(sep)), comps
        if len(sep) >= p:
            return None
        for v in comp:
            found = rec(sep | {v})
            if found is not None:
                return found
        return None

    return rec(frozenset())


def compute_vertex_integrity(g: Graph, budget: int | None = None) -> ViDecomposition | None:
    """Exact vertex integrity with a witnessing separator.

    With a budget, returns the decomposition only if vi(g) <= budget and
    None otherwise (a budget verdict, not an error).
    """
    if g.n == 0:
        return ViDecomposition((), (), 1)
    top = min(budget, g.n) if budget is not None else g.n
    for p in range(1, top + 1):
        found = _vi_witness(g, p)
        if found is not None:
            sep, comps = found
            return ViDecomposition(sep, tuple(tuple(sorted(c)) for c in comps), p)
    return None


# -- twin classes -------------------------------------------------------------


@dataclass(frozen=True)
class TwinClass:
    """Components isomorphic with identical attachments into the separator.

    ``members`` lists each component's sorted vertex tuple, canonically
    ordered with the representative first; ``isos[i]`` maps member i's
    vertices onto the representative's.
    """

    members: tuple[tuple[str, ...], ...]
    isos: tuple[dict[str, str], ...]

    @property
    def representative(self) -> tuple[str, ...]:
        return self.members[0]


def _attachment_iso(
    g: Graph, profile: dict[str, tuple], src: tuple[str, ...], dst: tuple[str, ...]
) -> dict[str, str] | None:
    """First map src -> dst preserving internal edges and S-attachments.

    ``profile`` gives each vertex its degree and its adjacency to each
    separator vertex; a map must preserve it.
    """
    images: list[str] = []
    return dict(zip(src, images)) if _extend_iso(g, profile, src, dst, images) else None


def _extend_iso(
    g: Graph, profile: dict[str, tuple], src: tuple[str, ...], dst: tuple[str, ...],
    images: list[str],
) -> bool:
    """Extend the partial map ``src[:i] -> images`` to all of src.

    Backtracking maps ``src[i]`` to the unused images in ``dst`` order
    that keep its profile and its edges to ``src[:i]``.  Every condition
    concerns one or two mapped vertices, so a failing partial map fails
    in every completion, and the first map found is the first in
    ``itertools.permutations(dst)`` order.  A module-level function, not a
    closure: a recursive closure is a reference cycle per call, left for
    the cyclic garbage collector.
    """
    i = len(images)
    if i == len(src):
        return True
    u = src[i]
    for w in dst:
        if w in images or profile[w] != profile[u]:
            continue
        for j in range(i):
            if g.has_edge(src[j], u) != g.has_edge(images[j], w):
                break
        else:
            images.append(w)
            if _extend_iso(g, profile, src, dst, images):
                return True
            images.pop()
    return False


def twin_partition(g: Graph, dec: ViDecomposition) -> tuple[TwinClass, ...]:
    """Partition the components of G - S by the twin relation.

    A component is tried against the classes in the order they arose, but
    only against those whose representative has the same sorted vertex
    profiles, as every twin of it has.

    Components are memoized by *shape*: the neighbour tuple of each vertex,
    with component vertices written as indices into the sorted component
    and separator vertices kept as names.  Two components of equal shape
    are related by the index map, which preserves edges inside them and
    every attachment into S, so it is an attachment-preserving isomorphism.
    Hence a representative is a twin of one exactly when it is a twin of
    the other; the classes that arose before the first of them reject both,
    and both join the class the first joined or founded.  The maps onto
    that representative that ``_attachment_iso`` accepts depend on the
    source only through degrees, attachments and edges by index, which
    the shape fixes, so as index sequences both components share the first
    one in ``itertools.permutations`` order (for the founder itself it is
    the identity, which is first of all).  A memo hit therefore reuses the
    class and the index sequence, and profiles and isomorphism searches run
    only on misses.
    """
    adj = g.adjacency
    profile: dict[str, tuple] = {}
    classes: list[tuple[list[tuple[str, ...]], list[dict[str, str]]]] = []
    by_profiles: dict[tuple, list[tuple[list, list]]] = {}
    by_shape: dict[tuple, tuple[list, list, tuple[str, ...]]] = {}
    for comp in dec.components:
        index = {v: i for i, v in enumerate(comp)}
        # index.get(w, w): an index inside the component, a name in S
        shape = tuple([tuple(map(index.get, adj[v], adj[v])) for v in comp])
        hit = by_shape.get(shape)
        if hit is not None:
            members, isos, images = hit
            members.append(comp)
            isos.append(dict(zip(comp, images)))
            continue
        for v in comp:
            profile[v] = (len(adj[v]), tuple(s in adj[v] for s in dec.separator))
        same = by_profiles.setdefault(tuple(sorted(profile[v] for v in comp)), [])
        for members, isos in same:
            mapping = _attachment_iso(g, profile, comp, members[0])
            if mapping is not None:
                members.append(comp)
                isos.append(mapping)
                break
        else:
            mapping = {v: v for v in comp}
            members, isos = [comp], [mapping]
            same.append((members, isos))
            classes.append((members, isos))
        # the index sequence of the map, written as representative vertices
        by_shape[shape] = (members, isos, tuple(mapping.values()))
    return tuple(TwinClass(tuple(members), tuple(isos)) for members, isos in classes)


# -- reduced graph --------------------------------------------------------------


@dataclass(frozen=True)
class ReducedGraphCertificate:
    graph: Graph
    separator: tuple[str, ...]
    s_prime: tuple[str, ...]
    classes: tuple[TwinClass, ...]
    large_class_ids: tuple[int, ...]
    group_count: int
    threshold: int | None
    removed: tuple[tuple[int, int], ...]  # (class id, pruned member count)

    @cached_property
    def group_maps(self) -> tuple[tuple[dict[str, str], dict[str, str]], ...]:
        """(to_rep, from_rep) vertex maps of each group; group i holds the
        i-th member of every large class."""
        maps = []
        for i in range(self.group_count):
            to_rep: dict[str, str] = {}
            for cid in self.large_class_ids:
                to_rep.update(self.classes[cid].isos[i])
            maps.append((to_rep, {r: v for v, r in to_rep.items()}))
        return tuple(maps)

    def covers_whole_graph(self, g: Graph) -> bool:
        return set(self.graph.vertices) == set(g.vertices)


def build_reduced_graph(
    g: Graph, dec: ViDecomposition, threshold: int | None = None
) -> ReducedGraphCertificate:
    """Fold small twin classes into the core, keep ``threshold`` groups of the rest.

    A class is large when it has at least ``threshold`` members; every
    other class folds into the core, and ``threshold`` members of each large
    class are kept.  ``None`` stands for the paper's threshold
    2^(2^(pages * x^2 * 2^(12 p^2))) at core size x and p = ``dec.p``,
    which is never evaluated: no class of a materializable graph reaches
    it, whatever the page count, so every class folds and the kernel is
    the whole graph.
    """
    classes = twin_partition(g, dec)
    large = tuple(
        cid
        for cid, cls in enumerate(classes)
        if threshold is not None and len(cls.members) >= threshold
    )
    core: set[str] = set(dec.separator)
    for cid, cls in enumerate(classes):
        if cid not in large:
            for member in cls.members:
                core.update(member)
    kept = threshold if large else 0
    keep_vertices = set(core)
    for cid in large:
        for member in classes[cid].members[:kept]:
            keep_vertices.update(member)

    return ReducedGraphCertificate(
        graph=g.induced(keep_vertices) if large else g,
        separator=dec.separator,
        s_prime=tuple(sorted(core - set(dec.separator))),
        classes=classes,
        large_class_ids=large,
        group_count=kept,
        threshold=threshold,
        removed=tuple((cid, len(classes[cid].members) - kept) for cid in large),
    )


# -- guiding sublayout -----------------------------------------------------------


@dataclass(frozen=True)
class GuidingSublayout:
    """Three groups laid out identically, with the block pattern they share.

    ``y`` is the middle group of the triple, through which lifted pages
    copy.  ``template`` is the common order over representative vertices
    plus the kept core; ``blocks`` partitions the representative vertices
    into runs, each expanded ascending or descending on lifting.
    ``kernel_layout`` is the layout the guide was read from.
    """

    y: int
    template: tuple[str, ...]
    blocks: tuple[tuple[tuple[str, ...], str], ...]  # (run of reps, "asc"/"desc")
    kernel_layout: LinearLayout


def _info_key(
    kernel_layout: LinearLayout,
    core: set[str],
    a_map: dict[str, str],
    b_map: dict[str, str],
):
    """Canonical form of the layout on core + two groups, renamed through
    the representatives into the fixed reference pair."""
    def rename(v: str) -> str | None:
        if v in core:
            return v
        if v in a_map:
            return a_map[v]
        if v in b_map:
            return b_map[v]
        return None

    spine = tuple(x for x in (rename(v) for v in kernel_layout.spine) if x is not None)
    edges = []
    for (u, w), p in kernel_layout.pages.items():
        ru, rw = rename(u), rename(w)
        if ru is not None and rw is not None:
            edges.append((edge(ru, rw), p))
    return spine, tuple(sorted(edges))


def find_guiding_sublayout(
    kernel_layout: LinearLayout, cert: ReducedGraphCertificate
) -> GuidingSublayout | None:
    """Search all group triples for pairwise-equal pulled-back layouts.

    Needs at least five groups (two fixed reference groups plus the
    triple).  Returns None with fewer, or when no triple matches, which can
    happen under overridden desk-scale thresholds; the caller then falls
    back.
    """
    k = cert.group_count
    if k < 5:
        return None
    core = set(cert.separator) | set(cert.s_prime)
    spine_pos = {v: i for i, v in enumerate(kernel_layout.spine)}
    maps = cert.group_maps
    groups = list(range(k))
    ref_l, ref_lp = sorted(groups, key=lambda i: min(maps[i][0]))[:2]
    rest = [i for i in groups if i not in (ref_l, ref_lp)]
    rest.sort(key=lambda i: min(spine_pos[v] for v in maps[i][0]))

    l_from, lp_from = maps[ref_l][1], maps[ref_lp][1]
    into_l = {i: {v: l_from[r] for v, r in maps[i][0].items()} for i in rest}
    into_lp = {i: {v: lp_from[r] for v, r in maps[i][0].items()} for i in rest}

    info: dict[tuple[int, int], object] = {}
    for ai, bi in itertools.combinations(range(len(rest)), 2):
        a, b = rest[ai], rest[bi]
        info[(a, b)] = _info_key(kernel_layout, core, into_l[a], into_lp[b])

    triple = None
    for ai, bi, ci in itertools.combinations(range(len(rest)), 3):
        a, b, c = rest[ai], rest[bi], rest[ci]
        if info[(a, b)] == info[(b, c)] == info[(a, c)]:
            triple = (a, b, c)
            break
    if triple is None:
        return None
    x, y, z = triple

    # template order over representatives + core, read off the X copy and
    # cross-checked against the Y and Z copies
    def template_via(i: int) -> tuple[str, ...]:
        to_rep = maps[i][0]
        return tuple(
            to_rep.get(v, v) for v in kernel_layout.spine if v in core or v in to_rep
        )

    template = template_via(x)
    if not (template == template_via(y) == template_via(z)):
        raise LiftError("triple with equal pullbacks disagrees on the template order")

    # page agreement across the three copies for every representative edge
    sep = set(cert.separator)
    rep_pages: dict[Edge, set[int]] = {}
    for i in (x, y, z):
        to_rep = maps[i][0]
        for (u, w), p in kernel_layout.pages.items():
            ru = to_rep.get(u)
            rw = to_rep.get(w)
            if ru is not None and rw is not None:
                rep_pages.setdefault(edge(ru, rw), set()).add(p)
            elif ru is not None and w in sep:
                rep_pages.setdefault(edge(ru, w), set()).add(p)
            elif rw is not None and u in sep:
                rep_pages.setdefault(edge(rw, u), set()).add(p)
    if any(len(ps) != 1 for ps in rep_pages.values()):
        raise LiftError("triple with equal pullbacks disagrees on a page")

    # block sweep over the restricted spine
    upsilon = core | set(maps[x][0]) | set(maps[y][0]) | set(maps[z][0])
    seq = [v for v in kernel_layout.spine if v in upsilon]
    blocks: list[tuple[tuple[str, ...], str]] = []
    i = 0
    while i < len(seq):
        v = seq[i]
        if v in core:
            i += 1
            continue
        if v in maps[x][0]:
            direction, first, second, third = "asc", x, y, z
        elif v in maps[z][0]:
            direction, first, second, third = "desc", z, y, x
        else:
            raise LiftError("a block starts with the middle copy")
        first_to = maps[first][0]
        j = i
        run: list[str] = []
        while j < len(seq) and seq[j] in first_to:
            run.append(seq[j])
            j += 1
        reps = tuple(first_to[v] for v in run)
        expect = [maps[second][1][r] for r in reps] + [maps[third][1][r] for r in reps]
        got = seq[j : j + len(expect)]
        if got != expect:
            raise LiftError("solution block does not repeat per copy")
        blocks.append((reps, direction))
        i = j + len(expect)

    return GuidingSublayout(y, template, tuple(blocks), kernel_layout)


# -- lifting -------------------------------------------------------------------


def lift_layout(
    guide: GuidingSublayout, cert: ReducedGraphCertificate, g_full: Graph
) -> LinearLayout:
    """Replay the block pattern once per member to lay out the full graph.

    Pages copy through the middle copy of the guiding triple; the result is
    validated and returned restricted to ``g_full``.
    """
    core = set(cert.separator) | set(cert.s_prime)
    copies: dict[str, list[str]] = {}  # representative vertex -> its copy in each member
    for cid in cert.large_class_ids:
        for iso in cert.classes[cid].isos:
            for v, r in iso.items():
                copies.setdefault(r, []).append(v)
    t = max(len(cert.classes[cid].members) for cid in cert.large_class_ids)

    block_start = {reps[0]: (reps, direction) for reps, direction in guide.blocks}
    in_block_tail = {
        r for reps, _ in guide.blocks for r in reps[1:]
    }
    spine: list[str] = []
    for v in guide.template:
        if v in core:
            spine.append(v)
            continue
        if v in in_block_tail:
            continue
        reps, direction = block_start[v]
        runs = [copies[r] for r in reps]
        order = range(t) if direction == "asc" else range(t - 1, -1, -1)
        # a smaller class has no copy i: its run is padding there
        spine.extend(run[i] for i in order for run in runs if i < len(run))

    # every vertex pages like its copy in the guide's middle group
    to_y = {v: v for v in core}
    y_from = cert.group_maps[guide.y][1]
    for r, vs in copies.items():
        y = y_from[r]
        for v in vs:
            to_y[v] = y
    base_pages = guide.kernel_layout.pages
    page_map: dict[Edge, int] = {}
    for u, w in g_full.edges:
        a, b = to_y.get(u), to_y.get(w)
        if a is None or b is None:
            raise LiftError(f"edge {u!r}-{w!r} leaves the core and the large classes")
        page_map[(u, w)] = base_pages[(a, b) if a < b else (b, a)]

    layout = LinearLayout(
        guide.kernel_layout.kind, guide.kernel_layout.page_count, tuple(spine), page_map
    )
    report = validate_layout(g_full, layout)
    if not report.ok:
        raise LiftError(f"lifted layout is invalid: {report.violations!r}")
    return layout


# -- inner solver --------------------------------------------------------------


InnerSolver = Callable[[Graph, LayoutKind, int], LinearLayout | None]


def oracle_solver(guard: int = DEFAULT_GUARD) -> InnerSolver:
    """The oracle as an inner solver, refusing graphs above ``guard`` vertices."""
    def solve(g: Graph, kind: LayoutKind, pages: int) -> LinearLayout | None:
        return solve_exhaustive(OracleQuery(g, kind, pages), guard=guard)

    return solve
