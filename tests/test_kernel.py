from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

import pytest

from linlay.generators import twin_gadget
from linlay.graphs import Graph
from linlay import kernel, runner
from linlay.kernel import (
    GuidingError,
    ViDecomposition,
    build_reduced_graph,
    compute_vertex_integrity,
    find_guiding_sublayout,
    lift_layout,
    twin_partition,
)
from linlay.layouts import LayoutKind, LinearLayout, validate_layout
from linlay.oracle import OracleQuery, solve_exhaustive
from linlay.runner import SolveRequest, run

from naive import (
    cycle_of,
    naive_first_twin_map,
    naive_twins,
    naive_vertex_integrity,
    path_of,
    random_connected_graph,
    random_graph,
    star_of,
    uncapped_vertex_integrity,
)

POOL = Path(__file__).resolve().parent.parent / "perfbench" / "pool" / "kernel-lift.json"


def test_vi_examples():
    # separator size counts toward the bound: P9 needs |S| + max component
    # of 5 (e.g. three separators leaving three 2-vertex pieces)
    p9 = path_of(*[f"v{i}" for i in range(9)])
    assert compute_vertex_integrity(p9).p == 5
    star = star_of("s", [f"l{i}" for i in range(8)])
    dec = compute_vertex_integrity(star)
    assert dec.p == 2 and dec.separator == ("s",)
    tri = cycle_of("a", "b", "c")
    assert compute_vertex_integrity(tri).p == 3


def test_vi_grows_like_sqrt_on_paths():
    values = [compute_vertex_integrity(path_of(*[f"v{i:02d}" for i in range(n)])).p
              for n in (4, 9, 16)]
    assert values == sorted(values)
    assert values[0] >= 3 and values[-1] <= 2 * 4 + 1


def test_vi_matches_bruteforce_on_random_graphs():
    rng = random.Random(41)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(1, 7), rng.randint(0, 5))
        dec = compute_vertex_integrity(g)
        assert dec.p == naive_vertex_integrity(g), g.edges
        worst = max((len(c) for c in dec.components), default=0)
        assert len(dec.separator) + worst <= dec.p


def test_vi_budget_mode():
    p9 = path_of(*[f"v{i}" for i in range(9)])
    assert compute_vertex_integrity(p9, budget=4) is None
    dec = compute_vertex_integrity(p9, budget=5)
    assert dec is not None and dec.p == 5


def test_capped_vi_matches_the_uncapped_search():
    """Separator, components and their order equal the uncapped search's,
    on random graphs (disconnected ones too), in budget mode and on twin
    gadgets."""
    rng = random.Random(53)
    graphs = [Graph.build([], [])]
    for _ in range(60):
        n = rng.randint(1, 10)
        graphs.append(random_graph(rng, n, rng.randint(0, min(n * (n - 1) // 2, 2 * n))))
        graphs.append(random_connected_graph(rng, rng.randint(1, 10), rng.randint(0, 6)))
    graphs += [twin_gadget(*args) for args in ((1, 1, 8), (2, 2, 10), (3, 2, 7), (4, 1, 9),
                                               (2, 3, 6), (1, 2, 12))]
    for g in graphs:
        for budget in (None, *range(1, min(g.n, 6) + 1)):
            assert (compute_vertex_integrity(g, budget)
                    == uncapped_vertex_integrity(g, budget)), (g.edges, budget)


def test_twin_partition_pendants():
    g = star_of("s", ["p1", "p2", "p3", "p4"])
    dec = compute_vertex_integrity(g)
    classes = twin_partition(g, dec)
    assert len(classes) == 1 and len(classes[0].members) == 4


def test_twin_partition_different_attachments():
    g = Graph.from_edges([("a", "b"), ("a", "p"), ("b", "q")])
    dec = compute_vertex_integrity(g)
    if set(dec.separator) == {"a", "b"}:
        classes = twin_partition(g, dec)
        # p attaches to a, q to b: two distinct classes
        assert len(classes) == 2


def test_twin_partition_matches_pairwise_bruteforce():
    rng = random.Random(43)
    for _ in range(15):
        g = random_connected_graph(rng, rng.randint(3, 8), rng.randint(0, 4))
        dec = compute_vertex_integrity(g)
        classes = twin_partition(g, dec)
        comps = list(dec.components)
        # equivalence agrees with the naive pairwise test
        label = {}
        for ci, cls in enumerate(classes):
            for member in cls.members:
                label[member] = ci
        for c1, c2 in itertools.combinations(comps, 2):
            same = naive_twins(g, dec.separator, c1, c2)
            assert same == (label[c1] == label[c2]), (g.edges, c1, c2)
        # recorded isomorphisms preserve adjacency and attachments
        for cls in classes:
            rep = cls.representative
            for i, member in enumerate(cls.members):
                iso = cls.isos[i]
                for u, w in itertools.combinations(member, 2):
                    assert g.has_edge(u, w) == g.has_edge(iso[u], iso[w])
                for u in member:
                    for s in dec.separator:
                        assert g.has_edge(u, s) == g.has_edge(iso[u], s)


def _checked_partition(g, dec, monkeypatch):
    """``twin_partition(g, dec)`` and how often it ran ``_attachment_iso``;
    every iso is checked against the first map in permutation order."""
    calls = []
    search = kernel._attachment_iso

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(kernel, "_attachment_iso", counted)
    classes = twin_partition(g, dec)
    for cls in classes:
        for member, iso in zip(cls.members, cls.isos):
            assert iso == naive_first_twin_map(g, dec.separator, member, cls.representative)
            assert list(iso) == list(member)
    return classes, len(calls)


def _copies(shape, attach, names_per_copy):
    """Edges and sorted vertex tuples of renamed copies of ``shape``, each
    attached to the separator as ``attach`` says."""
    edges, comps = [], []
    for names in names_per_copy:
        rename = dict(zip(shape.vertices, names))
        edges += [(rename[u], rename[w]) for u, w in shape.edges]
        edges += [(rename[v], s) for v, s in attach]
        comps.append(tuple(sorted(names)))
    return edges, comps


def test_twin_partition_isos_are_first_permutation_maps(monkeypatch):
    """Each recorded isomorphism is the first one in permutation order,
    also when a component has automorphisms that fix its attachments.
    The copies share three name orders, so most of them are memo hits
    that reuse the map of an earlier copy with the same order."""
    rng = random.Random(17)
    seps = ["s0", "s1"]
    hits = moved = 0
    for _ in range(40):
        shape = random_connected_graph(rng, rng.randint(2, 6), rng.randint(0, 3))
        attach = [(v, s) for v in shape.vertices for s in seps if rng.random() < 0.3]
        orders = [rng.sample(range(shape.n), shape.n) for _ in range(3)]
        edges, comps = _copies(shape, attach, [[f"c{c}_{i}" for i in orders[c % 3]]
                                               for c in range(9)])
        g = Graph.build(seps + [v for comp in comps for v in comp], edges)
        (cls,), searches = _checked_partition(
            g, ViDecomposition(tuple(seps), tuple(comps), 0), monkeypatch)
        assert len(cls.members) == 9 and searches <= 2
        hits += 8 - searches
        moved += sum(list(iso.values()) != list(cls.representative) for iso in cls.isos)
    assert hits >= 40 * 6 and moved > 0


def test_twin_partition_isos_on_memo_misses_across_separator_names(monkeypatch):
    """Copy names that interleave with the separator names order each
    neighbour tuple differently, so those copies miss the memo and are
    matched by the isomorphism search."""
    rng = random.Random(67)
    seps = ["d", "m"]
    for _ in range(30):
        shape = random_connected_graph(rng, rng.randint(2, 4), rng.randint(0, 2))
        first = shape.vertices[0]
        attach = [(v, s) for v in shape.vertices for s in seps if v == first or rng.random() < 0.5]
        names = [[f"{prefix}{i}" for i in rng.sample(range(shape.n), shape.n)]
                 for prefix in "aepbfq"]
        edges, comps = _copies(shape, attach, names)
        g = Graph.build(seps + [v for comp in comps for v in comp], edges)
        (cls,), searches = _checked_partition(
            g, ViDecomposition(tuple(seps), tuple(comps), 0), monkeypatch)
        assert len(cls.members) == 6
        # the first vertex sees both separator vertices, which its "a", "e"
        # and "p" copies list before, around and after their own neighbours
        assert searches >= 2


def test_twin_partition_isos_on_twin_gadgets(monkeypatch):
    for args in ((2, 2, 5), (3, 2, 6), (1, 3, 5), (3, 1, 7), (2, 3, 4)):
        g = twin_gadget(*args)
        classes, searches = _checked_partition(g, compute_vertex_integrity(g), monkeypatch)
        assert max(len(cls.members) for cls in classes) == args[2]
        assert searches == 0  # every copy after the first is a memo hit


def test_kernel_lift_pool_verdicts_and_counters():
    """Every request of the benchmark's kernel-lift pool, replayed through
    ``runner.run``, gives the stored verdict and kernel counters.  The
    cutset inner solver's ``states`` and ``arcs`` are not compared: the
    pool recorded them before the cutset search became lazy."""
    pool = json.loads(POOL.read_text())
    requests = [req for slot in pool["slots"] for req in slot]
    assert len(requests) == 14
    for req in requests:
        assert req["op"] == "solve" and req["graph"]["gen"] == "twin_gadget"
        report = run(SolveRequest(
            twin_gadget(*req["graph"]["args"]), req["algo"], LayoutKind(req["kind"]),
            req["pages"], req["width"], inner=req["inner"], threshold=req["threshold"],
            oracle_guard=req["oracle_guard"],
        ))
        assert report.verdict == req["ref"]["verdict"], req["graph"]
        for key in ("vi", "kernel_vertices", "kernel_groups", "lifted"):
            assert report.counters[key] == req["counters"][key], (req["graph"], key)


def test_lifted_layout_is_validated_once(monkeypatch):
    """``lift_layout`` validates the layout it lifts and ``runner.run``
    does not check it again; a layout the inner solver gives for the
    whole graph is checked by the runner."""
    calls = []
    for module in (kernel, runner):
        check = module.validate_layout
        monkeypatch.setattr(module, "validate_layout", lambda g, layout, check=check,
                            name=module.__name__: calls.append(name) or check(g, layout))
    g = twin_gadget(2, 1, 8)
    lifted = run(SolveRequest(g, "kernel", LayoutKind.STACK, 1, threshold=5))
    assert lifted.verdict == "found" and lifted.counters["lifted"] == 1
    assert calls == ["linlay.kernel"]
    calls.clear()
    whole = run(SolveRequest(g, "kernel", LayoutKind.STACK, 1))
    assert whole.verdict == "found" and "lifted" not in whole.counters
    assert calls == ["linlay.runner"]


def test_twin_relation_is_equivalence():
    g = twin_gadget(2, 2, 5)
    dec = compute_vertex_integrity(g)
    classes = twin_partition(g, dec)
    seen = [m for cls in classes for m in cls.members]
    assert sorted(seen) == sorted(dec.components)
    for cls in classes:
        for c1 in cls.members:
            for c2 in cls.members:
                assert naive_twins(g, dec.separator, c1, c2)


def test_default_threshold_folds_everything():
    g = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("b", "p"), ("c", "q")])
    dec = compute_vertex_integrity(g)
    cert = build_reduced_graph(g, dec, 1)
    assert cert.covers_whole_graph(g)
    assert cert.group_count == 0
    assert cert.large_class_ids == () and cert.threshold is None


def test_overridden_threshold_star_of_pendants():
    g = star_of("s", [f"p{i}" for i in range(10)])
    dec = compute_vertex_integrity(g)
    cert = build_reduced_graph(g, dec, 1, threshold=3)
    # one class of ten pendants, threshold 3: keep the core plus 3 groups
    assert cert.group_count == 3
    assert cert.graph.n == 1 + 3
    assert cert.s_prime == ()
    assert dict(cert.removed) == {0: 7}


def test_folding_loop_absorbs_small_classes():
    # two pendant classes: one of size 2 (folds), one of size 6 (stays)
    edges = [("a", f"p{i}") for i in range(6)] + [("a", "b"), ("b", "q0"), ("b", "q1")]
    g = Graph.from_edges(edges)
    dec = compute_vertex_integrity(g)
    cert = build_reduced_graph(g, dec, 1, threshold=3)
    if set(dec.separator) == {"a", "b"}:
        assert cert.group_count == 3
        assert set(cert.s_prime) == {"q0", "q1"}
        kept = set(cert.graph.vertices)
        assert {"a", "b", "q0", "q1"} <= kept
        assert sum(1 for v in kept if v.startswith("p")) == 3


def test_guiding_sublayout_on_identical_groups():
    g = twin_gadget(1, 1, 8)
    dec = compute_vertex_integrity(g)
    cert = build_reduced_graph(g, dec, 1, threshold=5)
    assert cert.group_count == 5
    kernel_layout = solve_exhaustive(OracleQuery(cert.graph, LayoutKind.STACK, 1))
    assert kernel_layout is not None
    guide = find_guiding_sublayout(kernel_layout, cert)
    assert guide is not None
    # all groups identical and consecutive: blocks are single-vertex runs
    for reps, direction in guide.blocks:
        assert direction in ("asc", "desc")
    lifted = lift_layout(guide, cert, g)
    assert validate_layout(g, lifted).ok
    assert lifted.page_count == kernel_layout.page_count


def test_guiding_requires_five_groups():
    g = twin_gadget(1, 1, 6)
    dec = compute_vertex_integrity(g)
    cert = build_reduced_graph(g, dec, 1, threshold=3)
    layout = solve_exhaustive(OracleQuery(cert.graph, LayoutKind.STACK, 1))
    with pytest.raises(GuidingError):
        find_guiding_sublayout(layout, cert)


def test_lift_blocks_websequence_asc_desc():
    # hand-built kernel layout whose groups are interleaved in reverse for
    # one block: forces a descending block alongside ascending ones
    g = twin_gadget(1, 2, 6)
    dec = compute_vertex_integrity(g)
    assert dec.separator == ("a0",)
    cert = build_reduced_graph(g, dec, 1, threshold=5)
    assert cert.group_count == 5
    layout = solve_exhaustive(OracleQuery(cert.graph, LayoutKind.STACK, 1))
    guide = find_guiding_sublayout(layout, cert)
    if guide is not None:
        lifted = lift_layout(guide, cert, g)
        assert validate_layout(g, lifted).ok


def test_solve_via_kernel_agrees_with_oracle_feasible():
    g = twin_gadget(3, 1, 9)
    report = run(SolveRequest(g, "kernel", LayoutKind.STACK, 1, threshold=5, oracle_guard=16))
    assert report.verdict != "refused"
    layout = report.layout
    assert layout is not None and validate_layout(g, layout).ok
    direct = solve_exhaustive(OracleQuery(g, LayoutKind.STACK, 1), guard=16)
    assert direct is not None


def test_solve_via_kernel_agrees_with_oracle_infeasible():
    g = twin_gadget(4, 1, 6)  # K4 core: no 1-page stack layout
    report = run(SolveRequest(g, "kernel", LayoutKind.STACK, 1, threshold=5, oracle_guard=16))
    assert report.verdict != "refused"
    assert report.layout is None
    assert solve_exhaustive(OracleQuery(g, LayoutKind.STACK, 1), guard=16) is None


def test_solve_via_kernel_whole_graph_passthrough():
    g = cycle_of("a", "b", "c", "d")
    # the default tower threshold folds everything: behaves like the inner solver
    report = run(SolveRequest(g, "kernel", LayoutKind.STACK, 1))
    assert report.verdict != "refused"
    got = report.layout
    direct = solve_exhaustive(OracleQuery(g, LayoutKind.STACK, 1))
    assert got == direct


def test_kernel_restriction_soundness():
    # any layout of the full graph restricts to a valid kernel layout
    g = twin_gadget(2, 1, 7)
    dec = compute_vertex_integrity(g)
    cert = build_reduced_graph(g, dec, 1, threshold=5)
    full = solve_exhaustive(OracleQuery(g, LayoutKind.STACK, 1), guard=16)
    assert full is not None
    keep = set(cert.graph.vertices)
    restricted_spine = tuple(v for v in full.spine if v in keep)
    restricted_pages = {
        e: p for e, p in full.pages.items() if e[0] in keep and e[1] in keep
    }
    from linlay.layouts import LinearLayout

    restricted = LinearLayout(full.kind, full.page_count, restricted_spine, restricted_pages)
    assert validate_layout(cert.graph, restricted).ok


def test_no_matching_triple_reports_absent():
    # star kernel with five single-pendant groups; pages chosen so the three
    # candidate pullbacks differ pairwise, leaving no monochromatic triple
    g = twin_gadget(1, 1, 8)
    dec = compute_vertex_integrity(g)
    cert = build_reduced_graph(g, dec, 2, threshold=5)
    assert cert.group_count == 5
    pendants = sorted(v for v in cert.graph.vertices if v != "a0")
    spine = ("a0",) + tuple(pendants)
    pages = {("a0", p): 1 for p in pendants}
    # groups beyond the two reference groups are m02, m03, m04 in spine order
    pages[("a0", "m02_0")] = 1
    pages[("a0", "m03_0")] = 2
    pages[("a0", "m04_0")] = 1
    from linlay.layouts import LinearLayout

    layout = LinearLayout(LayoutKind.STACK, 2, spine, pages)
    assert validate_layout(cert.graph, layout).ok
    assert find_guiding_sublayout(layout, cert) is None
    # the end-to-end solver still answers through the fallback
    report = run(SolveRequest(g, "kernel", LayoutKind.STACK, 2, threshold=5, oracle_guard=16))
    assert report.verdict != "refused"
    full = report.layout
    assert full is not None and validate_layout(g, full).ok


def test_guide_with_ascending_and_descending_blocks():
    # core vertex with two twin classes (pendants and 2-paths); a layout
    # listing pendant copies ascending and path copies descending produces
    # one block of each direction, and lifting stays valid
    core = "a0"
    pend = [f"p{i:02d}" for i in range(5)]
    paths = [(f"q{i:02d}_0", f"q{i:02d}_1") for i in range(5)]
    edges = [(core, p) for p in pend]
    for q0, q1 in paths:
        edges += [(core, q0), (q0, q1)]
    g = Graph.from_edges(edges)
    dec = compute_vertex_integrity(g)
    assert dec.separator == (core,)
    cert = build_reduced_graph(g, dec, 1, threshold=5)
    assert cert.group_count == 5 and len(cert.large_class_ids) == 2

    spine = [core] + pend[2:]  # reference groups hold p00/p01; rest ascend
    for q0, q1 in reversed(paths[2:]):
        spine += [q0, q1]
    spine += [pend[0], paths[0][0], paths[0][1], pend[1], paths[1][0], paths[1][1]]
    layout = LinearLayout(LayoutKind.STACK, 1, tuple(spine), {e: 1 for e in g.edges})
    assert validate_layout(g, layout).ok
    guide = find_guiding_sublayout(layout, cert)
    assert guide is not None
    directions = sorted(direction for _, direction in guide.blocks)
    assert directions == ["asc", "desc"]
    lifted = lift_layout(guide, cert, g)
    assert validate_layout(g, lifted).ok
