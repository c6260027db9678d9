from __future__ import annotations

import itertools
import random

import pytest

from linlay.generators import twin_gadget
from linlay.graphs import Graph, GraphError, edge
from linlay.layouts import (
    LayoutDomainError,
    LayoutKind,
    LinearLayout,
    _page_has_conflict,
    page_width,
    spanning_edges,
    validate_layout,
)
from linlay.runner import SolveRequest, run

from naive import (
    naive_conflicting_pairs,
    naive_page_width,
    random_connected_graph,
    random_graph,
)


def test_graph_normalization():
    g = Graph.build(["b", "a", "c"], [("c", "a"), ("b", "a")])
    assert g.vertices == ("a", "b", "c")
    assert g.edges == (("a", "b"), ("a", "c"))
    assert g.neighbors("a") == ("b", "c")
    assert g.degree("a") == 2 and g.degree("b") == 1


def test_graph_rejects_self_loop_and_parallel_edges():
    with pytest.raises(GraphError):
        Graph.from_edges([("a", "a")])
    with pytest.raises(GraphError):
        Graph.build(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(GraphError):
        Graph.build(["a"], [("a", "b")])


def test_components_and_induced():
    g = Graph.build(["a", "b", "c", "d", "e"], [("a", "b"), ("c", "d")])
    assert g.components() == (("a", "b"), ("c", "d"), ("e",))
    assert not g.is_connected()
    sub = g.induced(["a", "b", "e"])
    assert sub.vertices == ("a", "b", "e") and sub.edges == (("a", "b"),)


def test_bfs_components():
    g = Graph.build(
        list("abcdefghi"), [("a", "c"), ("a", "e"), ("c", "b"), ("e", "d"), ("f", "h"), ("h", "g")]
    )
    # by smallest vertex; breadth-first, neighbours in canonical order
    assert list(g.bfs_components()) == [["a", "c", "e", "b", "d"], ["f", "h", "g"], ["i"]]
    assert list(g.bfs_components({"a", "h"})) == [["b", "c"], ["d", "e"], ["f"], ["g"], ["i"]]
    assert g.components() == tuple(tuple(sorted(c)) for c in g.bfs_components())
    assert g.components() == (("a", "b", "c", "d", "e"), ("f", "g", "h"), ("i",))


def test_capped_bfs_components_is_a_prefix_of_the_uncapped_walk():
    """The capped walk yields the uncapped walk up to the first component of
    at least ``cap`` vertices, that component cut to its first ``cap``
    vertices, and nothing after it."""
    rng = random.Random(29)
    truncated = whole = 0
    for _ in range(150):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.randint(0, min(n * (n - 1) // 2, 2 * n)))
        avoid = set(rng.sample(g.vertices, rng.randint(0, n - 1)))
        full = list(g.bfs_components(avoid))
        assert list(g.bfs_components(avoid, None)) == full
        for cap in range(1, n + 2):
            capped = list(g.bfs_components(avoid, cap))
            big = next((i for i, c in enumerate(full) if len(c) >= cap), None)
            if big is None:
                whole += 1
                assert capped == full
            else:
                truncated += 1
                assert capped == full[:big] + [full[big][:cap]]
    assert truncated > 100 and whole > 100


def test_validate_path_on_one_stack_page(path3):
    layout = LinearLayout(
        LayoutKind.STACK, 1, ("a", "b", "c"), {("a", "b"): 1, ("b", "c"): 1}
    )
    assert validate_layout(path3, layout).ok


def test_validate_c4_queue_nesting(c4):
    layout = LinearLayout(
        LayoutKind.QUEUE,
        1,
        ("a", "b", "c", "d"),
        {e: 1 for e in c4.edges},
    )
    report = validate_layout(c4, layout)
    assert not report.ok
    # ad spans the whole spine and bc nests inside it
    assert (("a", "d"), ("b", "c")) in report.violations


def test_validate_k4_one_stack_page_always_crosses(k4):
    # K4 is not outerplanar: every spine yields at least one crossing pair.
    for spine in itertools.permutations(k4.vertices):
        layout = LinearLayout(LayoutKind.STACK, 1, spine, {e: 1 for e in k4.edges})
        report = validate_layout(k4, layout)
        assert not report.ok
        assert report.violations == tuple(naive_conflicting_pairs(k4, layout))


def test_validate_domain_errors(path3):
    bad_spine = LinearLayout(LayoutKind.STACK, 1, ("a", "b"), {("a", "b"): 1})
    with pytest.raises(LayoutDomainError):
        validate_layout(path3, bad_spine)
    missing_edge = LinearLayout(LayoutKind.STACK, 1, ("a", "b", "c"), {("a", "b"): 1})
    with pytest.raises(LayoutDomainError):
        validate_layout(path3, missing_edge)
    bad_page = LinearLayout(
        LayoutKind.STACK, 1, ("a", "b", "c"), {("a", "b"): 2, ("b", "c"): 1}
    )
    with pytest.raises(LayoutDomainError):
        validate_layout(path3, bad_page)


def test_validate_agrees_with_naive_enumeration_on_random_layouts():
    rng = random.Random(7)
    for trial in range(150):
        n = rng.randint(2, 12)
        g = random_connected_graph(rng, n, rng.randint(0, 4))
        spine = list(g.vertices)
        rng.shuffle(spine)
        pages = rng.randint(1, 3)
        kind = rng.choice([LayoutKind.STACK, LayoutKind.QUEUE])
        layout = LinearLayout(
            kind, pages, tuple(spine), {e: rng.randint(1, pages) for e in g.edges}
        )
        report = validate_layout(g, layout)
        naive = naive_conflicting_pairs(g, layout)
        assert list(report.violations) == naive
        assert report.ok == (not naive)
        assert page_width(layout) == naive_page_width(layout)


def _first_fit_layout(rng, g, kind, pages):
    """Random spine; each edge on the first page where the naive check passes.

    An edge that fits nowhere goes to a random page, so the layout is valid
    exactly when every edge found a page.
    """
    spine = list(g.vertices)
    rng.shuffle(spine)
    assignment = {}
    for e in g.edges:
        for p in range(1, pages + 1):
            trial = LinearLayout(kind, pages, tuple(spine), {**assignment, e: p})
            if not naive_conflicting_pairs(g, trial):
                assignment[e] = p
                break
        else:
            assignment[e] = rng.randint(1, pages)
    return LinearLayout(kind, pages, tuple(spine), assignment)


@pytest.mark.parametrize("kind", list(LayoutKind))
def test_validate_agrees_with_naive_enumeration_when_half_are_valid(kind):
    rng = random.Random(13)
    outcomes = []
    for _ in range(120):
        n = rng.randint(4, 11)
        g = random_connected_graph(rng, n, rng.randint(0, n))
        layout = _first_fit_layout(rng, g, kind, rng.randint(1, 3))
        report = validate_layout(g, layout)
        naive = naive_conflicting_pairs(g, layout)
        assert list(report.violations) == naive
        assert report.ok == (not naive)
        assert page_width(layout) == naive_page_width(layout)
        outcomes.append(report.ok)
    assert 0.3 < sum(outcomes) / len(outcomes) < 0.7


@pytest.mark.parametrize(
    "kind, spans, conflicts",
    [
        # shared left end, shared right end and chained spans never conflict
        (LayoutKind.STACK, [(1, 3), (1, 5)], False),
        (LayoutKind.QUEUE, [(1, 3), (1, 5)], False),
        (LayoutKind.STACK, [(1, 5), (3, 5)], False),
        (LayoutKind.QUEUE, [(1, 5), (3, 5)], False),
        (LayoutKind.STACK, [(1, 3), (3, 5)], False),
        (LayoutKind.QUEUE, [(1, 3), (3, 5)], False),
        (LayoutKind.STACK, [(0, 6), (0, 2), (2, 4), (4, 6), (1, 2)], False),
        (LayoutKind.QUEUE, [(0, 2), (0, 3), (1, 3), (2, 4), (3, 5), (3, 6)], False),
        # one real conflict among spans that share endpoints
        (LayoutKind.STACK, [(1, 3), (3, 5), (2, 4)], True),
        (LayoutKind.QUEUE, [(1, 5), (1, 3), (3, 5), (2, 4)], True),
        (LayoutKind.STACK, [(0, 6), (0, 2), (1, 7)], True),
        (LayoutKind.QUEUE, [(0, 3), (0, 6), (4, 5)], True),
    ],
)
def test_validate_hand_cases_with_shared_endpoints(kind, spans, conflicts):
    assert _page_has_conflict(kind, spans) == conflicts
    g, layout = _one_page_layout(kind, spans)
    report = validate_layout(g, layout)
    assert list(report.violations) == naive_conflicting_pairs(g, layout)
    assert report.ok == (not conflicts)


def _one_page_layout(kind, spans):
    spine = tuple(f"v{i}" for i in range(1 + max(b for _, b in spans)))
    g = Graph.build(spine, [(spine[a], spine[b]) for a, b in spans])
    return g, LinearLayout(kind, 1, spine, {e: 1 for e in g.edges})


@pytest.mark.parametrize("kind", list(LayoutKind))
def test_page_sweep_matches_pairwise_definition(kind):
    # a missed conflict would drop violations; a false alarm would make
    # validate_layout enumerate all pairs of a valid page
    rng = random.Random(17)
    for _ in range(3000):
        pairs = list(itertools.combinations(range(rng.randint(2, 9)), 2))
        spans = rng.sample(pairs, rng.randint(1, min(len(pairs), 7)))
        g, layout = _one_page_layout(kind, spans)
        assert _page_has_conflict(kind, spans) == bool(naive_conflicting_pairs(g, layout))


def test_validate_lifted_layout_with_two_spine_vertices_swapped():
    g = twin_gadget(2, 2, 10)
    result = run(SolveRequest(g, "kernel", LayoutKind.STACK, 1, threshold=5))
    assert result.counters["lifted"] == 1
    layout = result.layout
    assert validate_layout(g, layout).ok and not naive_conflicting_pairs(g, layout)
    for i, j in itertools.combinations(range(g.n), 2):
        spine = list(layout.spine)
        spine[i], spine[j] = spine[j], spine[i]
        swapped = LinearLayout(layout.kind, 1, tuple(spine), layout.pages)
        naive = naive_conflicting_pairs(g, swapped)
        if naive:
            break
    assert naive
    assert list(validate_layout(g, swapped).violations) == naive


def test_spanning_edges_basics(path3):
    layout = LinearLayout(
        LayoutKind.STACK, 1, ("a", "b", "c"), {("a", "b"): 1, ("b", "c"): 1}
    )
    assert spanning_edges(layout, "c") == frozenset()
    assert spanning_edges(layout, "b") == {("b", "c")}
    assert spanning_edges(layout, "a") == {("a", "b")}
    with pytest.raises(LayoutDomainError):
        spanning_edges(layout, "z")


def test_spanning_edges_incremental_difference():
    rng = random.Random(11)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(3, 8), rng.randint(0, 4))
        spine = list(g.vertices)
        rng.shuffle(spine)
        layout = LinearLayout(LayoutKind.STACK, 1, tuple(spine), {e: 1 for e in g.edges})
        pos = {x: i for i, x in enumerate(spine)}
        for u, v in zip(spine, spine[1:]):
            left, right = spanning_edges(layout, u), spanning_edges(layout, v)
            incident_v = {e for e in g.edges if v in e}
            assert left ^ right <= incident_v
            outgoing = {e for e in incident_v if pos[e[0] if e[1] == v else e[1]] > pos[v]}
            assert right == (left - incident_v) | outgoing


def test_page_width_examples(wide_stack):
    single = LinearLayout(LayoutKind.STACK, 1, ("a", "b"), {("a", "b"): 1})
    assert page_width(single) == 1
    empty = LinearLayout(LayoutKind.QUEUE, 1, ("a", "b"), {})
    assert page_width(empty) == 0

    g, layout, cut_edges, _ = wide_stack
    assert validate_layout(g, layout).ok
    assert page_width(layout) == 5
    assert spanning_edges(layout, "e") == frozenset(cut_edges)
    assert len(spanning_edges(layout, "e")) == 6


def test_page_permutation_invariance(wide_stack):
    g, layout, _, _ = wide_stack
    swap = {1: 2, 2: 1}
    swapped = LinearLayout(
        layout.kind, layout.page_count, layout.spine,
        {e: swap[p] for e, p in layout.pages.items()},
    )
    assert validate_layout(g, swapped).ok == validate_layout(g, layout).ok
    assert page_width(swapped) == page_width(layout)


def test_edge_canonicalization():
    assert edge("b", "a") == ("a", "b")
    with pytest.raises(GraphError):
        edge("a", "a")


def test_page_width_restated_via_spanning_edges(wide_stack):
    # independent route: width q iff every (vertex, page) spanning count <= q
    g, layout, _, _ = wide_stack
    q = page_width(layout)
    counts = [
        sum(1 for e in spanning_edges(layout, v) if layout.pages[e] == p)
        for v in layout.spine
        for p in range(1, layout.page_count + 1)
    ]
    assert max(counts) == q
    assert all(c <= q for c in counts)
