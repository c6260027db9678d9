from __future__ import annotations

import itertools
import random

import pytest

from linlay.bounds import edge_count_bound
from linlay.catalog import catalog_upto
from linlay.cutset import (
    CutSetError,
    NotConnectedError,
    OrientedCutSet,
    cut_bipartition,
    enumerate_states,
    induce_order,
    is_cut_set,
    is_nicely_oriented,
    left_side,
    solve_bounded_width,
    solve_bounded_width_report,
)
from linlay.generators import cycle_graph, random_gnm
from linlay.graphs import Graph
from linlay.layouts import LayoutKind, LinearLayout, page_width, spanning_edges, validate_layout
from linlay.oracle import OracleQuery, solve_exhaustive
from linlay.runner import SolveRequest, run

from naive import (
    arc_exists,
    cycle_of,
    eager_bounded_width,
    goal_state,
    path_of,
    random_connected_graph,
    star_of,
    start_state,
    state_cut,
    state_left_side,
    state_of,
)


def oriented(edges, order):
    return OrientedCutSet.from_order(edges, order)


def test_cut_bipartition_basics(path3):
    assert is_cut_set(path3, [("a", "b")])
    sides = cut_bipartition(path3, [("a", "b")])
    assert sides == (frozenset({"a"}), frozenset({"b", "c"}))
    # a triangle's full edge set admits no exact bipartition
    tri = cycle_of("a", "b", "c")
    assert not is_cut_set(tri, tri.edges)
    assert not is_cut_set(path3, [])


def test_nicely_oriented_single_edge_cuts_of_path3(path3):
    # both orders of either single-edge cut satisfy the definition:
    # one endpoint per side, so sides are pure and sources precede sinks
    for es in ([("a", "b")], [("b", "c")]):
        u, v = es[0]
        assert is_nicely_oriented(path3, oriented(es, (u, v)))
        assert is_nicely_oriented(path3, oriented(es, (v, u)))


def test_nicely_oriented_rejects_mixed_endpoint():
    # b is endpoint of two cut edges, once smaller and once larger
    g = path_of("a", "b", "c", "d")
    cut = oriented([("a", "b"), ("b", "c")], ("a", "b", "c"))
    assert not is_nicely_oriented(g, cut)


def test_nicely_oriented_rejects_mixed_component():
    # cut {ab, cd} of a 4-path: component {b, c} would need b sink and c source
    g = path_of("a", "b", "c", "d")
    cut = oriented([("a", "b"), ("c", "d")], ("a", "c", "b", "d"))
    assert not is_nicely_oriented(g, cut)
    # with both sources on the left it is nicely oriented
    good = oriented([("a", "b"), ("c", "d")], ("b", "c", "a", "d"))
    assert is_nicely_oriented(g, good)


def test_nicely_oriented_requires_cut_set():
    tri = cycle_of("a", "b", "c")
    with pytest.raises(CutSetError):
        is_nicely_oriented(tri, oriented(tri.edges, ("a", "b", "c")))


def test_wide_fixture_cut_is_nicely_oriented(wide_stack):
    g, layout, cut_edges, cut_order = wide_stack
    cut = oriented(cut_edges, cut_order)
    assert is_nicely_oriented(g, cut)
    assert left_side(g, cut) == {"a", "b", "c", "d", "e"}
    order, witness = induce_order(g, cut)
    assert witness == "e"
    lay = LinearLayout(LayoutKind.STACK, 1, order, {e: 1 for e in g.edges})
    assert spanning_edges(lay, "e") == frozenset(cut.edges)


def test_induce_order_on_path3(path3):
    cut = oriented([("b", "c")], ("b", "c"))
    order, witness = induce_order(path3, cut)
    assert witness == "b"
    assert order == ("a", "b", "c")


def test_induce_order_star_center_first():
    g = star_of("s", ["a", "b", "c"])
    cut = oriented(g.edges, ("s", "a", "b", "c"))
    order, witness = induce_order(g, cut)
    assert witness == "s"
    assert order[0] == "s"
    lay = LinearLayout(LayoutKind.STACK, 1, order, {e: 1 for e in g.edges})
    assert spanning_edges(lay, "s") == frozenset(g.edges)


def test_left_side_invariant_under_shuffling(wide_stack):
    g, _, cut_edges, cut_order = wide_stack
    cut = oriented(cut_edges, cut_order)
    reference = left_side(g, cut)
    rng = random.Random(42)
    for _ in range(200):
        order, witness = induce_order(g, cut, shuffle=rng)
        prefix = frozenset(order[: order.index(witness) + 1])
        assert prefix == reference


def test_state_left_side_sentinels(path3):
    assert state_left_side(path3, start_state()) == frozenset()
    assert state_left_side(path3, goal_state(path3)) == frozenset(path3.vertices)


def test_enumerate_states_single_edge():
    g = Graph.from_edges([("a", "b")])
    states = list(enumerate_states(g, 1, 1))
    assert len(set(states)) == len(states) == 4
    assert start_state() in states and goal_state(g) in states
    expected = {
        state_of(g, oriented([("a", "b")], ("a", "b")), (1,)),
        state_of(g, oriented([("a", "b")], ("b", "a")), (1,)),
    }
    assert expected <= set(states)


def test_enumerate_states_zero_width_only_sentinels(path3):
    sentinels = [start_state(), goal_state(path3)]
    assert list(enumerate_states(path3, 1, 0)) == sentinels


def test_enumerate_states_triangle_counts():
    tri = cycle_of("a", "b", "c")
    states = [s for s in enumerate_states(tri, 1, 1) if s[0]]
    # width 1 on one page forbids two-edge cut-sets; each single edge of the
    # triangle leaves the graph connected, so no cut-set exists at all
    assert states == []
    states2 = [s for s in enumerate_states(tri, 1, 2) if s[0]]
    # each pair of edges is a cut-set: 3 pairs x 2 orientations x orders
    assert all(len(s[0]) == 2 for s in states2)
    assert len(set(states2)) == len(states2)


def test_solve_path_width_one():
    g = path_of("a", "b", "c", "d")
    layout = solve_bounded_width(g, LayoutKind.STACK, 1, 1)
    assert layout is not None
    assert validate_layout(g, layout).ok
    assert page_width(layout) == 1


def test_solve_k4_two_pages_and_one_page(k4):
    found = solve_bounded_width(k4, LayoutKind.STACK, 2, k4.m)
    assert found is not None and validate_layout(k4, found).ok
    assert solve_bounded_width(k4, LayoutKind.STACK, 1, k4.m) is None


def test_solve_c6_queue_widths():
    c6 = cycle_of(*"abcdef")
    assert solve_bounded_width(c6, LayoutKind.QUEUE, 1, 2) is not None
    assert solve_bounded_width(c6, LayoutKind.QUEUE, 1, 1) is None


def test_bound_rejection_reported_distinctly(k5):
    report = solve_bounded_width_report(k5, LayoutKind.STACK, 1, 3)
    assert report.layout is None and report.bound_rejected
    tri = cycle_of("a", "b", "c")
    report2 = solve_bounded_width_report(tri, LayoutKind.QUEUE, 1, 1)
    assert report2.layout is None and not report2.bound_rejected


@pytest.mark.parametrize(
    "name, kind, pages, width, expected",
    [
        ("c6", LayoutKind.STACK, 2, 2, (True, 6, 6)),
        ("c6", LayoutKind.QUEUE, 2, 2, (True, 6, 6)),
        ("k33", LayoutKind.STACK, 1, 3, (False, 36, 36)),
        ("k33", LayoutKind.QUEUE, 1, 3, (False, 36, 36)),
        ("gnm_7_10_3", LayoutKind.STACK, 2, 2, (True, 12, 12)),
    ],
)
def test_work_counters_pinned(name, kind, pages, width, expected):
    # the search's states and arcs are deterministic.  On an infeasible
    # instance (k33) every reachable state is expanded, so any search with
    # the same state graph keeps these numbers; on a feasible one they also
    # depend on how many successors are generated before the goal
    g = {
        "c6": cycle_graph(6),
        "k33": Graph.from_edges([(a, b) for a in "abc" for b in "xyz"]),
        "gnm_7_10_3": random_gnm(7, 10, 3),
    }[name]
    rep = solve_bounded_width_report(g, kind, pages, width)
    assert not rep.bound_rejected
    assert (rep.layout is not None, rep.states_seen, rep.arcs_seen) == expected


def test_work_counters_sum_over_components():
    # a C5 (5 states and arcs) beside a triangle (3 and 3)
    g = Graph.from_edges(list(cycle_graph(5).edges) + [("z0", "z1"), ("z1", "z2"), ("z2", "z0")])
    rep = run(SolveRequest(g, "cutset", LayoutKind.STACK, 2, 2))
    assert rep.verdict == "found"
    assert rep.counters == {"states": 8, "arcs": 8}


def test_lazy_search_matches_the_eager_reference():
    # every connected graph with n <= 6 and every 80th with n = 7, in both
    # kinds with 1-2 pages and width 1-3: the same witness everywhere, the
    # same counts and recorded states where the whole graph is searched,
    # and no more work where the goal is found
    catalog = catalog_upto(7)
    graphs = [g for g in catalog if g.n <= 6] + [g for g in catalog if g.n == 7][::80]
    for g in graphs:
        for kind in LayoutKind:
            for pages in (1, 2):
                if not edge_count_bound(g, kind, pages):
                    continue
                for width in (1, 2, 3):
                    rep = solve_bounded_width_report(g, kind, pages, width)
                    layout, states, arcs, recorded = eager_bounded_width(g, kind, pages, width)
                    case = (g.edges, kind.value, pages, width)
                    if layout is None:
                        assert rep.layout is None, case
                        assert (rep.states_seen, rep.arcs_seen) == (states, arcs), case
                        assert set(rep.states) == set(recorded), case
                    else:
                        assert rep.layout is not None, case
                        assert rep.layout.spine == layout.spine, case
                        assert rep.layout.pages == layout.pages, case
                        assert rep.states_seen <= states and rep.arcs_seen <= arcs, case


def test_solver_requires_connected_input():
    g = Graph.build(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    with pytest.raises(NotConnectedError):
        solve_bounded_width(g, LayoutKind.STACK, 1, 1)


def test_arc_between_consecutive_layout_cuts(wide_stack):
    # two consecutive spanning cuts of a valid layout are joined by an arc
    # labeled with the vertex that moved
    g, layout, _, _ = wide_stack
    pos = layout.positions()
    spine = layout.spine
    for i in range(len(spine) - 2):
        u, v = spine[i], spine[i + 1]
        fu = sorted(spanning_edges(layout, u))
        fv = sorted(spanning_edges(layout, v))
        if not fu or not fv:
            continue
        su = state_of(g, OrientedCutSet.from_order(fu, spine), [layout.pages[e] for e in fu])
        sv = state_of(g, OrientedCutSet.from_order(fv, spine), [layout.pages[e] for e in fv])
        assert arc_exists(g, su, sv, 2, 5, LayoutKind.STACK) == v
        # no state has an arc to itself
        assert arc_exists(g, su, su, 2, 5, LayoutKind.STACK) is None


def test_arc_rejects_page_disagreement(wide_stack):
    g, layout, _, _ = wide_stack
    spine = layout.spine
    u, v = spine[2], spine[3]
    fu = sorted(spanning_edges(layout, u))
    fv = sorted(spanning_edges(layout, v))
    su = state_of(g, OrientedCutSet.from_order(fu, spine), [layout.pages[e] for e in fu])
    flipped = [3 - layout.pages[e] for e in fv]
    sv_bad = state_of(g, OrientedCutSet.from_order(fv, spine), flipped)
    assert arc_exists(g, su, sv_bad, 2, 5, LayoutKind.STACK) is None


def test_verdicts_match_oracle_on_random_graphs():
    rng = random.Random(21)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(2, 6), rng.randint(0, 4))
        kind = rng.choice(list(LayoutKind))
        pages = rng.randint(1, 2)
        width = rng.randint(1, 3)
        dp = solve_bounded_width(g, kind, pages, width)
        oracle = solve_exhaustive(OracleQuery(g, kind, pages, width))
        assert (dp is None) == (oracle is None), (g.edges, kind, pages, width)
        if dp is not None:
            assert validate_layout(g, dp).ok and page_width(dp) <= width


def test_every_layout_cut_is_nicely_oriented_lemma_style():
    # restatement over oracle witnesses: each non-rightmost spanning set is a
    # small cut-set whose induced orientation is nicely oriented
    rng = random.Random(33)
    for trial in range(24):
        n = rng.randint(2, 6) if trial < 20 else rng.randint(8, 9)
        g = random_connected_graph(rng, n, rng.randint(0, 4))
        kind = rng.choice(list(LayoutKind))
        pages = rng.randint(1, 2) if n <= 6 else 1
        width = rng.randint(1, 3)
        layout = solve_exhaustive(OracleQuery(g, kind, pages, width), guard=9)
        if layout is None:
            continue
        for v in layout.spine[:-1]:
            f = spanning_edges(layout, v)
            if not f:
                continue
            assert len(f) <= width * pages
            assert is_cut_set(g, f)
            cut = OrientedCutSet.from_order(f, layout.spine)
            assert is_nicely_oriented(g, cut)
            assert left_side(g, cut) == frozenset(
                layout.spine[: layout.spine.index(v) + 1]
            )


def test_state_graph_is_acyclic_processed_grows():
    g = cycle_of("a", "b", "c", "d")
    report = solve_bounded_width_report(g, LayoutKind.STACK, 1, 2)
    assert report.layout is not None
    for s in report.states:
        if s[0]:
            assert 1 <= len(state_left_side(g, s)) <= g.n


def test_dfs_successors_are_real_arcs():
    g = path_of("a", "b", "c", "d")
    report = solve_bounded_width_report(g, LayoutKind.QUEUE, 1, 2)
    assert report.layout is not None
    # cross-check the on-demand generator against the literal arc test for
    # the states along the witness path
    spine = report.layout.spine
    prev = start_state()
    prev_left = 0
    for i, v in enumerate(spine):
        f = sorted(spanning_edges(report.layout, v)) if i < len(spine) - 1 else []
        if f:
            node = state_of(
                g, OrientedCutSet.from_order(f, spine), [report.layout.pages[e] for e in f]
            )
        else:
            node = goal_state(g) if i == len(spine) - 1 else None
        if node is not None:
            assert arc_exists(g, prev, node, 1, 2, LayoutKind.QUEUE) == v
            # the processed side grows by exactly one vertex per arc
            left = len(state_left_side(g, node))
            assert left == prev_left + 1
            prev, prev_left = node, left


def test_found_path_prefixes_stay_valid():
    # extending along the witness path keeps every prefix a valid layout of
    # the processed part, mirroring how feasibility propagates over arcs
    from linlay.graphs import Graph
    from naive import cycle_of

    for g in (cycle_of(*"abcde"), Graph.from_edges([("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])):
        for kind in LayoutKind:
            rep = solve_bounded_width_report(g, kind, 2, 2)
            if rep.layout is None:
                continue
            layout = rep.layout
            for i in range(1, g.n + 1):
                keep = set(layout.spine[:i])
                sub = g.induced(keep)
                prefix = LinearLayout(
                    kind,
                    layout.page_count,
                    layout.spine[:i],
                    {e: p for e, p in layout.pages.items() if set(e) <= keep},
                )
                assert validate_layout(sub, prefix).ok


def test_enumerate_states_within_formulaic_bound():
    import math

    tri = cycle_of("a", "b", "c")
    pages, width = 1, 2
    count = sum(1 for _ in enumerate_states(tri, pages, width))
    qll = pages * width
    bound = (tri.m ** qll) * (pages ** qll) * math.factorial(2 * qll) + 2
    assert count <= bound


def test_verdicts_match_oracle_sampled_larger():
    # a handful of 8- and 9-vertex samples on top of the exhaustive n<=7 gate
    rng = random.Random(71)
    for _ in range(5):
        g = random_connected_graph(rng, rng.choice([8, 9]), rng.randint(0, 3))
        width = rng.randint(1, 2)
        kind = rng.choice(list(LayoutKind))
        dp = solve_bounded_width(g, kind, 1, width)
        oracle = solve_exhaustive(OracleQuery(g, kind, 1, width), guard=9)
        assert (dp is None) == (oracle is None), (g.edges, kind, width)


def _mini_layout_is_valid(g, s, kind, pages, width):
    from linlay.layouts import LinearLayout, page_width as pw

    if not s[0]:
        return True
    # the graph (V(F), F) spanned by the cut's edges
    cut = state_cut(s)
    sub = Graph.build({v for e in cut.edges for v in e}, cut.edges)
    lay = LinearLayout(kind, pages, cut.order, dict(zip(cut.edges, s[3])))
    return validate_layout(sub, lay).ok and pw(lay) <= width


def test_successors_agree_with_literal_arc_conditions():
    # the on-demand successor generator must produce exactly the pairs the
    # literal arc conditions admit, over the full enumerated state space
    from linlay.cutset import _successors
    from naive import cycle_of, path_of

    cases = [
        (Graph.from_edges([("a", "b")]), LayoutKind.STACK, 1, 1),
        (path_of("a", "b", "c"), LayoutKind.STACK, 1, 2),
        (path_of("a", "b", "c"), LayoutKind.QUEUE, 2, 1),
        (cycle_of("a", "b", "c"), LayoutKind.QUEUE, 1, 2),
        (cycle_of("a", "b", "c"), LayoutKind.STACK, 2, 2),
        (path_of("a", "b", "c", "d"), LayoutKind.QUEUE, 1, 2),
    ]
    for g, kind, pages, width in cases:
        states = [
            s for s in enumerate_states(g, pages, width)
            if _mini_layout_is_valid(g, s, kind, pages, width)
        ]
        for sx in states:
            if sx == goal_state(g):
                continue
            # whole tuples are compared, so a wrong ``processed`` from the
            # enumeration shows up here
            got = dict(_successors(g, kind, pages, width, sx))
            expected = {}
            for sy in states:
                label = arc_exists(g, sx, sy, pages, width, kind)
                if label is not None:
                    expected[sy] = label
            if sx == start_state():
                # out of the empty state only first-use ordered page vectors
                expected = {
                    s: label for s, label in expected.items()
                    if all(p <= max(s[3][:i], default=0) + 1 for i, p in enumerate(s[3]))
                }
            assert got == expected, (g.edges, kind.value, pages, width, sx)


def test_enumerate_states_matches_definition_bruteforce():
    # independent route: filter every (cut edges, endpoint order, pages)
    # triple by the node conditions directly
    from naive import cycle_of, path_of

    for g, kind, pages, width in [
        (path_of("a", "b", "c"), LayoutKind.STACK, 1, 2),
        (cycle_of("a", "b", "c"), LayoutKind.QUEUE, 2, 2),
    ]:
        expected = set()
        all_edges = list(g.edges)
        for size in range(1, width * pages + 1):
            for combo in itertools.combinations(all_edges, size):
                if not is_cut_set(g, combo):
                    continue
                eps = sorted({v for e in combo for v in e})
                for order in itertools.permutations(eps):
                    cut = OrientedCutSet(tuple(combo), order)
                    try:
                        nice = is_nicely_oriented(g, cut)
                    except CutSetError:
                        nice = False
                    if not nice:
                        continue
                    for pv in itertools.product(range(1, pages + 1), repeat=size):
                        counts = {}
                        for p in pv:
                            counts[p] = counts.get(p, 0) + 1
                        if max(counts.values()) <= width:
                            expected.add(state_of(g, cut, pv))
        expected.add(start_state())
        expected.add(goal_state(g))
        got = set(enumerate_states(g, pages, width))
        assert got == expected, (g.edges, kind.value, pages, width)
