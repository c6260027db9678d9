"""Acceptance gate: one test per criterion, at the stated scale and
tolerance.  Expensive sweeps are shared through module-scoped fixtures."""

from __future__ import annotations

import math
import random

import pytest

from linlay.catalog import catalog_upto
from linlay.cutset import (
    OrientedCutSet,
    enumerate_states,
    induce_order,
    is_cut_set,
    is_nicely_oriented,
    left_side,
    solve_bounded_width,
)
from linlay.generators import path_graph, star_graph, twin_gadget
from linlay.graphs import Graph
from linlay.kernel import (
    build_reduced_graph,
    compute_vertex_integrity,
    oracle_solver,
)
from linlay.layouts import LayoutKind, page_width, spanning_edges, validate_layout
from linlay.oracle import OracleQuery, solve_exhaustive
from linlay.queue_one import (
    branch_accepts,
    enumerate_labelings,
    level_assignment_from_labeling,
    solve_queue_one_page,
)
from linlay.runner import SolveRequest, run

from arched_reference import arched_embedding_exists
from conftest import width_five_fixture
from naive import random_connected_graph

pytestmark = pytest.mark.acceptance

CONFIGS = [
    (kind, pages, width)
    for kind in (LayoutKind.STACK, LayoutKind.QUEUE)
    for pages in (1, 2)
    for width in (1, 2, 3)
]


@pytest.fixture(scope="module")
def catalog7():
    return catalog_upto(7)


@pytest.fixture(scope="module")
def bounded_width_sweep(catalog7):
    """Criterion 1 workload: every connected graph with n <= 7, every
    (kind, pages <= 2, width <= 3); shared with criterion 4."""
    results = []
    for g in catalog7:
        for kind, pages, width in CONFIGS:
            dp = solve_bounded_width(g, kind, pages, width)
            oracle = solve_exhaustive(OracleQuery(g, kind, pages, width))
            results.append((g, kind, pages, width, dp, oracle))
    return results


def test_criterion_1_bounded_width_matches_oracle(bounded_width_sweep):
    disagreements = [
        (g.edges, kind.value, pages, width)
        for g, kind, pages, width, dp, oracle in bounded_width_sweep
        if (dp is None) != (oracle is None)
    ]
    assert not disagreements, disagreements[:5]
    for g, kind, pages, width, dp, _ in bounded_width_sweep:
        if dp is not None:
            assert validate_layout(g, dp).ok
            assert page_width(dp) <= width
    print(
        f"\ncriterion 1: {len(bounded_width_sweep)} (graph, config) pairs, "
        f"0 disagreements"
    )


def test_criterion_2_queue_one_page_matches_oracle(catalog7):
    small = [g for g in catalog7 if g.n <= 6]
    checked = 0
    for g in small:
        got = solve_queue_one_page(g) is not None
        want = solve_exhaustive(OracleQuery(g, LayoutKind.QUEUE, 1)) is not None
        assert got == want, g.edges
        checked += 1
    rng = random.Random(52)
    for _ in range(200):
        n = rng.choice([7, 8])
        g = random_connected_graph(rng, n, rng.randint(0, 6))
        got = solve_queue_one_page(g) is not None
        want = solve_exhaustive(OracleQuery(g, LayoutKind.QUEUE, 1)) is not None
        assert got == want, g.edges
        checked += 1
    print(f"\ncriterion 2: {checked} graphs (all n<=6 plus 200 random n in 7..8), 0 disagreements")


KERNEL_CASES = (
    [(1, 1, k, LayoutKind.STACK, 1) for k in range(6, 13)]
    + [(1, 1, k, LayoutKind.QUEUE, 1) for k in range(6, 13)]
    + [(3, 1, k, LayoutKind.STACK, 1) for k in range(6, 12)]
    + [(3, 1, k, LayoutKind.QUEUE, 1) for k in range(6, 10)]
    + [(4, 1, k, LayoutKind.STACK, 1) for k in (6, 7)]  # infeasible: K4 core
    + [(4, 1, k, LayoutKind.STACK, 2) for k in (6, 7, 8)]
    + [(1, 2, k, LayoutKind.STACK, 1) for k in range(6, 10)]
    + [(2, 2, k, LayoutKind.STACK, 1) for k in range(6, 10)]
    + [(1, 3, k, LayoutKind.STACK, 1) for k in (6, 7, 8)]
    + [(3, 2, k, LayoutKind.STACK, 1) for k in (6, 7, 8)]
    + [(2, 1, k, LayoutKind.QUEUE, 1) for k in range(6, 13)]
)


def test_criterion_3_kernel_round_trip():
    assert len(KERNEL_CASES) == 50
    threshold = 5
    inner = oracle_solver(guard=26)
    lifted = 0
    for core, copy, k, kind, pages in KERNEL_CASES:
        g = twin_gadget(core, copy, k)
        dec = compute_vertex_integrity(g)
        cert = build_reduced_graph(g, dec, pages, threshold=threshold)
        assert cert.group_count >= 5, (core, copy, k)
        report = run(
            SolveRequest(g, "kernel", kind, pages, threshold=threshold, oracle_guard=26)
        )
        assert report.verdict != "refused", (core, copy, k, kind, pages)
        via_kernel = report.layout
        direct = inner(g, kind, pages)
        assert (via_kernel is None) == (direct is None), (core, copy, k, kind, pages)
        if via_kernel is not None:
            assert validate_layout(g, via_kernel).ok
            # count the cases where the witness really came from lifting:
            # the kernel is a proper subgraph and the lifted layout covers g
            if cert.graph.n < g.n:
                lifted += 1
    assert lifted > 0
    print(f"\ncriterion 3: 50 twin-gadget instances, 0 disagreements, {lifted} lifted witnesses")


def test_criterion_4_layout_cuts_are_nicely_oriented(bounded_width_sweep):
    checked = 0
    for g, kind, pages, width, _, oracle in bounded_width_sweep:
        if oracle is None or g.n < 2:
            continue
        for v in oracle.spine[:-1]:
            f = spanning_edges(oracle, v)
            if not f:
                continue
            assert len(f) <= width * pages
            assert is_cut_set(g, f)
            cut = OrientedCutSet.from_order(f, oracle.spine)
            assert is_nicely_oriented(g, cut)
            checked += 1
    assert checked > 0
    print(f"\ncriterion 4: {checked} spanning cuts of oracle witnesses, all nicely oriented")


def test_criterion_5_left_side_is_order_independent():
    g_wide, _, cut_edges, cut_order = width_five_fixture()
    star = star_graph(5)
    path = path_graph(6)
    fixtures = [
        (g_wide, OrientedCutSet.from_order(cut_edges, cut_order)),
        (star, OrientedCutSet.from_order(star.edges, ("c",) + tuple(v for v in star.vertices if v != "c"))),
        (path, OrientedCutSet.from_order([("v02", "v03")], ("v02", "v03"))),
    ]
    rng = random.Random(55)
    for g, cut in fixtures:
        reference = left_side(g, cut)
        for _ in range(1000):
            order, witness = induce_order(g, cut, shuffle=rng)
            prefix = frozenset(order[: order.index(witness) + 1])
            assert prefix == reference
    print("\ncriterion 5: 3 fixture cuts x 1000 shuffled runs, left sides identical")


def test_criterion_6_branches_match_arched_checker():
    rng = random.Random(56)
    graphs = []
    while len(graphs) < 30:
        n = rng.randint(3, 6)
        extra = rng.randint(0, min(2, n * (n - 1) // 2 - (n - 1)))
        graphs.append(random_connected_graph(rng, n, extra))
    compared = 0
    for g in graphs:
        for lab in enumerate_labelings(g):
            levels = level_assignment_from_labeling(g, lab)
            if levels is None:
                continue  # no consistent levels: no embedding on either side
            got = branch_accepts(g, lab, levels)
            want = arched_embedding_exists(g, lab, levels)
            assert got == want, (g.edges, lab)
            compared += 1
    assert compared > 0
    print(f"\ncriterion 6: {compared} consistent labelings across 30 graphs, 100% agreement")


def test_criterion_7_edge_bound_reproduction():
    from linlay.bounds import edge_count_bound

    k4 = Graph.from_edges((u, v) for i, u in enumerate("abcd") for v in "abcd"[i + 1:])
    k5 = Graph.from_edges((u, v) for i, u in enumerate("abcde") for v in "abcde"[i + 1:])
    # m(K4) = 6 > 2n - 3 = 5 for one queue page
    assert k4.m == 6 and 2 * k4.n - 3 == 5
    assert not edge_count_bound(k4, LayoutKind.QUEUE, 1)
    # m(K5) = 10 > (l+1)n - 3l = 7 for one stack page
    assert k5.m == 10 and 2 * k5.n - 3 == 7
    assert not edge_count_bound(k5, LayoutKind.STACK, 1)
    print("\ncriterion 7: exact integer edge-bound rejections reproduced")


def test_criterion_8_growth_sanity():
    sizes = list(range(5, 41, 5)) + [39, 40]
    xs, ys = [], []
    for n in sorted(set(sizes)):
        g = path_graph(n)
        count = sum(1 for _ in enumerate_states(g, 1, 1, LayoutKind.STACK))
        xs.append(math.log(n))
        ys.append(math.log(count))
    # least-squares slope of log(count) against log(n)
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
        (x - mean_x) ** 2 for x in xs
    )
    assert slope < 3.0, slope

    for m in range(0, 9):
        g = path_graph(m + 1)
        labs = list(enumerate_labelings(g))
        assert len(labs) == 4**m
        assert len({(l.arcs, l.tags) for l in labs}) == 4**m
    print(f"\ncriterion 8: state growth exponent {slope:.2f} < 3; labeling counts equal 4^m")
