from __future__ import annotations

from linlay.bounds import edge_count_bound
from linlay.graphs import Graph
from linlay.layouts import LayoutKind
from linlay.oracle import OracleQuery, solve_exhaustive

from naive import complete_of, star_of


def test_k5_rejected_for_one_stack_page(k5):
    # bound (l+1)n - 3l = 2*5 - 3 = 7 < 10
    assert not edge_count_bound(k5, LayoutKind.STACK, 1)
    # two pages still reject K5 (3n - 6 = 9 < 10, it is not planar)
    assert not edge_count_bound(k5, LayoutKind.STACK, 2)
    assert edge_count_bound(k5, LayoutKind.STACK, 3)


def test_k4_rejected_for_one_queue_page(k4):
    # queue bound 2ln - l(2l+1) = 2*4 - 3 = 5 < 6
    assert not edge_count_bound(k4, LayoutKind.QUEUE, 1)
    # cross-check: the oracle confirms K4 has no 1-page queue layout
    assert solve_exhaustive(OracleQuery(k4, LayoutKind.QUEUE, 1)) is None


def test_degenerate_graphs_always_possible():
    empty = Graph.build([], [])
    single = Graph.build(["a"], [])
    k2 = Graph.from_edges([("a", "b")])
    for kind in LayoutKind:
        for pages in (1, 2):
            assert edge_count_bound(empty, kind, pages)
            assert edge_count_bound(single, kind, pages)
            assert edge_count_bound(k2, kind, pages)


def test_bound_monotone_in_pages():
    g = complete_of(*"abcdef")
    for kind in LayoutKind:
        allowed = [edge_count_bound(g, kind, p) for p in range(1, 6)]
        # once possible, stays possible
        assert allowed == sorted(allowed)


def test_star_cap_is_only_an_upper_bound():
    star = star_of("s", ["l1", "l2", "l3", "l4", "l5"])
    # vi of a star is 2 (delete the center), yet 1 stack page suffices
    assert solve_exhaustive(OracleQuery(star, LayoutKind.STACK, 1)) is not None
