from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from linlay.catalog import catalog_upto
from linlay.graphs import Graph
from linlay import levelplan, queue_one
from linlay.generators import random_gnm
from linlay.layouts import LayoutKind, validate_layout
from linlay.levelplan import LevelAssignment, find_level_embedding
from linlay.oracle import OracleQuery, solve_exhaustive
from linlay.queue_one import (
    ArcTag,
    BranchGuardError,
    branch_accepts,
    branch_side_filter,
    Labeling,
    embedding_to_queue_layout,
    enumerate_labelings,
    level_assignment_from_labeling,
    reduce_to_level_planarity,
    solve_queue_one_page,
    solve_queue_one_page_report,
)
from linlay.runner import SolveRequest, run

from arched_reference import arched_embedding_exists, side_conditions_accept
from naive import (
    RollbackUnionFind,
    cycle_of,
    path_of,
    random_connected_graph,
    reference_labeling_search,
    star_of,
)

POOL = Path(__file__).resolve().parent.parent / "perfbench" / "pool" / "queue1-gnm.json"


def lab_of(*items):
    arcs = tuple((u, v) for u, v, _ in items)
    tags = tuple(ArcTag.ARCHING if t == "arch" else ArcTag.ORDINARY for _, _, t in items)
    return Labeling(arcs, tags)


def arched_fixture():
    """Queue layout r < a < t < w and its arched counterpart.

    Levels: r on 1; t, a on 2; w on 3.  The t->a arc arches on level 2 with
    t leftmost; a carries the only upward edge.
    """
    g = Graph.from_edges([("r", "t"), ("a", "r"), ("a", "t"), ("a", "w")])
    lab = lab_of(("r", "t", "ord"), ("r", "a", "ord"), ("t", "a", "arch"), ("a", "w", "ord"))
    return g, lab


def test_level_assignment_single_ordinary_arc():
    g = Graph.from_edges([("a", "b")])
    lab = lab_of(("a", "b", "ord"))
    levels = level_assignment_from_labeling(g, lab)
    assert levels is not None and levels.levels == {"a": 1, "b": 2}


def test_level_assignment_cyclic_ordinary_is_inconsistent():
    tri = cycle_of("a", "b", "c")
    lab = lab_of(("a", "b", "ord"), ("b", "c", "ord"), ("c", "a", "ord"))
    assert level_assignment_from_labeling(tri, lab) is None


def test_level_assignment_fixture_levels():
    g, lab = arched_fixture()
    levels = level_assignment_from_labeling(g, lab)
    assert levels is not None
    assert levels.levels == {"r": 1, "t": 2, "a": 2, "w": 3}


def test_level_assignment_independent_of_root():
    rng = random.Random(4)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(2, 6), rng.randint(0, 3))
        for lab in list(enumerate_labelings(g))[:64]:
            levels = level_assignment_from_labeling(g, lab)
            if levels is None:
                continue
            # consistency arc by arc
            for (u, v), tag in lab.items():
                step = 1 if tag is ArcTag.ORDINARY else 0
                assert levels.levels[v] == levels.levels[u] + step
            # renaming-invariant restart: BFS from a different root by
            # relabeling so another vertex sorts first
            swap = {g.vertices[0]: g.vertices[-1], g.vertices[-1]: g.vertices[0]}
            g2 = Graph.build(
                [swap.get(v, v) for v in g.vertices],
                [(swap.get(u, u), swap.get(v, v)) for u, v in g.edges],
            )
            lab2 = Labeling(
                tuple(
                    sorted(
                        ((swap.get(u, u), swap.get(v, v)) for u, v in lab.arcs),
                        key=lambda a: tuple(sorted(a)),
                    )
                ),
                tuple(
                    tag
                    for _, tag in sorted(
                        zip(lab.arcs, lab.tags),
                        key=lambda it: tuple(sorted((swap.get(it[0][0], it[0][0]), swap.get(it[0][1], it[0][1])))),
                    )
                ),
            )
            levels2 = level_assignment_from_labeling(g2, lab2)
            assert levels2 is not None
            assert all(levels2.levels[swap.get(v, v)] == levels.levels[v] for v in g.vertices)


def test_labeling_enumeration_counts():
    for g in (path_of("a", "b"), path_of("a", "b", "c"), cycle_of("a", "b", "c", "d")):
        labs = list(enumerate_labelings(g))
        assert len(labs) == 4 ** g.m
        assert len({(l.arcs, l.tags) for l in labs}) == len(labs)


def test_reduction_without_arches_is_the_graph_at_its_levels():
    g = path_of("a", "b", "c")
    lab = lab_of(("a", "b", "ord"), ("c", "b", "ord"))
    levels = level_assignment_from_labeling(g, lab)
    instance = reduce_to_level_planarity(g, lab, levels)
    assert instance is not None
    assert instance.graph == g
    assert instance.levels == levels == LevelAssignment.build({"a": 1, "b": 2, "c": 1})
    instance.check_proper()


def test_reduction_keeps_only_the_ordinary_arcs():
    g, lab = arched_fixture()
    levels = level_assignment_from_labeling(g, lab)
    instance = reduce_to_level_planarity(g, lab, levels)
    assert instance is not None
    # the level-2 arch t->a is no edge of the instance; its side
    # conditions reach the tester as precedence pairs
    assert instance.graph.vertices == g.vertices
    assert instance.graph.edges == (("a", "r"), ("a", "w"), ("r", "t"))
    assert instance.levels == levels
    assert branch_side_filter(g, lab, levels) == [("t", "a")]
    # dropping the arches can disconnect the instance
    g2 = path_of("a", "b", "c")
    lab2 = lab_of(("a", "b", "arch"), ("b", "c", "ord"))
    levels2 = level_assignment_from_labeling(g2, lab2)
    instance2 = reduce_to_level_planarity(g2, lab2, levels2)
    assert instance2.graph.edges == (("b", "c"),)
    assert len(instance2.graph.components()) == 2
    assert branch_accepts(g2, lab2, levels2)


def test_reduction_rejects_two_arch_sources_on_a_level():
    g = Graph.from_edges([("a", "b"), ("c", "d"), ("a", "c")])
    # a,b,c,d with arcs a->b arch, c->d arch on the same level
    lab = lab_of(("a", "b", "arch"), ("a", "c", "ord"), ("c", "d", "arch"))
    levels = level_assignment_from_labeling(g, lab)
    assert levels is not None
    assert levels.levels["a"] == levels.levels["b"]
    assert levels.levels["c"] == levels.levels["d"]
    if levels.levels["a"] == levels.levels["c"]:
        assert reduce_to_level_planarity(g, lab, levels) is None


def test_fixture_round_trip_layout():
    g, lab = arched_fixture()
    levels = level_assignment_from_labeling(g, lab)
    derived = reduce_to_level_planarity(g, lab, levels)
    emb = find_level_embedding(derived, before=branch_side_filter(g, lab, levels))
    assert emb is not None
    assert emb == {1: ("r",), 2: ("t", "a"), 3: ("w",)}
    layout = embedding_to_queue_layout(g, lab, levels, emb)
    assert validate_layout(g, layout).ok
    # spine concatenates reversed level orders: r, then level 2, then w
    assert layout.spine == ("r", "a", "t", "w")


def test_single_edge_and_single_vertex():
    g = Graph.from_edges([("a", "b")])
    layout = solve_queue_one_page(g)
    assert layout is not None and validate_layout(g, layout).ok
    lone = Graph.build(["z"], [])
    assert solve_queue_one_page(lone).spine == ("z",)


def test_trees_and_cycles_have_one_page_queue_layouts():
    rng = random.Random(17)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(2, 8), 0)
        layout = solve_queue_one_page(g)
        assert layout is not None and validate_layout(g, layout).ok
    for k in (3, 4, 5, 6, 7):
        g = cycle_of(*[f"v{i}" for i in range(k)])
        layout = solve_queue_one_page(g)
        assert layout is not None and validate_layout(g, layout).ok


def test_k4_absent(k4):
    assert solve_queue_one_page(k4) is None


def test_edge_guard_is_refusal():
    g = star_of("s", [f"l{i:02d}" for i in range(30)])
    with pytest.raises(BranchGuardError):
        solve_queue_one_page(g, edge_guard=26)
    assert solve_queue_one_page(g, edge_guard=30) is not None


def test_disconnected_input_is_rejected():
    # linlay.runner splits components before calling the solver
    g = Graph.build(["a", "b", "z"], [("a", "b")])
    with pytest.raises(ValueError):
        solve_queue_one_page(g)


def test_level_assignment_rejects_disconnected_graph():
    g = Graph.build(["a", "b", "c", "x", "y"], [("a", "b"), ("b", "c"), ("a", "c"), ("x", "y")])
    with pytest.raises(ValueError):
        level_assignment_from_labeling(g, lab_of(("a", "b", "ord"), ("a", "c", "ord"),
                                                 ("b", "c", "arch"), ("x", "y", "ord")))
    # a conflict does not hide the disconnection
    with pytest.raises(ValueError):
        level_assignment_from_labeling(g, lab_of(("a", "b", "ord"), ("a", "c", "ord"),
                                                 ("b", "c", "ord"), ("x", "y", "ord")))
    assert level_assignment_from_labeling(Graph.build([], []), Labeling((), ())).levels == {}


def search_leaves(monkeypatch, g):
    """The labeling search's report on the connected graph ``g`` and each
    of its leaves as ``(labeling, level map)``, in visiting order.

    Every leaf computes its side pairs with ``_side_pairs`` on vertex
    indices (a ``range``); a leaf that passes its parity system calls it
    again through ``branch_side_filter``, on names, which is not a leaf.
    """
    side_pairs = queue_one._side_pairs
    names = g.vertices
    leaves = []

    def hooked(vertices, arcs, arching, lv):
        if isinstance(vertices, range):
            lab = Labeling(
                tuple((names[a], names[b]) for a, b in arcs),
                tuple(ArcTag.ARCHING if arch else ArcTag.ORDINARY for arch in arching),
            )
            leaves.append((lab, dict(zip(names, lv))))
        return side_pairs(vertices, arcs, arching, lv)

    with monkeypatch.context() as patch:
        patch.setattr(queue_one, "_side_pairs", hooked)
        report = queue_one._solve_component(g)
    return report, leaves


def test_leaf_levels_match_level_assignment_from_labeling(monkeypatch):
    """The search keeps each leaf's levels in one list, shifted at the
    leaf so the lowest is 1; they must be the labeling's own levels.
    Every leaf computes its side pairs on vertex indices; only the leaves
    whose parity system is consistent get named objects."""
    for n, m, seed in [(6, 7, 1), (7, 8, 2), (7, 9, 5), (8, 10, 3), (8, 11, 7), (9, 12, 4)]:
        g = random_gnm(n, m, seed)
        report, leaves = search_leaves(monkeypatch, g)
        for lab, levels in leaves:
            assert LevelAssignment(levels) == level_assignment_from_labeling(g, lab)
            assert min(levels.values()) == 1
        assert len(leaves) == report.branches_tried > 0


def test_search_matches_the_reference_labeling_search(monkeypatch):
    """The index-level search against the union-find search it replaced:
    the same leaves in the same order, the same ``branches_tried``, and
    the same labeling, levels and spine.  Pruning at a level gap of 1 in
    the forward check, or dropping the arch-source clash test, fails
    here."""
    graphs = [g for g in catalog_upto(7) if g.is_connected() and 1 <= g.m <= 14][::8]
    rng = random.Random(52)
    for _ in range(40):
        n = rng.randint(7, 9)
        graphs.append(random_connected_graph(rng, n, rng.randint(0, n + 3)))
    found = 0
    for g in graphs:
        want_leaves = []
        want = reference_labeling_search(g, want_leaves)
        got, leaves = search_leaves(monkeypatch, g)
        assert leaves == [(lab, levels.levels) for lab, levels in want_leaves], g.edges
        assert got.branches_tried == want.branches_tried == len(leaves)
        assert got.labeling == want.labeling
        assert got.levels == want.levels
        assert (got.layout is None) == (want.layout is None)
        if got.layout is not None:
            assert got.layout.spine == want.layout.spine
            found += 1
    assert 0 < found < len(graphs)


@pytest.mark.parametrize("modulus", [0, 2])
def test_union_find_rollback_restores_finds_and_sizes(modulus):
    def set_sizes(uf, nodes):
        return {x: uf.size.get(uf.find(x)[0], 1) for x in nodes}

    nodes = "abcdefg"
    uf = RollbackUnionFind(modulus)
    assert uf.union("a", "b", 1) and uf.union("c", "d", 1)
    before = [uf.find(x) for x in nodes], set_sizes(uf, nodes)
    mark = uf.mark()
    assert uf.union("b", "c", 1) and uf.union("e", "a", 0)
    assert uf.union("f", "g", 1) and uf.union("g", "d", 1)
    assert set(set_sizes(uf, nodes).values()) == {7}
    uf.rollback(mark)
    assert ([uf.find(x) for x in nodes], set_sizes(uf, nodes)) == before
    uf.rollback(0)
    assert [uf.find(x) for x in nodes] == [(x, 0) for x in nodes]
    assert set(set_sizes(uf, nodes).values()) == {1}


def test_queue1_pool_verdicts_and_branches():
    """Every request of the benchmark's queue1-gnm pool, replayed through
    ``runner.run``, gives the stored verdict and ``branches`` counter."""
    pool = json.loads(POOL.read_text())
    requests = [req for slot in pool["slots"] for req in slot]
    assert len(requests) == 14
    for req in requests:
        assert req["op"] == "solve" and req["graph"]["gen"] == "random_gnm"
        report = run(SolveRequest(
            random_gnm(*req["graph"]["args"]), req["algo"], LayoutKind(req["kind"]), req["pages"]
        ))
        assert report.verdict == req["ref"]["verdict"], req["graph"]
        assert report.counters["branches"] == req["counters"]["branches"], req["graph"]


def test_verdicts_match_oracle_small():
    rng = random.Random(23)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(2, 6), rng.randint(0, 3))
        got = solve_queue_one_page(g) is not None
        want = solve_exhaustive(OracleQuery(g, LayoutKind.QUEUE, 1)) is not None
        assert got == want, g.edges


def test_branch_answer_matches_arched_checker_per_labeling():
    # every labeling of a few small graphs, two random_gnm ones among them;
    # dropping the b != d guard of the parity equations fails this test
    rng = random.Random(29)
    graphs = [random_gnm(5, 6, 0), random_gnm(6, 7, 2)]
    for _ in range(6):
        graphs.append(random_connected_graph(rng, rng.randint(2, 5), rng.randint(0, 2)))
    for g in graphs:
        for lab in enumerate_labelings(g):
            levels = level_assignment_from_labeling(g, lab)
            if levels is None:
                continue
            assert branch_accepts(g, lab, levels) == arched_embedding_exists(
                g, lab, levels
            ), (g.edges, lab)


def test_side_pairs_accept_exactly_the_rows_the_side_conditions_accept(monkeypatch):
    # every row the backtracker checks against its level's pairs, on every
    # branch of criterion-6-sized graphs; the tester is called without the
    # parity check that queue1 makes first, so the rows of branches that
    # check rejects are checked too.  A level without pairs has no arch,
    # and both sides accept each of its rows.
    rng = random.Random(61)
    graphs = []
    while len(graphs) < 12:
        n = rng.randint(3, 6)
        extra = rng.randint(0, min(2, n * (n - 1) // 2 - (n - 1)))
        graphs.append(random_connected_graph(rng, n, extra))
    honours = levelplan._honours
    branch = {}
    verdicts = {True: 0, False: 0}

    def checked_honours(row, own):
        g, lab, levels = (branch[k] for k in ("g", "lab", "levels"))
        level = levels.levels[row[0]]
        accepted = honours(row, own)
        assert accepted == side_conditions_accept(g, lab, levels, level, row), (
            g.edges, lab, level, row,
        )
        verdicts[accepted] += 1
        return accepted

    monkeypatch.setattr(levelplan, "_honours", checked_honours)
    for g in graphs:
        for lab in enumerate_labelings(g):
            levels = level_assignment_from_labeling(g, lab)
            if levels is None:
                continue
            derived = reduce_to_level_planarity(g, lab, levels)
            if derived is None:
                continue
            branch.update(g=g, lab=lab, levels=levels)
            find_level_embedding(derived, before=branch_side_filter(g, lab, levels))
    assert verdicts[True] > 0 and verdicts[False] > 0


def test_unconstrained_drawing_can_overshoot_side_conditions():
    # the ordinary arcs of this labeling have a level drawing, yet no
    # arched embedding induces it: two arch targets cannot both sit
    # at-or-right of the rightmost upward vertex.  The side pairs restore
    # the match.
    g = Graph.from_edges(
        [("v0", "v1"), ("v0", "v5"), ("v0", "v7"), ("v1", "v2"), ("v1", "v3"),
         ("v1", "v4"), ("v1", "v6"), ("v2", "v3"), ("v2", "v4"), ("v3", "v7"),
         ("v4", "v5"), ("v5", "v6")]
    )
    lab = lab_of(
        ("v1", "v0", "arch"), ("v5", "v0", "ord"), ("v0", "v7", "ord"),
        ("v1", "v2", "arch"), ("v1", "v3", "ord"), ("v4", "v1", "ord"),
        ("v1", "v6", "arch"), ("v2", "v3", "ord"), ("v4", "v2", "ord"),
        ("v3", "v7", "arch"), ("v4", "v5", "arch"), ("v5", "v6", "ord"),
    )
    levels = level_assignment_from_labeling(g, lab)
    assert levels is not None
    derived = reduce_to_level_planarity(g, lab, levels)
    assert derived is not None
    assert find_level_embedding(derived) is not None  # unfiltered over-accepts
    assert not arched_embedding_exists(g, lab, levels)
    assert not branch_accepts(g, lab, levels)


def test_report_counts_branches():
    g = path_of("a", "b", "c")
    report = solve_queue_one_page_report(g)
    assert report.layout is not None
    assert 1 <= report.branches_tried <= 4**2
