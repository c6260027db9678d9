from __future__ import annotations

import itertools
import random

import pytest

from linlay.graphs import Graph
from linlay.levelplan import (
    ImproperEdgeError,
    LevelAssignment,
    LevelError,
    LeveledGraph,
    OffsetUnionFind,
    parity_consistent,
    find_level_embedding,
)


def leveled(edges, levels, isolated=()):
    g = Graph.from_edges(edges, isolated=isolated)
    return LeveledGraph(g, LevelAssignment.build(levels))


def naive_level_planar(lg, before=()) -> bool:
    """Whether some crossing-free drawing places p left of q for every
    pair (p, q) in ``before``, by trying every tuple of per-level orders."""
    lv = lg.levels.levels
    h = lg.levels.h
    rows = [sorted(v for v in lg.graph.vertices if lv[v] == i) for i in range(1, h + 1)]
    for orders in itertools.product(*(itertools.permutations(r) for r in rows)):
        pos = {v: i for row in orders for i, v in enumerate(row)}
        if not all(pos[p] < pos[q] for p, q in before):
            continue
        ok = True
        for (a, b), (c, d) in itertools.combinations(lg.graph.edges, 2):
            la, lb = sorted((lv[a], lv[b]))
            lc, ld = sorted((lv[c], lv[d]))
            if (la, lb) != (lc, ld):
                continue
            lo1, hi1 = (a, b) if lv[a] < lv[b] else (b, a)
            lo2, hi2 = (c, d) if lv[c] < lv[d] else (d, c)
            if lo1 != lo2 and hi1 != hi2 and (pos[lo1] < pos[lo2]) != (pos[hi1] < pos[hi2]):
                ok = False
                break
        if ok:
            return True
    return False


def test_path_on_three_levels():
    lg = leveled([("a", "b"), ("b", "c")], {"a": 1, "b": 2, "c": 3})
    assert find_level_embedding(lg) is not None


def test_k33_on_two_levels_is_not_level_planar():
    lg = leveled(
        [(a, b) for a in ("a1", "a2", "a3") for b in ("b1", "b2", "b3")],
        {"a1": 1, "a2": 1, "a3": 1, "b1": 2, "b2": 2, "b3": 2},
    )
    assert find_level_embedding(lg) is None
    assert not naive_level_planar(lg)


def test_c4_level_assignments():
    # on two levels every one of the 2!*2! order pairs has a crossing
    two_levels = leveled(
        [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")],
        {"a": 1, "c": 1, "b": 2, "d": 2},
    )
    assert not naive_level_planar(two_levels)
    assert find_level_embedding(two_levels) is None
    # with c lifted to a third level the zigzag drawing exists
    three_levels = leveled(
        [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")],
        {"a": 1, "b": 2, "d": 2, "c": 3},
    )
    assert naive_level_planar(three_levels)
    assert find_level_embedding(three_levels) is not None


def test_improper_edge_rejected():
    lg = leveled([("a", "b")], {"a": 1, "b": 3, "c": 2}, isolated=["c"])
    with pytest.raises(ImproperEdgeError):
        find_level_embedding(lg)


def test_level_assignment_must_be_contiguous():
    with pytest.raises(LevelError):
        LevelAssignment.build({"a": 1, "b": 3})
    with pytest.raises(LevelError):
        LevelAssignment.build({"a": 2})


def test_disconnected_components_drawn_side_by_side():
    lg = leveled(
        [("a", "b"), ("x", "y")],
        {"a": 1, "b": 2, "x": 1, "y": 2},
    )
    emb = find_level_embedding(lg)
    assert emb is not None
    for row in emb.orders.values():
        assert len(row) == len(set(row))


def random_leveled(rng, max_n=7, max_edges=7):
    n = rng.randint(2, max_n)
    h = rng.randint(1, min(4, n))
    names = [f"v{i}" for i in range(n)]
    # contiguous levels: seed one vertex per level, others random
    levels = {names[i]: i + 1 for i in range(h)}
    for v in names[h:]:
        levels[v] = rng.randint(1, h)
    candidates = [
        (u, v)
        for u, v in itertools.combinations(names, 2)
        if abs(levels[u] - levels[v]) == 1
    ]
    rng.shuffle(candidates)
    edges = candidates[: rng.randint(0, min(max_edges, len(candidates)))]
    return leveled(edges, levels, isolated=names)


def test_matches_naive_on_random_leveled_graphs():
    rng = random.Random(31)
    checked = 0
    for _ in range(60):
        lg = random_leveled(rng)
        got = find_level_embedding(lg) is not None
        assert got == naive_level_planar(lg), (lg.graph.edges, lg.levels.levels)
        checked += 1
    assert checked == 60


def test_parity_system_decides_level_planarity_without_pairs():
    # necessary for any proper-leveled graph; sufficient by the theorem of
    # Randerath et al. (transitivity of the order is implied)
    rng = random.Random(37)
    seen = set()
    for _ in range(1000):
        lg = random_leveled(rng, max_n=8, max_edges=16)
        planar = naive_level_planar(lg)
        consistent = parity_consistent(lg.levels.levels, lg.graph.edges, ())
        assert consistent == planar, (lg.graph.edges, lg.levels.levels)
        seen.add(planar)
    assert seen == {True, False}


def test_parity_system_admits_every_drawing_that_honours_the_pairs():
    rng = random.Random(41)
    outcomes = set()
    disconnected = 0
    for _ in range(600):
        lg = random_leveled(rng, max_edges=10)
        lv = lg.levels.levels
        same_level = [
            (u, v) for u, v in itertools.permutations(lg.graph.vertices, 2) if lv[u] == lv[v]
        ]
        before = rng.sample(same_level, min(len(same_level), rng.randint(1, 3)))
        honoured = naive_level_planar(lg, before)
        if honoured:
            assert parity_consistent(lv, lg.graph.edges, before), (lg.graph.edges, lv, before)
        outcomes.add((honoured, parity_consistent(lv, lg.graph.edges, before)))
        emb = find_level_embedding(lg, before=before)
        assert (emb is not None) == honoured, (lg.graph.edges, lv, before)
        if emb is not None:
            pos = {v: i for row in emb.orders.values() for i, v in enumerate(row)}
            assert all(pos[p] < pos[q] for p, q in before)
        disconnected += not lg.graph.is_connected()
    assert outcomes >= {(True, True), (False, False)}
    assert disconnected > 0


def test_precedence_pairs_are_checked():
    lg = leveled([("a", "b"), ("x", "y")], {"a": 1, "b": 2, "x": 1, "y": 2})
    with pytest.raises(LevelError):
        find_level_embedding(lg, before=[("a", "b")])
    # a pair may join two components' rows: the instance is searched as one
    assert find_level_embedding(lg, before=[("a", "x")]).orders == {1: ("a", "x"), 2: ("b", "y")}
    assert find_level_embedding(lg, before=[("x", "a")]).orders == {1: ("x", "a"), 2: ("y", "b")}
    assert find_level_embedding(lg, before=[("x", "a"), ("b", "y")]) is None
    path = leveled([("a", "b"), ("b", "c")], {"a": 1, "c": 1, "b": 2})
    assert find_level_embedding(path, before=[("c", "a")]).orders[1] == ("c", "a")
    assert find_level_embedding(path, before=[("c", "a"), ("a", "c")]) is None


def test_union_find_over_the_integers_rejects_a_cycle_with_nonzero_sum():
    uf = OffsetUnionFind()
    assert uf.union("a", "b", 1) and uf.union("b", "c", 1)
    assert not uf.union("c", "a", 0)
    assert not uf.union("c", "a", -4)  # even, so only a parity would accept it
    assert uf.union("c", "a", -2)
    assert uf.find("c")[1] - uf.find("a")[1] == 2


def test_union_find_over_parities_reads_offsets_mod_2():
    uf = OffsetUnionFind(modulus=2)
    assert uf.union("x", "y", 1) and uf.union("y", "z", 1)
    assert uf.union("x", "z", 0)
    assert not uf.union("x", "z", 1)
    integers = OffsetUnionFind()
    assert integers.union("x", "y", 1) and integers.union("y", "z", 1)
    assert not integers.union("x", "z", 0)
