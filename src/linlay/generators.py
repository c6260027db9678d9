"""Deterministic instance generators for benchmarks and tests."""

from __future__ import annotations

import itertools
import random

from .graphs import Graph


class GeneratorError(ValueError):
    pass


def _names(prefix: str, k: int) -> list[str]:
    width = max(2, len(str(k - 1)))
    return [f"{prefix}{i:0{width}d}" for i in range(k)]


def path_graph(k: int) -> Graph:
    if k < 1:
        raise GeneratorError("path needs at least one vertex")
    vs = _names("v", k)
    return Graph.build(vs, zip(vs, vs[1:]))


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise GeneratorError("cycle needs at least three vertices")
    vs = _names("v", k)
    return Graph.build(vs, list(zip(vs, vs[1:])) + [(vs[-1], vs[0])])


def star_graph(k: int) -> Graph:
    if k < 1:
        raise GeneratorError("star needs at least one leaf")
    leaves = _names("v", k)
    return Graph.build(leaves + ["c"], [("c", leaf) for leaf in leaves])


def complete_graph(k: int) -> Graph:
    if k < 1:
        raise GeneratorError("complete graph needs at least one vertex")
    vs = _names("v", k)
    return Graph.build(vs, itertools.combinations(vs, 2))


def random_gnm(n: int, m: int, seed: int) -> Graph:
    if n < 0 or m < 0 or m > n * (n - 1) // 2:
        raise GeneratorError(f"no simple graph with n={n}, m={m}")
    rng = random.Random(seed)
    vs = _names("v", n)
    pairs = list(itertools.combinations(vs, 2))
    chosen = rng.sample(pairs, m)
    return Graph.build(vs, chosen)


def twin_gadget(
    core_size: int,
    copy_size: int,
    copies: int,
    attach: tuple[tuple[int, int], ...] = ((0, 0),),
) -> Graph:
    """A clique core plus ``copies`` identical path components.

    Copy vertex ``ci`` attaches to core vertex ``aj`` for every (i, j) in
    ``attach``; all copies are pairwise twins by construction.  Core
    vertices are named to sort before copy vertices so that exhaustive
    searches meet the dense part early.
    """
    if core_size < 1 or copy_size < 1 or copies < 0:
        raise GeneratorError("sizes must be positive")
    core = [f"a{j}" for j in range(core_size)]
    edges: list[tuple[str, str]] = list(itertools.combinations(core, 2))
    vertices = list(core)
    for c in range(copies):
        names = [f"m{c:02d}_{i}" for i in range(copy_size)]
        vertices.extend(names)
        edges.extend(zip(names, names[1:]))
        for ci, aj in attach:
            if not (0 <= ci < copy_size and 0 <= aj < core_size):
                raise GeneratorError(f"attachment {(ci, aj)} out of range")
            edges.append((names[ci], core[aj]))
    return Graph.build(vertices, edges)


def _int(params: dict, key: str, default: int | None = None) -> int:
    """Integer parameter ``key``; KeyError when it is missing with no default."""
    value = params[key] if default is None else params.get(key, default)
    try:
        return int(value)
    except (TypeError, ValueError):
        raise GeneratorError(f"parameter {key!r} must be an integer, got {value!r}") from None


_FAMILIES = {
    "path": lambda params, seed: path_graph(_int(params, "n")),
    "cycle": lambda params, seed: cycle_graph(_int(params, "n")),
    "star": lambda params, seed: star_graph(_int(params, "n")),
    "complete": lambda params, seed: complete_graph(_int(params, "n")),
    "random_gnm": lambda params, seed: random_gnm(
        _int(params, "n"), _int(params, "m"), int(seed if seed is not None else 0)
    ),
    "twin_gadget": lambda params, seed: twin_gadget(
        _int(params, "core", 1),
        _int(params, "copy", 1),
        _int(params, "k"),
    ),
}


def generate_instance(family: str, params: dict, seed: int | None = None) -> Graph:
    if family not in _FAMILIES:
        raise GeneratorError(f"unknown family {family!r}; pick from {sorted(_FAMILIES)}")
    try:
        return _FAMILIES[family](params, seed)
    except KeyError as exc:
        raise GeneratorError(f"family {family!r} is missing parameter {exc}") from exc
