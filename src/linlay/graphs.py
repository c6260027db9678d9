"""Simple undirected graphs over opaque string vertex ids.

Vertex ids are ordered lexicographically; that order is the canonical
tie-breaker used by every solver in this package, so all derived sequences
(edge lists, components, neighbor lists) are kept sorted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

Edge = tuple[str, str]


class GraphError(ValueError):
    """Violation of the graph construction rules (self-loop, parallel edge, ...)."""


def edge(u: str, v: str) -> Edge:
    """Canonical form of an undirected edge: endpoints in lexicographic order."""
    if u == v:
        raise GraphError(f"self-loop at {u!r}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph; construct through :meth:`build` or :meth:`from_edges`."""

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    @classmethod
    def build(cls, vertices: Iterable[str], edges: Iterable[tuple[str, str]]) -> "Graph":
        vs = tuple(sorted(set(vertices)))
        vset = set(vs)
        seen: set[Edge] = set()
        for u, v in edges:
            e = edge(u, v)
            if u not in vset or v not in vset:
                raise GraphError(f"edge {u!r}-{v!r} mentions an undeclared vertex")
            if e in seen:
                raise GraphError(f"parallel edge {e[0]!r}-{e[1]!r}")
            seen.add(e)
        return cls(vs, tuple(sorted(seen)))

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[str, str]], isolated: Iterable[str] = ()) -> "Graph":
        es = list(edges)
        return cls.build({v for e in es for v in e} | set(isolated), es)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> dict[str, tuple[str, ...]]:
        adj: dict[str, list[str]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    def neighbors(self, v: str) -> tuple[str, ...]:
        if v not in self.adjacency:
            raise GraphError(f"unknown vertex {v!r}")
        return self.adjacency[v]

    def degree(self, v: str) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: str, v: str) -> bool:
        return u != v and edge(u, v) in self.edge_set

    def bfs_components(
        self, avoid: Iterable[str] = (), cap: int | None = None
    ) -> Iterator[list[str]]:
        """Components of G - ``avoid``, listed by their smallest vertex, each in
        breadth-first order from it with neighbours in canonical order.

        Walks ``adjacency`` and skips ``avoid``, so no graph is rebuilt.
        With ``cap``, the first component that reaches ``cap`` vertices is
        yielded as its first ``cap`` vertices and the walk ends there.  A
        breadth-first order only ever appends, so that list is a prefix of
        the component the uncapped walk yields, and every component before
        it is yielded whole, exactly as without a cap.
        """
        seen = set(avoid)
        adj = self.adjacency
        limit = self.n + 1 if cap is None else cap
        for start in self.vertices:
            if start in seen:
                continue
            seen.add(start)
            order = [start]
            for v in order:
                if len(order) >= limit:
                    break
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        order.append(w)
            if len(order) >= limit:
                yield order[:limit]
                return
            yield order

    def components(self) -> tuple[tuple[str, ...], ...]:
        """Connected components, each sorted, listed by their smallest vertex."""
        return tuple(tuple(sorted(c)) for c in self.bfs_components())

    @cached_property
    def twin_classes(self) -> tuple[tuple[str, ...], ...]:
        """Twin classes of two or more vertices, each sorted, listed by their
        smallest vertex.

        Vertices are open twins when N(u) = N(v) and closed twins when
        N[u] = N[v]; swapping two twins of either sort is an automorphism.
        Each relation is an equivalence, and no vertex has both an open
        twin ``v`` and a closed twin ``w``: ``w`` would lie in N(u) = N(v),
        so ``v`` would lie in N[w] = N[u] and hence in N(u) = N(v).  So the
        classes returned are disjoint.
        """
        adj = self.adjacency
        classes: dict[tuple[bool, tuple[str, ...]], list[str]] = {}
        for v in self.vertices:
            classes.setdefault((False, adj[v]), []).append(v)
            classes.setdefault((True, tuple(sorted(adj[v] + (v,)))), []).append(v)
        return tuple(sorted(tuple(c) for c in classes.values() if len(c) > 1))

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def induced(self, vs: Iterable[str]) -> "Graph":
        keep = set(vs)
        unknown = keep - set(self.vertices)
        if unknown:
            raise GraphError(f"unknown vertices {sorted(unknown)!r}")
        return Graph.build(keep, [e for e in self.edges if e[0] in keep and e[1] in keep])
