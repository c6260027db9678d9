"""Solver dispatch: request/report types, component splitting, dump files."""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable

from .bounds import edge_count_bound
from .cutset import CutsetReport, solve_bounded_width_report
from .fileformats import layout_to_dict
from .graphs import Graph
from .kernel import (
    build_reduced_graph,
    compute_vertex_integrity,
    find_guiding_sublayout,
    lift_layout,
    oracle_solver,
)
from .layouts import LayoutKind, LinearLayout, page_width, validate_layout
from .oracle import DEFAULT_GUARD, OracleQuery, OracleSizeError, solve_exhaustive
from .queue_one import (
    DEFAULT_EDGE_GUARD,
    BranchGuardError,
    BranchResult,
    solve_queue_one_page_report,
)

ALGORITHMS = ("oracle", "cutset", "queue1", "kernel")


class RequestError(ValueError):
    pass


@dataclass(frozen=True)
class SolveRequest:
    graph: Graph
    algorithm: str
    kind: LayoutKind
    pages: int
    width: int | None = None
    inner: str = "oracle"
    threshold: int | None = None
    oracle_guard: int = DEFAULT_GUARD
    edge_guard: int = DEFAULT_EDGE_GUARD
    dump_states: str | None = None
    dump_branch: str | None = None

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise RequestError(f"unknown algorithm {self.algorithm!r}")
        if self.pages < 1:
            raise RequestError("pages must be at least 1")
        if self.width is not None and self.width < 0:
            raise RequestError("width must be nonnegative")
        if self.width is not None and self.algorithm in ("queue1", "kernel"):
            raise RequestError(f"{self.algorithm} does not bound the page width")
        if self.algorithm == "queue1" and (
            self.kind is not LayoutKind.QUEUE or self.pages != 1
        ):
            raise RequestError("queue1 solves exactly 1-page queue instances")
        if self.inner not in ("oracle", "cutset"):
            raise RequestError(f"unknown inner solver {self.inner!r}")
        if self.threshold is not None and self.threshold < 0:
            raise RequestError("threshold must be nonnegative")
        if self.oracle_guard < 0 or self.edge_guard < 0:
            raise RequestError("guards must be nonnegative")
        if self.dump_states is not None and self.algorithm != "cutset":
            raise RequestError("only cutset dumps its states")
        if self.dump_branch is not None and self.algorithm != "queue1":
            raise RequestError("only queue1 dumps its branch")


@dataclass
class RunReport:
    verdict: str  # found | infeasible | refused
    layout: LinearLayout | None
    timings_ms: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    params: dict[str, object] = field(default_factory=dict)
    detail: str = ""

    @property
    def exit_code(self) -> int:
        return {"found": 0, "infeasible": 1, "refused": 2}[self.verdict]


_BOUND_DETAIL = "rejected by the edge-count bound"


def _solve_components(
    req: SolveRequest, solve: Callable[[Graph], CutsetReport | BranchResult]
) -> tuple[LinearLayout | None, CutsetReport | BranchResult | None]:
    """Lay out each component with ``solve`` and concatenate the layouts.

    Stops at the first component with no layout and returns None with
    that component's report; the report is None when every component
    has a layout.
    """
    spine: list[str] = []
    page_map = {}
    for comp in req.graph.components():
        rep = solve(req.graph.induced(comp))
        if rep.layout is None:
            return None, rep
        spine.extend(rep.layout.spine)
        page_map.update(rep.layout.pages)
    return LinearLayout(req.kind, req.pages, tuple(spine), page_map), None


def _solve_cutset(req: SolveRequest) -> tuple[LinearLayout | None, dict[str, int], str]:
    width = req.width if req.width is not None else max(req.graph.m, 1)
    counters = {"states": 0, "arcs": 0}
    dump_lines: list[str] = []

    def solve(sub: Graph) -> CutsetReport:
        rep = solve_bounded_width_report(
            sub, req.kind, req.pages, width, collect_states=req.dump_states is not None
        )
        counters["states"] += rep.states_seen
        counters["arcs"] += rep.arcs_seen
        for s in rep.dumped_states:
            edge_txt = ",".join(f"{u}-{w}" for u, w in s.cut.edges) or "-"
            order_txt = "<".join(s.cut.order) or "-"
            pages_txt = ",".join(map(str, s.page_of)) or "-"
            dump_lines.append(f"{edge_txt} | {order_txt} | {pages_txt}")
        return rep

    layout, failed = _solve_components(req, solve)
    if req.dump_states is not None:
        _atomic_write(req.dump_states, "\n".join(dump_lines) + "\n")
    if failed is None:
        return layout, counters, ""
    if failed.bound_rejected:
        return None, counters, _BOUND_DETAIL
    return None, counters, f"exhaustive search: no path after {failed.states_seen} states"


def _solve_queue1(req: SolveRequest) -> tuple[LinearLayout | None, dict[str, int], str]:
    if not edge_count_bound(req.graph, req.kind, req.pages):
        return None, {}, _BOUND_DETAIL
    counters = {"branches": 0}
    labeling: list[dict[str, object]] = []
    levels: dict[str, int] = {}

    def solve(sub: Graph) -> BranchResult:
        branch = solve_queue_one_page_report(sub, edge_guard=req.edge_guard)
        counters["branches"] += branch.branches_tried
        if branch.labeling is not None:
            labeling.extend(
                {"arc": list(arc), "tag": tag.value} for arc, tag in branch.labeling.items()
            )
            levels.update(branch.levels.levels)
        return branch

    layout, failed = _solve_components(req, solve)
    if failed is not None:
        if failed.bound_rejected:
            return None, counters, _BOUND_DETAIL
        return None, counters, f"all {failed.branches_tried} labeling branches rejected"
    if req.dump_branch is not None:
        payload = {"labeling": labeling, "levels": levels}
        _atomic_write(req.dump_branch, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return layout, counters, ""


def _solve_kernel(req: SolveRequest) -> tuple[LinearLayout | None, dict[str, int]]:
    """Kernelize, solve the kernel, lift; fall back to solving g directly
    when the guided lift is unavailable.  The verdict always equals the
    inner solver's verdict on g."""
    g = req.graph
    counters: dict[str, int] = {}
    dec = compute_vertex_integrity(g)
    assert dec is not None
    counters["vi"] = dec.p
    cert = build_reduced_graph(g, dec, req.pages, req.threshold)
    counters["kernel_vertices"] = cert.graph.n
    counters["kernel_groups"] = cert.group_count

    if req.inner == "oracle":
        inner = oracle_solver(guard=req.oracle_guard)
    else:
        def inner(h: Graph, kind: LayoutKind, pages: int) -> LinearLayout | None:
            layout, sub_counters, _ = _solve_cutset(SolveRequest(h, "cutset", kind, pages))
            for key, value in sub_counters.items():
                counters[key] = counters.get(key, 0) + value
            return layout

    if cert.covers_whole_graph(g):
        return inner(g, req.kind, req.pages), counters
    kernel_layout = inner(cert.graph, req.kind, req.pages)
    if kernel_layout is None:
        return None, counters  # an induced subgraph with no layout settles g
    guide = None
    if cert.group_count >= 5:
        guide = find_guiding_sublayout(kernel_layout, cert)
    if guide is not None:
        counters["lifted"] = 1
        return lift_layout(guide, cert, g), counters
    counters["lifted"] = 0
    return inner(g, req.kind, req.pages), counters


def run(req: SolveRequest) -> RunReport:
    g = req.graph
    params: dict[str, object] = {
        "algorithm": req.algorithm,
        "kind": req.kind.value,
        "pages": req.pages,
        "width": req.width,
        "n": g.n,
        "m": g.m,
    }
    counters: dict[str, int] = {}
    detail = ""
    t0 = time.perf_counter()
    try:
        if req.algorithm == "oracle":
            layout = solve_exhaustive(
                OracleQuery(g, req.kind, req.pages, req.width), guard=req.oracle_guard
            )
            if layout is None:
                detail = "exhaustive search: no layout"
        elif req.algorithm == "kernel":
            layout, counters = _solve_kernel(req)
        else:
            solve = _solve_cutset if req.algorithm == "cutset" else _solve_queue1
            layout, counters, detail = solve(req)
    except (OracleSizeError, BranchGuardError) as exc:
        return RunReport(
            "refused",
            None,
            {"solve": (time.perf_counter() - t0) * 1000},
            counters,
            params,
            detail=str(exc),
        )
    solve_ms = (time.perf_counter() - t0) * 1000

    t1 = time.perf_counter()
    if layout is not None:
        if not counters.get("lifted"):  # lift_layout validates what it lifts
            report = validate_layout(g, layout)
            assert report.ok, f"solver returned an invalid layout: {report.violations!r}"
        if req.width is not None:
            assert page_width(layout) <= req.width
    validate_ms = (time.perf_counter() - t1) * 1000

    return RunReport(
        "found" if layout is not None else "infeasible",
        layout,
        {"solve": solve_ms, "validate": validate_ms},
        counters,
        params,
        detail=detail,
    )


def _atomic_write(path: str, data: str) -> None:
    """Write ``data`` to ``path`` through ``<path>.tmp``.  On failure the
    temporary file, if this call made it, is removed, and the error names
    ``path``."""
    tmp = f"{path}.tmp"
    made = False
    try:
        with open(tmp, "w") as fh:
            made = True
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        if made:
            os.remove(tmp)
        raise OSError(exc.errno, exc.strerror, path) from None


def report_to_dict(report: RunReport) -> dict:
    return {
        "verdict": report.verdict,
        "exit_code": report.exit_code,
        "layout": layout_to_dict(report.layout) if report.layout else None,
        "timings_ms": {k: round(v, 3) for k, v in report.timings_ms.items()},
        "counters": report.counters,
        "params": report.params,
        "detail": report.detail,
    }
