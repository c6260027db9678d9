"""Solver dispatch: request/report types, component splitting, dump files."""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable

from .bounds import edge_count_bound
from .cutset import CutsetReport, solve_bounded_width_report, state_line
from .fileformats import layout_to_dict
from .graphs import Graph
from .kernel import (
    build_reduced_graph,
    compute_vertex_integrity,
    find_guiding_sublayout,
    lift_layout,
    oracle_solver,
)
from .layouts import LayoutKind, LinearLayout, validate_layout
from .oracle import DEFAULT_GUARD, OracleQuery, OracleSizeError, solve_exhaustive
from .queue_one import (
    DEFAULT_EDGE_GUARD,
    BranchGuardError,
    BranchResult,
    solve_queue_one_page_report,
)

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

# what each solver returns: its layout (checked by the code that built it),
# its counters and, without a layout, the stage that decided
_Solved = tuple[LinearLayout | None, dict[str, int], str]


def _solve_components(
    req: SolveRequest, solve: Callable[[Graph], CutsetReport | BranchResult]
) -> tuple[LinearLayout | None, CutsetReport | BranchResult | None]:
    """Lay out each component with ``solve`` and concatenate the layouts.

    Stops at the first component with no layout and returns None with
    that component's report; the report is None when every component
    has a layout.  A single component's layout is returned as its solver
    returned (and checked) it.  A concatenation of two or more is the
    one layout built here, so it is checked here, once.  Each component
    fills one block of the spine, so edges of different components can
    neither cross nor nest, and every gap's width is one component's
    width: the solvers' own checks already bound it.
    """
    layouts = []
    for comp in req.graph.components():
        rep = solve(req.graph.induced(comp))
        if rep.layout is None:
            return None, rep
        layouts.append(rep.layout)
    if len(layouts) == 1:
        return layouts[0], None
    spine = tuple(v for layout in layouts for v in layout.spine)
    page_map = {e: p for layout in layouts for e, p in layout.pages.items()}
    layout = LinearLayout(req.kind, req.pages, spine, page_map)
    report = validate_layout(req.graph, layout)
    assert report.ok, f"concatenated layout is invalid: {report.violations!r}"
    return layout, None


def _solve_oracle(req: SolveRequest) -> _Solved:
    query = OracleQuery(req.graph, req.kind, req.pages, req.width)
    layout = solve_exhaustive(query, guard=req.oracle_guard)
    return layout, {}, "" if layout is not None else "exhaustive search: no layout"


def _solve_cutset(req: SolveRequest) -> _Solved:
    width = req.width if req.width is not None else max(req.graph.m, 1)
    counters = {"states": 0, "arcs": 0}
    dump_lines: list[str] = []

    def solve(sub: Graph) -> CutsetReport:
        rep = solve_bounded_width_report(sub, req.kind, req.pages, width)
        counters["states"] += rep.states_seen
        counters["arcs"] += rep.arcs_seen
        if req.dump_states is not None:
            dump_lines.extend(map(state_line, rep.states))
        return rep

    layout, failed = _solve_components(req, solve)
    if req.dump_states is not None:
        _atomic_write(req.dump_states, "\n".join(dump_lines) + "\n")
    if failed is None:
        return layout, counters, ""
    if failed.bound_rejected:
        return None, counters, _BOUND_DETAIL
    return None, counters, f"exhaustive search: no path after {failed.states_seen} states"


def _solve_queue1(req: SolveRequest) -> _Solved:
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


def _solve_kernel(req: SolveRequest) -> _Solved:
    """Kernelize, solve the kernel, lift; fall back to solving g directly
    when the guided lift is unavailable.  The verdict always equals the
    inner solver's verdict on g, and ``detail`` says which graph had no
    layout."""
    g = req.graph
    counters: dict[str, int] = {}
    dec = compute_vertex_integrity(g)
    assert dec is not None
    counters["vi"] = dec.p
    cert = build_reduced_graph(g, dec, req.threshold)
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

    if not cert.covers_whole_graph(g):
        kernel_layout = inner(cert.graph, req.kind, req.pages)
        if kernel_layout is None:  # an induced subgraph with no layout settles g
            return None, counters, f"no layout of the reduced graph on {cert.graph.n} vertices"
        guide = find_guiding_sublayout(kernel_layout, cert)
        counters["lifted"] = int(guide is not None)
        if guide is not None:
            return lift_layout(guide, cert, g), counters, ""
    layout = inner(g, req.kind, req.pages)
    return layout, counters, "" if layout is not None else "no layout of the whole graph"


_SOLVERS: dict[str, Callable[[SolveRequest], _Solved]] = {
    "oracle": _solve_oracle,
    "cutset": _solve_cutset,
    "queue1": _solve_queue1,
    "kernel": _solve_kernel,
}
ALGORITHMS = tuple(_SOLVERS)


def run(req: SolveRequest) -> RunReport:
    """Run the request's solver.  Every layout it returns was checked by
    the code that built it; a size or branch guard becomes a refusal."""
    params: dict[str, object] = {
        "algorithm": req.algorithm,
        "kind": req.kind.value,
        "pages": req.pages,
        "width": req.width,
        "n": req.graph.n,
        "m": req.graph.m,
    }
    t0 = time.perf_counter()
    try:
        layout, counters, detail = _SOLVERS[req.algorithm](req)
        verdict = "found" if layout is not None else "infeasible"
    except (OracleSizeError, BranchGuardError) as exc:
        layout, counters, detail, verdict = None, {}, str(exc), "refused"
    timings = {"solve": (time.perf_counter() - t0) * 1000}
    return RunReport(verdict, layout, timings, counters, params, detail=detail)


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
