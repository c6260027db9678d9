"""Span recorder for the traced run, installed from outside the package.

Each public function the benchmark reports on is rebound, in the namespace
of the module that calls it, to a wrapper that records a span: name,
start, end, parent span and request id.  Spans stay in memory until the
run writes them out.  Per-pair hot helpers (``Graph.neighbors``, the
conflict tests) are left alone: their call counts would turn the trace
into a measurement of the wrapper.
"""

from __future__ import annotations

import gzip
import time
from collections import defaultdict

VALIDATE_CALLERS = ("runner", "oracle", "cutset", "queue_one", "kernel")

# (module whose namespace is rebound, attribute, span name, flag on the result)
TARGETS = (
    ("runner", "solve_exhaustive", "oracle.solve_exhaustive", None),
    ("kernel", "solve_exhaustive", "oracle.solve_exhaustive", None),
    ("oracle", "solve_exhaustive_all", "oracle.solve_exhaustive_all", None),
    ("runner", "solve_queue_one_page_report", "queue_one.solve_queue_one_page_report", None),
    ("queue_one", "level_assignment_from_labeling",
     "queue_one.level_assignment_from_labeling", None),
    ("queue_one", "reduce_to_level_planarity", "queue_one.reduce_to_level_planarity",
     lambda r: r is None),
    ("queue_one", "branch_side_filter", "queue_one.branch_side_filter", None),
    ("queue_one", "find_level_embedding", "levelplan.find_level_embedding",
     lambda r: r is not None),
    ("queue_one", "embedding_to_queue_layout", "queue_one.embedding_to_queue_layout", None),
    ("runner", "solve_bounded_width_report", "cutset.solve_bounded_width_report", None),
    ("runner", "compute_vertex_integrity", "kernel.compute_vertex_integrity", None),
    ("runner", "build_reduced_graph", "kernel.build_reduced_graph", None),
    ("kernel", "twin_partition", "kernel.twin_partition", None),
    ("runner", "find_guiding_sublayout", "kernel.find_guiding_sublayout", None),
    ("runner", "lift_layout", "kernel.lift_layout", None),
    *(
        (caller, "edge_count_bound", "bounds.edge_count_bound", lambda r: not r)
        for caller in ("runner", "cutset", "queue_one")
    ),
    *(
        (caller, "validate_layout", f"layouts.validate_layout.{caller}", None)
        for caller in VALIDATE_CALLERS
    ),
    ("runner", "run", "runner.run", None),
    ("cli", "run", "runner.run", None),
    ("cli", "main", "cli.main", None),
)


class Recorder:
    """Records spans of wrapped calls; ``request`` tags the spans that follow."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, request id, flag]
        self.spans: list[list] = []
        self.request = -1
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, flag=None):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.request, None]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            if flag is not None:
                span[5] = flag(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, mods: dict) -> None:
        for module, attr, name, flag in TARGETS:
            self._patch(mods[module], attr, self.wrap(getattr(mods[module], attr), name, flag))
        graph_cls = mods["graphs"].Graph
        for attr in ("components", "induced"):
            self._patch(graph_cls, attr,
                        self.wrap(graph_cls.__dict__[attr], f"graphs.Graph.{attr}"))
        # the kernel's inner solver is a closure made by oracle_solver
        make_inner = mods["runner"].oracle_solver
        self._patch(mods["runner"], "oracle_solver",
                    lambda *a, **kw: self.wrap(make_inner(*a, **kw), "kernel.inner_solve"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """All spans as tab-separated lines: name, start, end, parent, request, flag."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_s\tend_s\tparent\trequest\tflag\n")
            fh.writelines(
                f"{s[0]}\t{s[1]:.9f}\t{s[2]:.9f}\t{s[3]}\t{s[4]}\t{s[5]}\n" for s in self.spans
            )


def summarize(spans: list[list], start: int, stop: int,
              kernel_requests: set[int]) -> dict[str, dict[str, float]]:
    """Per span name: calls, ms, self_ms and flagged calls, over ``spans[start:stop]``.

    Self time is a span's duration minus the time its child spans cover;
    calls run on one thread, so children never overlap.  Time spent in the
    cutset solver inside a kernel request is also counted as that
    request's inner solve.
    """
    child_s = defaultdict(float)
    for s in spans[start:stop]:
        if s[3] >= 0:
            child_s[s[3]] += s[2] - s[1]
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0, "flagged": 0}
    )
    for i in range(start, stop):
        name, t0, t1, _, request, flag = spans[i]
        names = [name]
        if name == "cutset.solve_bounded_width_report" and request in kernel_requests:
            names.append("kernel.inner_solve")
        for key in names:
            agg = out[key]
            agg["calls"] += 1
            agg["ms"] += (t1 - t0) * 1000
            agg["self_ms"] += (t1 - t0 - child_s.get(i, 0.0)) * 1000
            agg["flagged"] += bool(flag)
    return out
