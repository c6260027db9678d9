"""Shared pieces of the benchmark: importing linlay, request specs, answer checks.

A request spec is a JSON object stored in ``perfbench/pool/<workload>.json``:

    {"op": "solve" | "count", "algo": "oracle" | "cutset" | "queue1" | "kernel",
     "graph": {"gen": "random_gnm" | "twin_gadget", "args": [...]},
     "kind": "stack" | "queue", "pages": int, "width": int | null,
     "threshold": int | null, "inner": "oracle" | "cutset", "oracle_guard": int,
     "ref": {"verdict": ..., "source": ..., "witness"?: ..., "count"?: ...},
     "counters": {...}, "cost_ms": float}

``ref`` is the reference answer, ``counters`` the deterministic work
counters recorded when the pool was built, and ``cost_ms`` the time the
request took then, scaled to the host-speed reference below; it only
decides which candidates share a cost slot.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
POOL_DIR = HERE / "pool"
MODULES = (
    "bounds", "cli", "cutset", "fileformats", "generators", "graphs",
    "kernel", "layouts", "levelplan", "oracle", "queue_one", "runner",
)


# The host-speed reference.  On a shared host the speed of a core drifts by
# a quarter or more from one minute to the next, so a request's time alone
# says as much about the neighbours as about linlay.  The benchmark times a
# fixed pure-Python search that is not linlay code (the 92 placements of
# eight queens) before and after every request, and scales the request's
# time by REF_S over the mean of the two: times then read as on a host where
# the reference search takes REF_S seconds.
REF_S = 0.0025


def _queens(n: int) -> int:
    cols: set = set()
    up: set = set()
    down: set = set()

    def place(row: int) -> int:
        if row == n:
            return 1
        found = 0
        for col in range(n):
            if col in cols or row + col in up or row - col in down:
                continue
            cols.add(col)
            up.add(row + col)
            down.add(row - col)
            found += place(row + 1)
            cols.discard(col)
            up.discard(row + col)
            down.discard(row - col)
        return found

    return place(0)


def reference_s() -> float:
    """Seconds the reference search takes now."""
    t0 = time.perf_counter()
    found = _queens(8)
    t = time.perf_counter() - t0
    if found != 92:
        raise RuntimeError(f"reference search found {found} placements, not 92")
    return t


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` as on a host where the reference search takes REF_S."""
    return seconds * 2 * REF_S / (ref_before + ref_after)


class SetupError(RuntimeError):
    """The checkout does not hold what the benchmark needs."""


def import_linlay(fresh: bool = False) -> dict:
    """The linlay modules of this checkout's ``src``, by short name.

    With ``fresh`` every linlay module is dropped from ``sys.modules``
    first, so the import is paid again (set-up time includes it).
    """
    src = ROOT / "src"
    if not (src / "linlay" / "__init__.py").is_file():
        raise SetupError(f"no linlay package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    if fresh:
        for name in [n for n in sys.modules if n == "linlay" or n.startswith("linlay.")]:
            del sys.modules[name]
    mods = {name: importlib.import_module(f"linlay.{name}") for name in MODULES}
    origin = Path(mods["runner"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SetupError(f"linlay was imported from {origin}, not from {src}")
    return mods


def load_pool(workload: str) -> dict:
    path = POOL_DIR / f"{workload}.json"
    if not path.is_file():
        raise SetupError(f"missing pool file {path}")
    with open(path) as fh:
        return json.load(fh)


def make_graph(mods: dict, spec: dict):
    gen = spec["gen"]
    if gen == "random_gnm":
        return mods["generators"].random_gnm(*spec["args"])
    if gen == "twin_gadget":
        return mods["generators"].twin_gadget(*spec["args"])
    raise SetupError(f"unknown graph generator {gen!r}")


def make_call(mods: dict, req: dict, g):
    """A zero-argument callable that issues the request through the public API."""
    kind = mods["layouts"].LayoutKind(req["kind"])
    if req["op"] == "count":
        query = mods["oracle"].OracleQuery(g, kind, req["pages"], req["width"])
        count_all = mods["oracle"].solve_exhaustive_all
        return lambda: count_all(query, guard=req["oracle_guard"])
    solve_request = mods["runner"].SolveRequest(
        graph=g,
        algorithm=req["algo"],
        kind=kind,
        pages=req["pages"],
        width=req["width"],
        inner=req["inner"],
        threshold=req["threshold"],
        oracle_guard=req["oracle_guard"],
    )
    run = mods["runner"].run
    return lambda: run(solve_request)


def cli_argv(req: dict, graph_path: str) -> list[str]:
    """``linlay solve`` arguments equivalent to a solve request."""
    argv = ["solve", graph_path, "--algo", req["algo"], "--kind", req["kind"],
            "--pages", str(req["pages"]), "--inner", req["inner"],
            "--guard", str(req["oracle_guard"])]
    if req["width"] is not None:
        argv += ["--width", str(req["width"])]
    if req["threshold"] is not None:
        argv += ["--threshold", str(req["threshold"])]
    return argv


def witness_of(layout) -> dict:
    return {
        "spine": list(layout.spine),
        "pages": sorted([u, v, p] for (u, v), p in layout.pages.items()),
    }


def check_answer(mods: dict, req: dict, g, out) -> str | None:
    """None if ``out`` answers ``req`` correctly, else the reason it does not.

    Solve answers must carry the reference verdict; a found layout must
    pass ``validate_layout`` and the width and page limits, and match the
    stored lexicographically first witness where one is recorded.  Count
    answers must equal the stored count exactly.
    """
    ref = req["ref"]
    if req["op"] == "count":
        return None if out == ref["count"] else f"count {out!r}, expected {ref['count']}"
    if out.verdict != ref["verdict"]:
        return f"verdict {out.verdict!r}, expected {ref['verdict']!r} ({out.detail})"
    if out.verdict != "found":
        return None
    layout = out.layout
    layouts = mods["layouts"]
    if layout.kind.value != req["kind"] or layout.page_count != req["pages"]:
        return "witness has the wrong kind or page count"
    try:
        report = layouts.validate_layout(g, layout)
    except layouts.LayoutDomainError as exc:
        return f"witness does not fit the graph: {exc}"
    if not report.ok:
        return f"witness is invalid: {report.violations[:3]!r}"
    if req["width"] is not None and layouts.page_width(layout) > req["width"]:
        return "witness exceeds the page width"
    if "witness" in ref and witness_of(layout) != ref["witness"]:
        return "witness differs from the lexicographically first one"
    return None
