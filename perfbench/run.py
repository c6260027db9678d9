"""The linlay benchmark: time to a correct verdict, per workload, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up imports linlay from ``src`` of this checkout, loads the workload's
request pool (``perfbench/pool/NAME.json``, written by ``build_pool.py``),
picks one request per slot from the seed, generates the graphs and writes
the graph file of the CLI request.  Set-up runs several times and its
median is reported.

One caller in one thread then sends the requests in order, each after the
previous one returned, pass after pass until ``--seconds`` are used up.
Every request is one ``runner.run()`` call, except count queries, which
call ``oracle.solve_exhaustive_all()``; each gets a fresh ``Graph`` copy so
no cached adjacency carries over between passes.  One more request per
pass goes through ``linlay.cli.main(["solve", ...])`` from the graph file.
Answers are checked outside the timed region against the pool's reference
answers (see ``common.check_answer``), and the work counters of every
request must repeat exactly from pass to pass.

Every timed request and every set-up sits between two runs of the
host-speed reference of ``common.reference_s``, and its time is scaled by
``common.REF_S`` over their mean, so the reported times read as on a host
of fixed speed; the summary line gives the reference's own median and the
unscaled ``verdicts_per_s``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends the
first half of the time untraced and the second half with the span
recorder of ``spans.py`` installed, then prints the per-layer metrics,
including ``trace.overhead_frac``, and writes all spans to
``perfbench/out/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

from common import (HERE, REF_S, SetupError, check_answer, cli_argv, import_linlay,
                    load_pool, make_call, make_graph, reference_s, scaled)
from spans import VALIDATE_CALLERS, Recorder, summarize

WORKLOADS = ("oracle-exhaust", "queue1-gnm", "kernel-lift")
SETUP_REPEATS = 9
OUT_DIR = HERE / "out"
COUNTER_METRICS = {
    "states": "cutset.states",
    "arcs": "cutset.arcs",
    "branches": "queue_one.branches",
    "vi": "kernel.vi",
    "kernel_vertices": "kernel.kernel_vertices",
    "kernel_groups": "kernel.groups",
    "lifted": "kernel.lifted",
}


@dataclass
class Workload:
    mods: dict
    requests: list  # (request spec, Graph)
    cli_request: dict
    cli_path: str
    kernel_ids: set = field(default_factory=set)


def setup(name: str, seed: int) -> Workload:
    mods = import_linlay(fresh=True)
    pool = load_pool(name)
    rng = random.Random(f"{name}:{seed}")
    chosen = [slot[rng.randrange(len(slot))] for slot in pool["slots"]]
    requests = [(req, make_graph(mods, req["graph"])) for req in chosen]
    cli_req, cli_graph = requests[pool["cli_slot"]]
    OUT_DIR.mkdir(exist_ok=True)
    cli_path = OUT_DIR / f"{name}-{seed}.graph"
    cli_path.write_text(mods["fileformats"].serialize_graph(cli_graph))
    ids = [i for i, (req, _) in enumerate(requests) if req["algo"] == "kernel"]
    if cli_req["algo"] == "kernel":
        ids.append(len(requests))
    return Workload(mods, requests, cli_req, str(cli_path), set(ids))


@dataclass
class Tally:
    times: list  # per request: seconds scaled to the reference, one per pass
    raw: list  # per request: unscaled seconds, one per pass
    refs: list = field(default_factory=list)  # reference search times, seconds
    counters: list = field(default_factory=list)  # per request: counters of the first pass
    pass_wall: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)


def one_pass(w: Workload, tally: Tally, rec: Recorder | None) -> None:
    Graph = w.mods["graphs"].Graph
    first = not tally.counters
    t_pass = time.perf_counter()
    ref = reference_s()
    tally.refs.append(ref)
    for i, (req, g) in enumerate(w.requests):
        fresh = Graph(g.vertices, g.edges)
        call = make_call(w.mods, req, fresh)
        if rec is not None:
            rec.request = i
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # a raising request is a failed request
            t1 = time.perf_counter()
            out, problem = None, f"raised {type(exc).__name__}: {exc}"
        else:
            t1 = time.perf_counter()
            problem = None
        ref_after = reference_s()
        tally.refs.append(ref_after)
        tally.raw[i].append(t1 - t0)
        tally.times[i].append(scaled(t1 - t0, ref, ref_after))
        ref = ref_after
        if out is not None:
            problem = check_answer(w.mods, req, fresh, out)
        counters = dict(out.counters) if req["op"] == "solve" and out is not None else {}
        if first:
            tally.counters.append(counters)
        elif problem is None and counters != tally.counters[i]:
            problem = f"work counters changed between passes: {counters} != {tally.counters[i]}"
        if problem is not None:
            tally.failures.append(f"request {i} ({req['graph']}): {problem}")

    if rec is not None:
        rec.request = len(w.requests)
    tally.attempted += 1
    expected = 0 if w.cli_request["ref"]["verdict"] == "found" else 1
    argv = cli_argv(w.cli_request, w.cli_path)
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = w.mods["cli"].main(argv)
    except Exception as exc:
        code = f"raised {type(exc).__name__}: {exc}"
    if code != expected:
        tally.failures.append(f"cli {' '.join(argv)}: exit {code}, expected {expected}")
    tally.pass_wall.append(time.perf_counter() - t_pass)


def run_passes(w: Workload, tally: Tally, until: float, rec: Recorder | None) -> list:
    """Passes until the next one would overrun ``until``; span index ranges per pass."""
    ranges = []
    while True:
        gc.collect()
        start = len(rec.spans) if rec is not None else 0
        one_pass(w, tally, rec)
        ranges.append((start, len(rec.spans) if rec is not None else 0))
        if time.perf_counter() + statistics.median(tally.pass_wall[-3:]) > until:
            return ranges


def tail(samples: list) -> tuple[int, float]:
    """(percentile, value): the highest whole percentile with ten samples beyond it."""
    ordered = sorted(samples)
    pct = min(99, max(50, 100 * (len(ordered) - 10) // len(ordered)))
    return pct, ordered[-(-pct * len(ordered) // 100) - 1]


def end_to_end(tally: Tally, setup_s: float) -> tuple[dict, str]:
    medians = [statistics.median(ts) for ts in tally.times]
    samples = [t * 1000 for ts in tally.times for t in ts]
    pct, tail_ms = tail(samples)
    metrics = {
        "verdicts_per_s": (len(medians) / sum(medians), "1/s"),
        "verdict_ms_p50": (statistics.median(samples), "ms"),
        "verdict_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    raw_per_s = len(medians) / sum(statistics.median(ts) for ts in tally.raw)
    note = (f"verdict_ms_tail is p{pct} of {len(samples)} samples; times scaled to a "
            f"{REF_S * 1000:g} ms reference search, which took a median "
            f"{statistics.median(tally.refs) * 1000:.3f} ms here "
            f"(unscaled verdicts_per_s {raw_per_s:.4g})")
    return metrics, note


def per_layer(w: Workload, rec: Recorder, ranges: list, traced: Tally, untraced: Tally) -> dict:
    passes = [summarize(rec.spans, a, b, w.kernel_ids) for a, b in ranges]

    def med(name: str, stat: str) -> float:
        return statistics.median(p[name][stat] if name in p else 0 for p in passes)

    metrics = {}
    for name in ("oracle.solve_exhaustive", "oracle.solve_exhaustive_all",
                 "queue_one.level_assignment_from_labeling",
                 "queue_one.reduce_to_level_planarity", "levelplan.find_level_embedding",
                 "cutset.solve_bounded_width_report", "bounds.edge_count_bound",
                 *(f"layouts.validate_layout.{c}" for c in VALIDATE_CALLERS)):
        metrics[f"{name}.calls"] = (med(name, "calls"), "count")
    for name in ("oracle.solve_exhaustive", "oracle.solve_exhaustive_all",
                 "queue_one.solve_queue_one_page_report",
                 "queue_one.level_assignment_from_labeling",
                 "queue_one.reduce_to_level_planarity", "queue_one.branch_side_filter",
                 "queue_one.embedding_to_queue_layout", "levelplan.find_level_embedding",
                 "cutset.solve_bounded_width_report", "kernel.compute_vertex_integrity",
                 "kernel.build_reduced_graph", "kernel.twin_partition",
                 "kernel.find_guiding_sublayout", "kernel.lift_layout", "kernel.inner_solve",
                 *(f"layouts.validate_layout.{c}" for c in VALIDATE_CALLERS),
                 "graphs.Graph.components", "graphs.Graph.induced", "cli.main"):
        metrics[f"{name}.ms"] = (med(name, "ms"), "ms")
    for name in ("queue_one.solve_queue_one_page_report", "runner.run"):
        metrics[f"{name}.self_ms"] = (med(name, "self_ms"), "ms")
    metrics["queue_one.reduce_to_level_planarity.rejects"] = (
        med("queue_one.reduce_to_level_planarity", "flagged"), "count")
    metrics["bounds.edge_count_bound.rejects"] = (med("bounds.edge_count_bound", "flagged"),
                                                  "count")
    embeds = med("levelplan.find_level_embedding", "calls")
    metrics["levelplan.accept_ratio"] = (
        med("levelplan.find_level_embedding", "flagged") / embeds if embeds else 0.0, "ratio")

    totals = {key: 0 for key in COUNTER_METRICS}
    for counters in traced.counters:
        for key in totals:
            totals[key] += counters.get(key, 0)
    for key, metric in COUNTER_METRICS.items():
        metrics[metric] = (totals[key], "count")
    states = totals["states"]
    metrics["cutset.us_per_state"] = (
        med("cutset.solve_bounded_width_report", "ms") * 1000 / states if states else 0.0, "us")
    changed = sum(c != req["counters"] for c, (req, _) in zip(traced.counters, w.requests))
    metrics["counters.changed_vs_pool"] = (changed, "count")

    def verdict_s(t: Tally) -> float:
        return sum(statistics.median(ts) for ts in t.times)

    metrics["trace.overhead_frac"] = (verdict_s(traced) / verdict_s(untraced) - 1, "ratio")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="linlay benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=44.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    setup_times = []
    try:
        for _ in range(SETUP_REPEATS):
            ref = reference_s()
            t0 = time.perf_counter()
            w = setup(args.workload, args.seed)
            setup_times.append(scaled(time.perf_counter() - t0, ref, reference_s()))
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    setup_s = statistics.median(setup_times)

    start = time.perf_counter()
    n = len(w.requests)
    tally = Tally([[] for _ in range(n)], [[] for _ in range(n)])
    lines = [f"workload {args.workload}, seed {args.seed}: {n} requests and 1 CLI request "
             "per pass, closed loop, one caller"]
    if args.trace == 0:
        run_passes(w, tally, start + args.seconds, None)
        metrics, note = end_to_end(tally, setup_s)
        tallies = [tally]
        lines.append(note)
    else:
        run_passes(w, tally, start + args.seconds / 2, None)
        traced = Tally([[] for _ in range(n)], [[] for _ in range(n)])
        rec = Recorder()
        rec.install(w.mods)
        try:
            ranges = run_passes(w, traced, start + args.seconds, rec)
        finally:
            rec.uninstall()
        if traced.counters != tally.counters:
            traced.failures.append("work counters differ between the untraced and traced passes")
        metrics = per_layer(w, rec, ranges, traced, tally)
        rec.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.tsv.gz")
        tallies = [tally, traced]
        lines.append(f"{len(rec.spans)} spans written to perfbench/out/")

    attempted = sum(t.attempted for t in tallies)
    failures = [f for t in tallies for f in t.failures]
    passes = sum(len(t.pass_wall) for t in tallies)
    lines.append(f"{passes} passes, {attempted} requests attempted, {len(failures)} failed, "
                 f"failed_frac {len(failures) / attempted:g}")
    lines += [f"  {name:48s} {value:14.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines += [f"  FAILED {f}" for f in failures[:20]]
    print("\n".join(lines))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
