"""Build the request pools and reference answers of the benchmark workloads.

    python3 perfbench/build_pool.py [--workload NAME ...]

For each workload this writes ``perfbench/pool/<workload>.json``: a list of
slots, each a list of candidate requests with their reference answers and
work counters.  A benchmark run picks one candidate per slot from its seed,
so every seed runs the same mix of request types and cost levels; two
seeds share the instance of about half the slots.

Each slot holds candidates of one request type and one cost level: a
narrow range of gadget sizes (kernel-lift), or the candidates whose time,
measured while the pool is built, is closest to a target cost
(``nearest``).  That keeps the cost of a pass nearly the same from seed to
seed; without it the spread between seeds of the heavy-tailed solvers
exceeds any usable regression bound.  The costs measured while the pool
is built are rough (one run each, mostly two workers at a time), so
``tighten`` then times every candidate again, in one process and several
times over, scaled to the host-speed reference of ``common.reference_s``,
and keeps in each slot the candidates whose costs lie closest together.
``--retime`` does only that step, on the pool files already written.

Reference answers:

* oracle find queries: the oracle's verdict and lexicographically first
  witness at the commit that built the pool;
* count queries: the oracle's exact count;
* queue1: the oracle's verdict on the same instance;
* kernel: "found" by construction.  A twin gadget with a clique core of at
  most three vertices and one attachment per copy has only triangles and
  single edges as blocks, so it is outerplanar, and outerplanar graphs are
  exactly the graphs with a 1-page stack layout (Bernhart and Kainen 1979).

Building all pools takes about eight minutes on a 2-core machine, and
``tighten`` (alone: ``--retime``) about six more.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import signal
import statistics
import time

from common import (POOL_DIR, import_linlay, make_call, make_graph, reference_s, scaled,
                    witness_of)

# queue1 candidates slower than this are left out of the pool, so that a
# pass fits several times into one run
QUEUE1_CAP_S = 2.0
# cost levels of the queue1 slots: the median request (found, 250 ms) sits
# well apart from its neighbours, and the heaviest levels carry the tail
QUEUE1_FOUND_MS = (3, 10, 60, 250)
QUEUE1_INFEASIBLE_MS = (600, 900, 1200)
# ``tighten``: timing rounds per candidate, and candidates kept per slot;
# two, because the third-closest queue1 candidate of a heavy slot already
# differs by a tenth in cost, and that spread between seeds would show in
# verdicts_per_s and verdict_ms_tail
RETIME_ROUNDS = 5
SLOT_KEEP = 2


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


def spec(op, algo, graph, kind, pages, width=None, threshold=None, inner="oracle", guard=12):
    return {"op": op, "algo": algo, "graph": graph, "kind": kind, "pages": pages,
            "width": width, "threshold": threshold, "inner": inner, "oracle_guard": guard}


def gnm(n, m, s):
    return {"gen": "random_gnm", "args": [n, m, s]}


def gadget(core, copy, k):
    return {"gen": "twin_gadget", "args": [core, copy, k]}


def measure(mods, req, cap_s=None, repeats=1):
    """Run the request; fill in cost_ms (median of ``repeats`` runs), counters
    and, for the oracle, ref.

    Returns None when ``cap_s`` is given and a run takes longer.
    """
    g = make_graph(mods, req["graph"])
    times = []
    for _ in range(repeats):
        call = make_call(mods, req, mods["graphs"].Graph(g.vertices, g.edges))
        if cap_s is not None:
            signal.setitimer(signal.ITIMER_REAL, cap_s)
        t0 = time.perf_counter()
        try:
            out = call()
        except _Timeout:
            return None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        times.append(time.perf_counter() - t0)
    req["cost_ms"] = round(statistics.median(times) * 1000, 3)
    if req["op"] == "count":
        req["ref"] = {"source": "oracle", "count": out}
        req["counters"] = {}
        return req
    if out.verdict == "refused":
        raise RuntimeError(f"pool request refused: {req}")
    req["counters"] = dict(out.counters)
    if req["algo"] == "oracle":
        req["ref"] = {"source": "oracle", "verdict": out.verdict}
        if out.layout is not None:
            req["ref"]["witness"] = witness_of(out.layout)
    return req


def oracle_verdict(mods, req):
    g = make_graph(mods, req["graph"])
    kind = mods["layouts"].LayoutKind(req["kind"])
    query = mods["oracle"].OracleQuery(g, kind, req["pages"], req["width"])
    found = mods["oracle"].solve_exhaustive(query) is not None
    return {"source": "oracle", "verdict": "found" if found else "infeasible"}


_WORKER: dict = {}


def _init_worker() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)
    _WORKER["mods"] = import_linlay()


def _measure_job(job):
    req, cap_s, repeats, with_oracle_ref = job
    mods = _WORKER["mods"]
    if measure(mods, req, cap_s, repeats) is None:
        return None
    if with_oracle_ref:
        req["ref"] = oracle_verdict(mods, req)
    return req


def measure_all(reqs, cap_s=None, repeats=1, with_oracle_ref=False, workers=2):
    """``measure`` every request in worker processes; None where capped."""
    ctx = multiprocessing.get_context("spawn")
    jobs = [(r, cap_s, repeats, with_oracle_ref) for r in reqs]
    with ctx.Pool(workers, initializer=_init_worker) as pool:
        return pool.map(_measure_job, jobs, chunksize=1)


def nearest(cands, target_ms, k=6):
    """The ``k`` candidates whose cost is closest to ``target_ms`` on a log scale."""
    return sorted(cands, key=lambda c: (abs(math.log(c["cost_ms"] / target_ms)),
                                        json.dumps(c["graph"])))[:k]


def build_oracle_exhaust():
    fixed = measure_all([spec("solve", "oracle", gadget(4, 1, k), "stack", 1)
                         for k in range(1, 5)])
    finds = measure_all([spec("solve", "oracle", gnm(9, m, s), "queue", 1)
                         for m in (13, 14) for s in range(64)])
    counts = [
        (measure_all([spec("count", None, gnm(n, m, s), kind, pages) for s in range(32)]), t)
        for n, m, kind, pages, t in ((6, 9, "stack", 2, 200), (9, 11, "queue", 1, 550),
                                     (8, 10, "queue", 1, 100))
    ]
    slots = [[req] for req in fixed]
    slots += [nearest(finds, t) for t in (10, 30, 350, 550)]
    slots += [nearest(cands, t) for cands, t in counts]
    return {"slots": slots, "cli_slot": 5, "excluded": []}


def build_queue1_gnm():
    reqs = [spec("solve", "queue1", gnm(n, m, s), "queue", 1)
            for n, ms in ((8, (10, 11, 12)), (9, (11, 12, 13))) for m in ms for s in range(40)]
    # measured alone: a second worker slows some queue1 graphs far more than
    # others, which put candidates into the wrong cost slot
    measured = measure_all(reqs, cap_s=QUEUE1_CAP_S, repeats=3, with_oracle_ref=True, workers=1)
    excluded = [{"graph": r["graph"], "reason": f"queue1 took over {QUEUE1_CAP_S} s"}
                for r, got in zip(reqs, measured) if got is None]
    found = [r for r in measured if r is not None and r["ref"]["verdict"] == "found"]
    infeasible = [r for r in measured if r is not None and r["ref"]["verdict"] == "infeasible"]
    slots = [nearest(found, t) for t in QUEUE1_FOUND_MS]
    slots += [nearest(infeasible, t) for t in QUEUE1_INFEASIBLE_MS]
    return {"slots": slots, "cli_slot": 0, "excluded": excluded}


KERNEL_REASON = ("twin gadget with a core of at most 3 vertices and one attachment per "
                 "copy: outerplanar, so a 1-page stack layout exists")


def build_kernel_lift():
    # (core, copy size, copies, inner solver, oracle guard); the kernel of a
    # 3-clique core with 2-vertex copies has 13 vertices, so its guard is 13.
    # Two heavy slots of about the same cost, so that the ten samples beyond
    # verdict_ms_tail fall inside them at any pass count of a run; an odd
    # number of slots, so that verdict_ms_p50 falls inside one slot.
    families = [
        (2, 2, range(194, 207, 2), "oracle", 12),
        (3, 1, range(1190, 1211, 2), "oracle", 12),
        (2, 1, range(590, 611, 2), "oracle", 12),
        (3, 2, range(292, 309, 2), "oracle", 13),
        (3, 2, range(392, 409, 2), "oracle", 13),
        (3, 2, range(410, 427, 2), "oracle", 13),
        (3, 2, range(240, 261, 2), "cutset", 12),
    ]
    slots = []
    for core, copy, ks, inner, guard in families:
        slot = measure_all([spec("solve", "kernel", gadget(core, copy, k), "stack", 1,
                                 threshold=5, inner=inner, guard=guard) for k in ks])
        for req in slot:
            req["ref"] = {"source": "construction", "verdict": "found", "reason": KERNEL_REASON}
        slots.append(slot)
    return {"slots": slots, "cli_slot": 0, "excluded": []}


def tighten(pool: dict) -> dict:
    """Time every candidate again and keep, per slot, the SLOT_KEEP closest in cost.

    One process, round-robin over all candidates, so a slow spell of the
    host lands on every candidate alike; each time is scaled to the
    host-speed reference.  ``cost_ms`` becomes the median of the rounds.
    """
    mods = import_linlay()
    cands = [req for slot in pool["slots"] for req in slot]
    graphs = [make_graph(mods, req["graph"]) for req in cands]
    times: list[list[float]] = [[] for _ in cands]
    for _ in range(RETIME_ROUNDS):
        for req, g, ts in zip(cands, graphs, times):
            call = make_call(mods, req, mods["graphs"].Graph(g.vertices, g.edges))
            ref = reference_s()
            t0 = time.perf_counter()
            call()
            ts.append(scaled(time.perf_counter() - t0, ref, reference_s()))
    for req, ts in zip(cands, times):
        req["cost_ms"] = round(statistics.median(ts) * 1000, 3)
    return {**pool, "slots": [narrowest(slot, SLOT_KEEP) for slot in pool["slots"]]}


def narrowest(slot: list, keep: int) -> list:
    """The ``keep`` candidates whose highest and lowest cost lie closest in ratio."""
    ordered = sorted(slot, key=lambda c: (c["cost_ms"], json.dumps(c["graph"])))
    if len(ordered) <= keep:
        return ordered
    start = min(range(len(ordered) - keep + 1),
                key=lambda i: ordered[i + keep - 1]["cost_ms"] / ordered[i]["cost_ms"])
    return ordered[start:start + keep]


BUILDERS = {
    "oracle-exhaust": build_oracle_exhaust,
    "queue1-gnm": build_queue1_gnm,
    "kernel-lift": build_kernel_lift,
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(BUILDERS))
    parser.add_argument("--retime", action="store_true",
                        help="only re-time and tighten the pool files already written")
    args = parser.parse_args()
    POOL_DIR.mkdir(exist_ok=True)
    for name in args.workload or sorted(BUILDERS):
        t0 = time.perf_counter()
        if args.retime:
            with open(POOL_DIR / f"{name}.json") as fh:
                pool = tighten(json.load(fh))
        else:
            pool = tighten(BUILDERS[name]())
        with open(POOL_DIR / f"{name}.json", "w") as fh:
            json.dump(pool, fh, indent=1, sort_keys=True)
            fh.write("\n")
        sizes = [len(s) for s in pool["slots"]]
        print(f"{name}: {len(sizes)} slots, {sum(sizes)} candidates, "
              f"{len(pool['excluded'])} excluded, {time.perf_counter() - t0:.0f} s")


if __name__ == "__main__":
    main()
