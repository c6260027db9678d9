"""Command-line interface.

Exit codes for solver commands: 0 a layout was found, 1 proven infeasible,
2 the instance was refused by a size guard, >2 usage or input errors
(3 for invalid arguments such as ``--pages 0`` and for malformed input).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .fileformats import (
    FormatError,
    layout_from_json,
    layout_to_json,
    parse_graph,
    serialize_graph,
)
from .generators import GeneratorError, generate_instance
from .graphs import GraphError
from .kernel import build_reduced_graph, compute_vertex_integrity
from .layouts import LayoutDomainError, LayoutKind, page_width, validate_layout
from .oracle import (
    DEFAULT_GUARD,
    OracleQuery,
    OracleSizeError,
    solve_exhaustive,
    solve_exhaustive_all,
)
from .queue_one import DEFAULT_EDGE_GUARD
from .runner import ALGORITHMS, RequestError, SolveRequest, _atomic_write, report_to_dict, run
from .svg import render_svg


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not readable as text ({exc})") from None


def _write(path: str | None, data: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(data)
    else:
        _atomic_write(path, data)


def _at_least(least: int):
    """Argument type: an integer no smaller than ``least``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return parse


def _file_path(text: str) -> str:
    """Argument type: a file path beside the JSON report; ``-`` is
    refused, since stdout carries the report."""
    if text == "-":
        raise argparse.ArgumentTypeError("cannot write to '-': stdout carries the JSON report")
    return text


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one line and exits 3; exit 2 means a refusal."""

    def error(self, message: str):
        self.exit(3, f"{self.prog}: error: {message}\n")


def _add_common_solver_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=[k.value for k in LayoutKind], required=True)
    p.add_argument("--pages", type=_at_least(1), required=True)
    p.add_argument("--width", type=_at_least(0), default=None)


def _add_request_args(p: argparse.ArgumentParser) -> None:
    """The options of a ``SolveRequest`` that ``solve`` and ``bench`` share."""
    p.add_argument("--algo", choices=ALGORITHMS, required=True)
    _add_common_solver_args(p)
    p.add_argument("--threshold", type=_at_least(0), default=None,
                   help="kernel largeness override")
    p.add_argument("--guard", type=_at_least(0), default=DEFAULT_GUARD,
                   help="oracle size guard")
    p.add_argument("--edge-guard", type=_at_least(0), default=DEFAULT_EDGE_GUARD,
                   help="queue1 labeling guard")


def _request(args, g, **extra) -> SolveRequest:
    return SolveRequest(
        graph=g,
        algorithm=args.algo,
        kind=LayoutKind(args.kind),
        pages=args.pages,
        width=args.width,
        threshold=args.threshold,
        oracle_guard=args.guard,
        edge_guard=args.edge_guard,
        **extra,
    )


def cmd_validate(args) -> int:
    g = parse_graph(_read(args.graph))
    layout = layout_from_json(_read(args.layout))
    report = validate_layout(g, layout)
    if report.ok:
        print(f"ok: {layout.kind.value} layout on {layout.page_count} page(s), "
              f"width {page_width(layout)}")
        return 0
    for e, f in report.violations:
        print(f"violation: {e[0]}-{e[1]} and {f[0]}-{f[1]} on page {layout.pages[e]}")
    return 1


def cmd_oracle(args) -> int:
    g = parse_graph(_read(args.graph))
    query = OracleQuery(g, LayoutKind(args.kind), args.pages, args.width)
    if args.count:
        print(solve_exhaustive_all(query, guard=args.guard))
        return 0
    layout = solve_exhaustive(query, guard=args.guard)
    if layout is None:
        print("infeasible")
        return 1
    _write(args.out, layout_to_json(layout))
    if args.out and args.out != "-":
        print(f"found; witness written to {args.out}")
    return 0


def cmd_solve(args) -> int:
    g = parse_graph(_read(args.graph))
    report = run(_request(args, g, inner=args.inner, dump_states=args.dump_states,
                          dump_branch=args.dump_branch))
    print(json.dumps(report_to_dict(report), indent=2, sort_keys=True))
    if report.layout is not None and args.out:
        _write(args.out, layout_to_json(report.layout))
    return report.exit_code


def cmd_vi(args) -> int:
    g = parse_graph(_read(args.graph))
    dec = compute_vertex_integrity(g, budget=args.budget)
    if dec is None:
        print(f"vertex integrity exceeds the budget {args.budget}")
        return 1
    print(f"vi = {dec.p}")
    print(f"separator = {' '.join(dec.separator) if dec.separator else '(empty)'}")
    return 0


def cmd_kernelize(args) -> int:
    g = parse_graph(_read(args.graph))
    dec = compute_vertex_integrity(g)
    cert = build_reduced_graph(g, dec, args.threshold)
    if args.out_graph:
        _write(args.out_graph, serialize_graph(cert.graph))
    payload = {
        "vi": dec.p,
        "separator": list(cert.separator),
        "s_prime": list(cert.s_prime),
        "kernel_vertices": cert.graph.n,
        "kernel_edges": cert.graph.m,
        "groups": cert.group_count,
        "threshold": cert.threshold,
        "classes": [
            {
                "members": [list(m) for m in cls.members],
                "large": cid in cert.large_class_ids,
            }
            for cid, cls in enumerate(cert.classes)
        ],
        "removed": {str(cid): count for cid, count in cert.removed},
    }
    _write(args.out_cert, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_gen(args) -> int:
    params = {}
    for item in args.param or []:
        if "=" not in item:
            raise GeneratorError(f"parameters look like key=value, got {item!r}")
        key, value = item.split("=", 1)
        params[key] = value
    g = generate_instance(args.family, params, seed=args.seed)
    _write(args.out, serialize_graph(g))
    return 0


def cmd_render(args) -> int:
    layout = layout_from_json(_read(args.layout))
    _write(args.out, render_svg(layout))
    if args.out != "-":
        print(f"wrote {args.out}")
    return 0


def cmd_bench(args) -> int:
    rows = []
    for path in args.graphs:
        g = parse_graph(_read(path))
        report = run(_request(args, g))
        rows.append(
            {
                "instance": path,
                "n": g.n,
                "m": g.m,
                "algo": args.algo,
                "params": f"kind={args.kind};pages={args.pages};width={args.width}",
                "verdict": report.verdict,
                "millis": f"{report.timings_ms['solve']:.2f}",
                "state_count": report.counters.get(
                    "states", report.counters.get("branches", 0)
                ),
            }
        )
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf,
        fieldnames=[
            "instance", "n", "m", "algo", "params", "verdict", "millis", "state_count",
        ],
    )
    writer.writeheader()
    writer.writerows(rows)
    _write(args.out, buf.getvalue())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="linlay",
        description="Exact stack/queue layout solvers over a common graph format.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a layout against a graph")
    p.add_argument("graph")
    p.add_argument("layout")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("oracle", help="exhaustive reference solver")
    p.add_argument("graph")
    _add_common_solver_args(p)
    out = p.add_mutually_exclusive_group()
    out.add_argument("--out", default=None, help="write the witness layout JSON here")
    out.add_argument("--count", action="store_true", help="count all valid layouts")
    p.add_argument("--guard", type=_at_least(0), default=DEFAULT_GUARD)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("solve", help="run one of the solvers")
    p.add_argument("graph")
    _add_request_args(p)
    p.add_argument("--out", type=_file_path, default=None,
                   help="write the witness layout JSON here")
    p.add_argument("--inner", choices=["oracle", "cutset"], default="oracle")
    p.add_argument("--dump-states", type=_file_path, default=None)
    p.add_argument("--dump-branch", type=_file_path, default=None)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("vi", help="vertex integrity and witnessing separator")
    p.add_argument("graph")
    p.add_argument("--budget", type=_at_least(1), default=None)
    p.set_defaults(fn=cmd_vi)

    p = sub.add_parser("kernelize", help="emit the reduced graph and certificate")
    p.add_argument("graph")
    p.add_argument("--threshold", type=_at_least(0), default=None)
    p.add_argument("--out-graph", default=None)
    p.add_argument("--out-cert", default="-")
    p.set_defaults(fn=cmd_kernelize)

    p = sub.add_parser("gen", help="generate an instance")
    p.add_argument("family")
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("render", help="schematic SVG of a layout")
    p.add_argument("layout")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("bench", help="CSV timing rows for instances")
    p.add_argument("graphs", nargs="+")
    _add_request_args(p)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "kernelize" and args.out_graph == args.out_cert:
        parser.error(f"--out-graph and --out-cert both write to {args.out_cert!r}")
    try:
        return args.fn(args)
    except (FormatError, GraphError, GeneratorError, LayoutDomainError, RequestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OracleSizeError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
