from __future__ import annotations

import json
from pathlib import Path

import pytest

from linlay.cli import main
from linlay.fileformats import layout_from_json, layout_to_json, serialize_graph
from linlay.generators import complete_graph, cycle_graph, random_gnm, twin_gadget
from linlay.graphs import Graph, edge
from linlay.layouts import LayoutKind, LinearLayout, validate_layout
from linlay.runner import RequestError, SolveRequest, run
from linlay.svg import render_svg

from naive import cycle_of


def write_graph(tmp_path, g, name="g.graph"):
    path = tmp_path / name
    path.write_text(serialize_graph(g))
    return str(path)


def test_request_invariants(c4):
    with pytest.raises(RequestError):
        SolveRequest(c4, "queue1", LayoutKind.STACK, 1)
    with pytest.raises(RequestError):
        SolveRequest(c4, "queue1", LayoutKind.QUEUE, 2)
    with pytest.raises(RequestError):
        SolveRequest(c4, "nope", LayoutKind.QUEUE, 1)


def test_request_rejects_negative_threshold(c4):
    with pytest.raises(RequestError):
        SolveRequest(c4, "kernel", LayoutKind.STACK, 1, threshold=-1)
    assert SolveRequest(c4, "kernel", LayoutKind.STACK, 1, threshold=0).threshold == 0


@pytest.mark.parametrize("guard", [{"oracle_guard": -1}, {"edge_guard": -1}])
def test_request_rejects_negative_guards(c4, guard):
    with pytest.raises(RequestError):
        SolveRequest(c4, "oracle", LayoutKind.STACK, 1, **guard)
    zero = {name: 0 for name in guard}
    assert SolveRequest(c4, "oracle", LayoutKind.STACK, 1, **zero).pages == 1


@pytest.mark.parametrize("algo", ["queue1", "cutset"])
def test_component_edge_count_rejection_names_the_bound(algo):
    # the whole graph passes the bound (10 <= 2*25 - 3); its K5 component does not
    k5 = complete_graph(5)
    g = Graph.build([*k5.vertices, *(f"z{i:02d}" for i in range(20))], k5.edges)
    report = run(SolveRequest(g, algo, LayoutKind.QUEUE, 1))
    assert report.verdict == "infeasible"
    assert report.detail == "rejected by the edge-count bound"


def test_queue1_infeasible_detail_names_the_branch_rejection():
    # passes the edge-count bound (7 <= 2*5 - 3) but has no 1-page queue layout
    g = Graph.from_edges(
        [("a", "e"), ("b", "c"), ("b", "d"), ("b", "e"), ("c", "d"), ("c", "e"), ("d", "e")]
    )
    report = run(SolveRequest(g, "queue1", LayoutKind.QUEUE, 1))
    assert report.verdict == "infeasible"
    assert report.counters["branches"] == 60
    assert report.detail == "all 60 labeling branches rejected"


def test_cutset_infeasible_detail_names_the_exhaustive_search():
    # K3,3 passes the edge-count bound (9 <= 2*6 - 3) but has no 1-page stack layout
    g = Graph.from_edges([(a, b) for a in "abc" for b in "xyz"])
    report = run(SolveRequest(g, "cutset", LayoutKind.STACK, 1, 3))
    assert report.verdict == "infeasible"
    assert report.counters == {"states": 36, "arcs": 36}
    assert report.detail == "exhaustive search: no path after 36 states"
    # beside a solved edge component the counters sum, the detail names K3,3's search
    g2 = Graph.from_edges([("A", "B"), *g.edges])
    report2 = run(SolveRequest(g2, "cutset", LayoutKind.STACK, 1, 3))
    assert report2.counters == {"states": 38, "arcs": 38}
    assert report2.detail == report.detail


def test_oracle_infeasible_detail_names_the_exhaustive_search(k4):
    report = run(SolveRequest(k4, "oracle", LayoutKind.QUEUE, 1))
    assert report.verdict == "infeasible"
    assert report.counters == {}
    assert report.detail == "exhaustive search: no layout"
    # a found layout carries no detail
    assert run(SolveRequest(k4, "oracle", LayoutKind.STACK, 2)).detail == ""


def test_run_oracle_found(c4):
    report = run(SolveRequest(c4, "oracle", LayoutKind.STACK, 1))
    assert report.verdict == "found" and report.exit_code == 0
    assert validate_layout(c4, report.layout).ok
    assert "solve" in report.timings_ms


def test_run_queue1_infeasible(k4):
    report = run(SolveRequest(k4, "queue1", LayoutKind.QUEUE, 1))
    assert report.verdict == "infeasible" and report.exit_code == 1


def test_run_cutset_zero_width(c4):
    report = run(SolveRequest(c4, "cutset", LayoutKind.STACK, 1, width=0))
    assert report.verdict == "infeasible" and report.exit_code == 1


def test_run_refusals():
    big = complete_graph(14)
    report = run(SolveRequest(big, "oracle", LayoutKind.STACK, 3))
    assert report.verdict == "refused" and report.exit_code == 2
    wide = twin_gadget(1, 1, 30)
    report2 = run(SolveRequest(wide, "queue1", LayoutKind.QUEUE, 1))
    assert report2.verdict == "refused"


def test_run_cutset_disconnected_components():
    g = Graph.build(
        ["a", "b", "c", "p", "q", "r"],
        [("a", "b"), ("b", "c"), ("p", "q"), ("q", "r")],
    )
    report = run(SolveRequest(g, "cutset", LayoutKind.QUEUE, 1, width=2))
    assert report.verdict == "found"
    assert validate_layout(g, report.layout).ok


def test_run_queue1_disconnected_components(tmp_path):
    g = Graph.build(
        ["a", "b", "c", "w", "x", "y", "z"],
        [("a", "b"), ("b", "c"), ("x", "y"), ("y", "z")],
    )
    dump = tmp_path / "branch.json"
    report = run(SolveRequest(g, "queue1", LayoutKind.QUEUE, 1, dump_branch=str(dump)))
    assert report.layout is not None and validate_layout(g, report.layout).ok
    # the branch dump covers every component: one arc per edge in component
    # order, and levels from 1 for each component with edges
    payload = json.loads(dump.read_text())
    assert [edge(*item["arc"]) for item in payload["labeling"]] == list(g.edges)
    levels = payload["levels"]
    assert sorted(levels) == ["a", "b", "c", "x", "y", "z"]
    assert min(levels[v] for v in "abc") == min(levels[v] for v in "xyz") == 1
    for item in payload["labeling"]:
        u, v = item["arc"]
        assert levels[v] - levels[u] == (1 if item["tag"] == "ordinary" else 0)


def test_run_kernel_with_threshold():
    g = twin_gadget(1, 1, 8)
    report = run(
        SolveRequest(g, "kernel", LayoutKind.STACK, 1, threshold=5, oracle_guard=16)
    )
    assert report.verdict == "found"
    assert report.counters["vi"] == 2
    assert report.counters["kernel_vertices"] == 6
    assert validate_layout(g, report.layout).ok


def test_run_is_deterministic(c4):
    r1 = run(SolveRequest(c4, "cutset", LayoutKind.STACK, 2, width=2))
    r2 = run(SolveRequest(c4, "cutset", LayoutKind.STACK, 2, width=2))
    assert r1.layout == r2.layout


def test_cli_gen_solve_validate_render(tmp_path, capsys):
    graph_path = str(tmp_path / "c6.graph")
    assert main(["gen", "cycle", "--param", "n=6", "--out", graph_path]) == 0
    layout_path = str(tmp_path / "c6.json")
    code = main(
        ["solve", graph_path, "--algo", "queue1", "--kind", "queue", "--pages", "1",
         "--out", layout_path,
         "--dump-branch", str(tmp_path / "branch.json")]
    )
    assert code == 0
    payload = json.loads((tmp_path / "branch.json").read_text())
    assert payload["labeling"]
    layout = layout_from_json((tmp_path / "c6.json").read_text())
    assert layout.kind is LayoutKind.QUEUE
    assert main(["validate", graph_path, layout_path]) == 0
    svg_path = str(tmp_path / "c6.svg")
    assert main(["render", layout_path, "--out", svg_path]) == 0
    assert (tmp_path / "c6.svg").read_text().startswith("<svg")
    capsys.readouterr()


def test_cli_exit_codes(tmp_path, capsys):
    k4_path = write_graph(tmp_path, complete_graph(4), "k4.graph")
    assert main(["solve", k4_path, "--algo", "queue1", "--kind", "queue", "--pages", "1"]) == 1
    assert main(["oracle", k4_path, "--kind", "queue", "--pages", "1"]) == 1
    big = write_graph(tmp_path, complete_graph(14), "k14.graph")
    assert main(["oracle", big, "--kind", "stack", "--pages", "3"]) == 2
    bad = tmp_path / "bad.graph"
    bad.write_text("nope\n")
    assert main(["vi", str(bad)]) == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "G", "--kind", "stack", "--pages", "0"],
        ["kernelize", "G", "--pages", "0"],
        ["solve", "G", "--algo", "cutset", "--kind", "stack", "--pages", "1", "--width", "-1"],
        ["solve", "G", "--algo", "kernel", "--kind", "stack", "--pages", "1", "--width", "0"],
        ["solve", "G", "--algo", "queue1", "--kind", "queue", "--pages", "1", "--width", "2"],
        ["solve", "G", "--algo", "kernel", "--kind", "stack", "--pages", "1", "--threshold", "-1"],
        ["kernelize", "G", "--pages", "1", "--threshold", "-1"],
        ["bench", "G", "--algo", "kernel", "--kind", "stack", "--pages", "1", "--threshold", "-1"],
        ["vi", "G", "--budget", "0"],
        ["vi", "G", "--budget", "-1"],
        ["oracle", "G", "--kind", "stack", "--pages", "1", "--guard", "-1"],
        ["solve", "G", "--algo", "oracle", "--kind", "stack", "--pages", "1", "--guard", "-1"],
        ["bench", "G", "--algo", "oracle", "--kind", "stack", "--pages", "1", "--guard", "-1"],
        ["solve", "G", "--algo", "queue1", "--kind", "queue", "--pages", "1", "--edge-guard", "-1"],
        ["bench", "G", "--algo", "queue1", "--kind", "queue", "--pages", "1", "--edge-guard", "-1"],
        ["solve", "G", "--algo", "oracle", "--kind", "stack", "--pages", "1", "--dump-branch", "F"],
        ["solve", "G", "--algo", "oracle", "--kind", "stack", "--pages", "1", "--dump-states", "F"],
        ["solve", "G", "--algo", "cutset", "--kind", "stack", "--pages", "1", "--dump-branch", "F"],
        ["solve", "G", "--algo", "queue1", "--kind", "queue", "--pages", "1", "--dump-states", "F"],
        ["solve", "G", "--algo", "kernel", "--kind", "stack", "--pages", "1", "--dump-states", "F"],
        ["solve", "G", "--algo", "kernel", "--kind", "stack", "--pages", "1", "--dump-branch", "F"],
    ],
)
def test_cli_invalid_arguments_exit_3(tmp_path, capsys, argv):
    path = write_graph(tmp_path, cycle_graph(5))
    argv = [path if a == "G" else a for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 3
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "algo, kind, flag",
    [("cutset", "stack", "--dump-states"), ("queue1", "queue", "--dump-branch")],
)
def test_cli_dump_to_dash_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch, algo, kind, flag):
    # stdout carries the JSON report, so '-' cannot name the dump
    path = write_graph(tmp_path, cycle_graph(5))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["solve", path, "--algo", algo, "--kind", kind, "--pages", "1", flag, "-"])
    assert exc.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1 and flag in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.graph"]


@pytest.mark.parametrize("suffix", ["", "/"])
def test_cli_failed_write_leaves_no_temporary_file(tmp_path, capsys, suffix):
    path = write_graph(tmp_path, cycle_graph(5))
    out_dir = tmp_path / "somedir"
    out_dir.mkdir()
    out = f"{out_dir}{suffix}"
    assert main(["solve", path, "--algo", "queue1", "--kind", "queue", "--pages", "1",
                 "--out", out]) == 4
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.graph", "somedir"]
    assert list(out_dir.iterdir()) == []
    err = capsys.readouterr().err
    assert repr(out) in err and ".tmp" not in err


def test_cli_gen_bad_parameters_exit_3(capsys):
    assert main(["gen", "path", "--param", "n=abc"]) == 3
    assert capsys.readouterr().err == "error: parameter 'n' must be an integer, got 'abc'\n"
    assert main(["gen", "random_gnm", "--param", "n=3", "--param", "m=9"]) == 3
    assert capsys.readouterr().err == "error: no simple graph with n=3, m=9\n"


def test_cli_oracle_witness_to_stdout_is_json(tmp_path, capsys):
    c4 = cycle_graph(4)
    path = write_graph(tmp_path, c4)
    assert main(["oracle", path, "--kind", "stack", "--pages", "1", "--out", "-"]) == 0
    assert validate_layout(c4, layout_from_json(capsys.readouterr().out)).ok
    out = str(tmp_path / "c4.json")
    assert main(["oracle", path, "--kind", "stack", "--pages", "1", "--out", out]) == 0
    assert capsys.readouterr().out == f"found; witness written to {out}\n"


def test_cli_unknown_kind_names_the_valid_kinds(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(5))
    with pytest.raises(SystemExit) as exc:
        main(["solve", path, "--algo", "oracle", "--kind", "nope", "--pages", "1"])
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert "'stack'" in err and "'queue'" in err and "_kind" not in err


@pytest.mark.parametrize("command", [["oracle"], ["solve", "--algo", "oracle"]])
def test_cli_oracle_accepts_width_zero(tmp_path, capsys, command):
    path = write_graph(tmp_path, cycle_graph(5))
    argv = [command[0], path, *command[1:], "--kind", "stack", "--pages", "1", "--width", "0"]
    assert main(argv) == 1
    capsys.readouterr()
    edgeless = write_graph(tmp_path, Graph.build(["a", "b"], []), "edgeless.graph")
    argv[1] = edgeless
    assert main(argv) == 0
    capsys.readouterr()


def test_cli_validate_layout_of_another_graph_exits_3(tmp_path, capsys):
    c4_path = write_graph(tmp_path, cycle_graph(4), "c4.graph")
    c5_path = write_graph(tmp_path, cycle_graph(5), "c5.graph")
    layout_path = str(tmp_path / "c4.json")
    assert main(["oracle", c4_path, "--kind", "stack", "--pages", "1", "--out", layout_path]) == 0
    assert main(["validate", c5_path, layout_path]) == 3
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("assignment", "[]"),
        ("spine", '"ab"'),
        ("pages", "1e400"),
        ("pages", "1.7"),
        ("pages", "true"),
        ("page", "1.7"),
        ("page", "true"),
    ],
)
def test_cli_validate_malformed_layout_exits_3(tmp_path, capsys, field, value):
    """Layout JSON needs an array spine, an object assignment and JSON
    integers for the page count and every page."""
    path = write_graph(tmp_path, Graph.from_edges([("a", "b")]))
    data = {"kind": "queue", "pages": 1, "spine": ["a", "b"], "assignment": {"a b": 1}}
    if field == "page":
        data["assignment"]["a b"] = "@"
    else:
        data[field] = "@"
    layout_path = tmp_path / "bad.json"
    layout_path.write_text(json.dumps(data).replace('"@"', value))
    assert main(["validate", path, str(layout_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed layout JSON") and "Traceback" not in captured.err


def test_cli_render_to_stdout_writes_only_the_svg(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    layout = LinearLayout(LayoutKind.QUEUE, 1, ("a", "b"), {("a", "b"): 1})
    (tmp_path / "k2.json").write_text(layout_to_json(layout))
    assert main(["render", "k2.json", "--out", "-"]) == 0
    assert capsys.readouterr().out == render_svg(layout)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k2.json"]


def test_cli_vi_and_kernelize(tmp_path, capsys):
    g = twin_gadget(1, 1, 8)
    path = write_graph(tmp_path, g)
    assert main(["vi", path]) == 0
    out = capsys.readouterr().out
    assert "vi = 2" in out
    assert main(["vi", path, "--budget", "1"]) == 1
    capsys.readouterr()
    cert_path = str(tmp_path / "cert.json")
    kernel_path = str(tmp_path / "kernel.graph")
    assert main(
        ["kernelize", path, "--pages", "1", "--threshold", "5",
         "--out-graph", kernel_path, "--out-cert", cert_path]
    ) == 0
    cert = json.loads((tmp_path / "cert.json").read_text())
    assert cert["groups"] == 5 and cert["kernel_vertices"] == 6
    capsys.readouterr()


def test_cli_dump_states(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(4))
    dump = str(tmp_path / "states.txt")
    assert main(
        ["solve", path, "--algo", "cutset", "--kind", "stack", "--pages", "1",
         "--width", "2", "--dump-states", dump]
    ) == 0
    lines = (tmp_path / "states.txt").read_text().strip().splitlines()
    assert lines and all(line.count("|") == 2 for line in lines)
    capsys.readouterr()


@pytest.mark.parametrize("kind", ["stack", "queue"])
def test_cli_dump_states_golden(tmp_path, capsys, kind):
    """The dump lists recorded states in visit order.  c6 is feasible, so
    it holds only the states generated before the goal (here the witness
    path) and pins which interleaving and page vector is tried first."""
    path = write_graph(tmp_path, cycle_graph(6))
    dump = tmp_path / "states.txt"
    assert main(
        ["solve", path, "--algo", "cutset", "--kind", kind, "--pages", "2",
         "--width", "2", "--dump-states", str(dump)]
    ) == 0
    golden = Path(__file__).parent / "data" / f"dump_states_c6_{kind}_2p_w2.txt"
    assert dump.read_bytes() == golden.read_bytes()
    capsys.readouterr()


def test_cli_dump_states_golden_exhaustive(tmp_path, capsys):
    """K3,3 has no 1-page stack layout, so the dump holds every reachable
    state and pins the order of the whole exhaustive search."""
    path = write_graph(tmp_path, Graph.from_edges([(a, b) for a in "abc" for b in "xyz"]))
    dump = tmp_path / "states.txt"
    assert main(
        ["solve", path, "--algo", "cutset", "--kind", "stack", "--pages", "1",
         "--width", "3", "--dump-states", str(dump)]
    ) == 1
    golden = Path(__file__).parent / "data" / "dump_states_k33_stack_1p_w3.txt"
    assert dump.read_bytes() == golden.read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("threshold", [None, 0, 3, 5])
def test_cli_kernelize_golden(tmp_path, capsys, threshold):
    """Pins the whole certificate: classes, largeness, kept groups, removed
    counts and the threshold echoed back (null without one)."""
    path = write_graph(tmp_path, twin_gadget(2, 2, 10))
    cert = tmp_path / "cert.json"
    extra = [] if threshold is None else ["--threshold", str(threshold)]
    assert main(["kernelize", path, "--pages", "2", *extra, "--out-cert", str(cert)]) == 0
    name = "none" if threshold is None else threshold
    golden = Path(__file__).parent / "data" / f"kernelize_tg_2_2_10_2p_t{name}.json"
    assert cert.read_bytes() == golden.read_bytes()
    capsys.readouterr()


def test_cli_kernel_lifted_witness_golden(tmp_path, capsys):
    path = write_graph(tmp_path, twin_gadget(1, 1, 8))
    out = tmp_path / "layout.json"
    assert main(
        ["solve", path, "--algo", "kernel", "--kind", "stack", "--pages", "1",
         "--threshold", "5", "--out", str(out)]
    ) == 0
    assert json.loads(capsys.readouterr().out)["counters"]["lifted"] == 1
    golden = Path(__file__).parent / "data" / "kernel_lift_tg_1_1_8_stack_1p_t5.json"
    assert out.read_bytes() == golden.read_bytes()


def test_queue1_witnesses_golden(tmp_path):
    """Pins the spine, the branch count and the ``--dump-branch`` bytes of
    four queue1 finds: the order of labeling branches and of candidate
    level orders decides all three."""
    golden = json.loads((Path(__file__).parent / "data" / "queue1_witnesses.json").read_text())
    assert [case["graph"] for case in golden] == [
        [9, 12, 30], [8, 11, 6], [9, 12, 37], [8, 10, 23],
    ]
    for case in golden:
        dump = tmp_path / "branch.json"
        report = run(SolveRequest(random_gnm(*case["graph"]), "queue1", LayoutKind.QUEUE, 1,
                                  dump_branch=str(dump)))
        assert report.verdict == "found"
        assert list(report.layout.spine) == case["spine"]
        assert report.counters["branches"] == case["branches_tried"]
        assert dump.read_text() == json.dumps(case["dump_branch"], indent=2, sort_keys=True) + "\n"


def test_cli_bench_csv(tmp_path, capsys):
    p1 = write_graph(tmp_path, cycle_graph(4), "a.graph")
    p2 = write_graph(tmp_path, complete_graph(4), "b.graph")
    out = str(tmp_path / "bench.csv")
    assert main(
        ["bench", p1, p2, "--algo", "cutset", "--kind", "stack", "--pages", "1",
         "--width", "3", "--out", out]
    ) == 0
    rows = (tmp_path / "bench.csv").read_text().strip().splitlines()
    assert rows[0] == "instance,n,m,algo,params,verdict,millis,state_count"
    assert len(rows) == 3
    assert "found" in rows[1] and "infeasible" in rows[2]
    capsys.readouterr()


def test_cli_oracle_count(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_of("a", "b", "c"))
    assert main(["oracle", path, "--kind", "queue", "--pages", "1", "--count"]) == 0
    assert capsys.readouterr().out.strip() == "6"


def test_kernel_inner_cutset_reports_every_cutset_counter():
    # with the default threshold the kernel of c6 is c6 itself, so the
    # kernel run solves the whole graph with cutset once
    g = cycle_graph(6)
    plain = run(SolveRequest(g, "cutset", LayoutKind.QUEUE, 1))
    kernel = run(SolveRequest(g, "kernel", LayoutKind.QUEUE, 1, inner="cutset"))
    assert kernel.verdict == plain.verdict == "found"
    assert plain.counters["arcs"] > 0
    assert {k: kernel.counters[k] for k in ("states", "arcs")} == plain.counters


@pytest.mark.parametrize(
    "spine, assignment",
    [
        (["a", "b"], {"a c": 1}),  # c is not on the spine
        (["a", "b"], {"a b": 0}),  # no page 0
        (["a", "b", "a"], {"a b": 1}),  # a repeats
        (["a", "b"], {"a a": 1}),  # a self-loop
    ],
)
def test_cli_render_rejects_a_self_inconsistent_layout(tmp_path, capsys, spine, assignment):
    data = {"kind": "queue", "pages": 1, "spine": spine, "assignment": assignment}
    layout_path = tmp_path / "bad.json"
    layout_path.write_text(json.dumps(data))
    svg_path = tmp_path / "out.svg"
    assert main(["render", str(layout_path), "--out", str(svg_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and not svg_path.exists()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["validate", "render"])
def test_cli_layout_with_a_repeated_edge_exits_3(tmp_path, capsys, command):
    # "a b" and "b a" name one edge; a layout may not give it two pages
    graph_path = write_graph(tmp_path, Graph.from_edges([("a", "b")]))
    data = {"kind": "queue", "pages": 2, "spine": ["a", "b"], "assignment": {"a b": 1, "b a": 2}}
    layout_path = tmp_path / "twice.json"
    layout_path.write_text(json.dumps(data))
    argv = (
        ["validate", graph_path, str(layout_path)]
        if command == "validate"
        else ["render", str(layout_path), "--out", str(tmp_path / "out.svg")]
    )
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and not (tmp_path / "out.svg").exists()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "assigned more than once" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["vi", "BAD"],
        ["solve", "BAD", "--algo", "oracle", "--kind", "stack", "--pages", "1"],
        ["oracle", "BAD", "--kind", "stack", "--pages", "1"],
        ["kernelize", "BAD", "--pages", "1"],
        ["bench", "BAD", "--algo", "oracle", "--kind", "stack", "--pages", "1"],
        ["validate", "BAD", "BAD"],
        ["render", "BAD", "--out", "-"],
    ],
)
def test_cli_undecodable_input_exits_3(tmp_path, capsys, argv):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe\x00")
    assert main([str(bad) if a == "BAD" else a for a in argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
