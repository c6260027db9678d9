from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

import linlay
from linlay.fileformats import (
    FormatError,
    layout_from_json,
    layout_to_json,
    parse_graph,
    serialize_graph,
)
from linlay.generators import GeneratorError, generate_instance, random_gnm, twin_gadget
from linlay.graphs import Graph
from linlay.kernel import compute_vertex_integrity, twin_partition
from linlay.layouts import LayoutKind, LinearLayout
from linlay.oracle import OracleQuery, solve_exhaustive
from linlay.svg import render_svg

from naive import complete_of, path_of, star_of


def test_parse_k2():
    g = parse_graph("2 1\na b\n")
    assert g.vertices == ("a", "b") and g.edges == (("a", "b"),)


def test_parse_isolated_vertex_declaration():
    g = parse_graph("1 0\nv a\n")
    assert g.vertices == ("a",) and g.edges == ()


def test_parse_errors_carry_line_numbers():
    with pytest.raises(FormatError, match="line 2"):
        parse_graph("2 1\na a\n")
    with pytest.raises(FormatError, match="header"):
        parse_graph("x y\n")
    with pytest.raises(FormatError, match="2 edges"):
        parse_graph("3 2\na b\n")
    with pytest.raises(FormatError, match="reserved"):
        parse_graph("2 1\nv v\n")


def test_parse_comments_and_blank_lines():
    g = parse_graph("# a path\n3 2\n\na b  # first\nb c\n")
    assert g.m == 2


def test_roundtrip_on_corpus():
    graphs = [
        generate_instance("path", {"n": 5}),
        generate_instance("cycle", {"n": 6}),
        generate_instance("star", {"n": 4}),
        generate_instance("complete", {"n": 4}),
        generate_instance("random_gnm", {"n": 8, "m": 11}, seed=1),
        twin_gadget(2, 2, 3),
        Graph.build(["a", "b", "lonely"], [("a", "b")]),
    ]
    for g in graphs:
        assert parse_graph(serialize_graph(g)) == g


def test_layout_json_roundtrip():
    layout = LinearLayout(
        LayoutKind.QUEUE, 2, ("b", "a", "c"), {("a", "b"): 2, ("a", "c"): 1}
    )
    assert layout_from_json(layout_to_json(layout)) == layout
    with pytest.raises(FormatError):
        layout_from_json("{}")
    with pytest.raises(FormatError):
        layout_from_json("not json")


def test_generate_families():
    assert generate_instance("cycle", {"n": 6}).m == 6
    assert generate_instance("path", {"n": 1}).n == 1
    with pytest.raises(GeneratorError):
        generate_instance("cycle", {"n": 2})
    with pytest.raises(GeneratorError):
        generate_instance("mystery", {})
    with pytest.raises(GeneratorError):
        generate_instance("random_gnm", {"n": 3, "m": 9})


def test_random_gnm_deterministic_for_seed():
    g1 = random_gnm(8, 11, seed=1)
    g2 = random_gnm(8, 11, seed=1)
    g3 = random_gnm(8, 11, seed=2)
    assert g1 == g2
    assert g1.n == 8 and g1.m == 11
    assert g1 != g3


def test_random_gnm_golden():
    # pinned generator output for seed 1
    g = random_gnm(8, 11, seed=1)
    assert g.edges == (
        ("v00", "v03"), ("v00", "v04"), ("v00", "v05"), ("v01", "v03"),
        ("v01", "v07"), ("v02", "v04"), ("v02", "v05"), ("v03", "v04"),
        ("v03", "v06"), ("v04", "v07"), ("v05", "v06"),
    )


def test_twin_gadget_members_are_twins():
    g = twin_gadget(3, 2, 10)
    assert g.n == 3 + 20
    dec = compute_vertex_integrity(g)
    if set(dec.separator) == {"a0", "a1", "a2"}:
        classes = twin_partition(g, dec)
        assert len(classes) == 1
        assert len(classes[0].members) == 10


def test_twin_classes_open_closed_and_disjoint():
    # open twins share N(v): the leaves of a star, the sides of K_{2,3}
    assert star_of("c", ["x", "y", "z"]).twin_classes == (("x", "y", "z"),)
    k23 = Graph.from_edges([(a, b) for a in "ab" for b in "xyz"])
    assert k23.twin_classes == (("a", "b"), ("x", "y", "z"))
    # closed twins share N[v]: the whole of K_4
    assert complete_of("a", "b", "c", "d").twin_classes == (("a", "b", "c", "d"),)
    # the 2-vertex edge is one closed class, the 2-vertex non-edge one open class
    assert Graph.from_edges([("a", "b")]).twin_classes == (("a", "b"),)
    assert Graph.build(["a", "b"], []).twin_classes == (("a", "b"),)
    # singletons are left out: a path on four vertices has no twins
    assert path_of("a", "b", "c", "d").twin_classes == ()
    assert Graph.build(["a"], []).twin_classes == ()
    # a triangle with a pendant: {a, b} closed twins, isolated {y, z} open twins
    g = Graph.build("abcxyz", [("a", "b"), ("a", "c"), ("b", "c"), ("c", "x")])
    assert g.twin_classes == (("a", "b"), ("y", "z"))
    assert g.twin_classes is g.twin_classes  # computed once per graph
    for h in (g, k23, twin_gadget(2, 1, 3), twin_gadget(3, 2, 2)):
        members = [v for c in h.twin_classes for v in c]
        assert len(members) == len(set(members))


def test_svg_k2():
    g = Graph.from_edges([("a", "b")])
    layout = solve_exhaustive(OracleQuery(g, LayoutKind.STACK, 1))
    svg = render_svg(layout)
    assert svg.count("<circle") == 2
    assert svg.count("<path") == 1
    assert svg.startswith("<svg ")


def test_svg_two_page_layouts_render_deterministically(k4):
    stack = solve_exhaustive(OracleQuery(k4, LayoutKind.STACK, 2))
    queue = solve_exhaustive(OracleQuery(k4, LayoutKind.QUEUE, 2))
    assert stack is not None and queue is not None
    s1, s2 = render_svg(stack), render_svg(stack)
    assert s1 == s2
    q = render_svg(queue)
    assert s1 != q
    assert "#4472c4" in s1 and "#b07cc6" in s1  # blue and lilac pages
    assert s1.count("<circle") == 4 and s1.count("<path") == 6


def test_svg_golden_file_byte_equality():
    from linlay.generators import complete_graph

    k4_graph = complete_graph(4)
    stack = solve_exhaustive(OracleQuery(k4_graph, LayoutKind.STACK, 2))
    golden = Path(__file__).parent / "data" / "k4_stack_2p.svg"
    assert render_svg(stack) == golden.read_text()


def test_svg_escapes_vertex_ids():
    # parse_graph accepts any whitespace-free token as a vertex id
    import xml.etree.ElementTree as ET

    g = parse_graph('3 2\na&b c<d\nc<d e>"f\n')
    layout = solve_exhaustive(OracleQuery(g, LayoutKind.STACK, 1))
    root = ET.fromstring(render_svg(layout))
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert texts == list(layout.spine)
    assert sorted(texts) == ['a&b', 'c<d', 'e>"f']


def test_package_modules_use_every_imported_name():
    """An imported name that its module never references is dead code."""
    unused = []
    package = sorted(Path(linlay.__file__).parent.glob("*.py"))
    tests = sorted(Path(__file__).parent.glob("*.py"))
    for path in package + tests:
        if path.name == "__init__.py":  # re-exports the package's names
            continue
        tree = ast.parse(path.read_text())
        imported: dict[str, int] = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                getattr(node, "module", None) != "__future__"
            ):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def test_package_top_level_names_are_referenced():
    """A top-level function, class or assigned name of the package that
    nothing in src/, tests/ or perfbench/ names is a dead helper.  Methods
    are out of scope (argparse calls ``_Parser.error``)."""
    root = Path(__file__).parents[1]
    package = sorted(Path(linlay.__file__).parent.glob("*.py"))
    sources = sorted({*package, *root.glob("tests/*.py"), *root.glob("perfbench/*.py")})
    used: set[str] = set()
    defined: list[tuple[str, str]] = []
    for path in sources:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)  # perfbench names its span targets as strings
        if path not in package:
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(path.name, t.id) for t in targets if isinstance(t, ast.Name)]
    dead = [f"{module} {name}" for module, name in defined
            if name not in used and not name.startswith("__")]
    assert dead == []


def test_perfbench_span_targets_resolve():
    """The benchmark's traced run rebinds these names of the package; a
    renamed one would otherwise fail only there."""
    path = Path(__file__).parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = [(module, attr) for module, attr, _, _ in spans.TARGETS]
    names.append(("runner", "oracle_solver"))
    missing = [f"linlay.{module}.{attr}" for module, attr in names
               if not hasattr(importlib.import_module(f"linlay.{module}"), attr)]
    assert missing == []
    assert {"components", "induced"} <= vars(Graph).keys()
