"""Exact solvers for stack and queue layouts of undirected graphs."""

from .bounds import edge_count_bound
from .cutset import (
    OrientedCutSet,
    StateNode,
    enumerate_states,
    induce_order,
    is_nicely_oriented,
    left_side,
    solve_bounded_width,
)
from .graphs import Graph, GraphError, edge
from .kernel import (
    ReducedGraphCertificate,
    TwinClass,
    ViDecomposition,
    build_reduced_graph,
    compute_vertex_integrity,
    find_guiding_sublayout,
    lift_layout,
    twin_partition,
)
from .layouts import (
    LayoutKind,
    LinearLayout,
    ValidationReport,
    page_width,
    spanning_edges,
    validate_layout,
)
from .oracle import OracleQuery, OracleSizeError, solve_exhaustive, solve_exhaustive_all
from .queue_one import Labeling, enumerate_labelings, solve_queue_one_page

__version__ = "0.1.0"
