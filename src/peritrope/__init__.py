"""Periodic event scheduling through polytropes and offset zonotopes.

The timetable torus of a periodic scheduling instance decomposes into
polytropes indexed by cycle offsets; those offsets are the lattice points
of a zonotope whose geometry (volume, width, spanning tree tilings)
bounds and organizes the search for good timetables.
"""

from .errors import (
    DisconnectedGraph,
    EmptyPolytrope,
    EnumerationCapExceeded,
    FixedArcPresent,
    Infeasible,
    InfeasibleFixedCycle,
    InvalidBounds,
    InvariantViolation,
    NotASpanningTree,
    NotATension,
    PeritropeError,
    RetriesExhausted,
)
from .exact import brute_force_timetable, solve_exact, verify_solution
from .fixedlp import (
    FixedOffsetResult,
    brute_force_fixed_offset,
    cycle_relaxation_bound,
    minimize_over_polytrope,
)
from .graphs import (
    Budget,
    CycleBasis,
    Digraph,
    count_spanning_trees_determinant,
    default_basis,
    fundamental_cycle_basis,
    greedy_spanning_tree,
    spanning_trees,
    verify_kernel_property,
)
from .instances import (
    ContractionResult,
    ParseError,
    PespInstance,
    ValidationReport,
    contract_fixed_arcs,
    parse_instance,
    serialize_instance,
    validate,
)
from .polytropes import (
    Polytrope,
    anchor_timetable,
    kappa,
    neighbors,
    normalize_timetable,
    offset_for,
    offset_from_cycle_offset,
    offset_zero,
    polytrope_build,
    polytrope_nonempty,
    tension_to_timetable,
    timetable_to_tension,
    tropical_vertices,
)
from .search import (
    NeighbourhoodGraph,
    OffsetMemo,
    Solution,
    initial_solution,
    neighbourhood_graph,
    solution_from_timetable,
    tns,
    tns_restarts,
    trace_to_jsonl,
)
from .zonotopes import (
    DualityEntry,
    DualityReport,
    SpanningTreeStructure,
    Tile,
    TileKernel,
    TilingReport,
    WidthBoundReport,
    ZonotopeDescriptor,
    duality_check,
    enumerate_polytropes,
    fine_tiling,
    lattice_points,
    odijk_box,
    scaled_point_in_zonotope,
    structure_for_tree,
    tile_contains_scaled,
    validate_tiling,
    volume,
    width,
    width_bound_report,
    zonotope_descriptor,
)

__version__ = "0.1.0"

_RENDERERS = ("polytrope_polygon", "render_torus", "render_zonotope")


def __getattr__(name):
    """The SVG renderers, whose module loads on first use (PEP 562)."""
    if name in _RENDERERS:
        from . import render

        return getattr(render, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
