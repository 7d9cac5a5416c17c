"""gridwave: grid shortest paths by wavefront expansion, with baselines.

The core algorithm floods a distance field outward from the source --
every cell's cost is the iteration at which the wave first reached it --
then recovers shortest paths by descending the field from the
destination.  Dijkstra, A* (Chebyshev or Euclidean), and a BFS oracle
are included for cross-checking and benchmarking, along with a
deterministic map generator, an ASCII trace renderer, and a CLI
(``gridwave solve|compare|gen|render``).
"""

from .backtrack import backtrack, descend_candidates
from .baselines import Heuristic, SearchResult, astar, bfs8_distance_field, dijkstra
from .bench import (
    ALL_ALGOS,
    AlgoRecord,
    ComparisonReport,
    SuiteReport,
    compare,
    run_suite,
)
from .costs import INFINITY, UNREACHED, CostField
from .errors import (
    DimensionMismatchError,
    GridWaveError,
    MapFormatError,
    MissingCostError,
    MultipleDestinationsError,
    MultipleSourcesError,
    NoPathError,
    NoSourceError,
    RaggedRowsError,
    UnknownSymbolError,
    UnsatisfiableError,
)
from .grid import (
    OFFSETS_CLOCKWISE,
    CellKind,
    Coord,
    CornerRule,
    GridMap,
    neighbors8,
    parse_map,
    render_map,
)
from .mapgen import GenSpec, SplitMix64, generate_map
from .paths import Path, PathSet
from .render import Frame, FrameSequence, render_path_overlay, render_trace
from .wavefront import FloodOutcome, FloodTrace, IterationRecord, flood

__version__ = "0.1.0"

__all__ = [
    "ALL_ALGOS",
    "AlgoRecord",
    "CellKind",
    "ComparisonReport",
    "Coord",
    "CornerRule",
    "CostField",
    "DimensionMismatchError",
    "FloodOutcome",
    "FloodTrace",
    "Frame",
    "FrameSequence",
    "GenSpec",
    "GridMap",
    "GridWaveError",
    "Heuristic",
    "INFINITY",
    "IterationRecord",
    "MapFormatError",
    "MissingCostError",
    "MultipleDestinationsError",
    "MultipleSourcesError",
    "NoPathError",
    "NoSourceError",
    "OFFSETS_CLOCKWISE",
    "Path",
    "PathSet",
    "RaggedRowsError",
    "SearchResult",
    "SplitMix64",
    "SuiteReport",
    "UNREACHED",
    "UnknownSymbolError",
    "UnsatisfiableError",
    "astar",
    "backtrack",
    "bfs8_distance_field",
    "compare",
    "descend_candidates",
    "dijkstra",
    "flood",
    "generate_map",
    "neighbors8",
    "parse_map",
    "render_map",
    "render_path_overlay",
    "render_trace",
    "run_suite",
    "__version__",
]
