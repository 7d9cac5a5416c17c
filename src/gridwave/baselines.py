"""Reference searches: a BFS distance oracle, Dijkstra, and A*.

All three move on the same 8-connected unit-cost grid as the wavefront
(every step costs 1, diagonals included), so Dijkstra's distances equal
BFS levels equal wavefront iteration numbers.  The BFS oracle keeps its
adjacency logic inline on purpose: it cross-checks the wavefront without
sharing its traversal code.

A* is run with either heuristic the CLI exposes.  Chebyshev distance
never exceeds the true remaining cost on this grid, so A*-Chebyshev is
exact; Euclidean distance does exceed it whenever the remainder includes
diagonal steps (a diagonal advances sqrt(2) of straight-line distance
but costs 1), so A*-Euclidean can return a path longer than optimal.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass

from .costs import INFINITY, UNREACHED, CostField
from .errors import NoPathError
from .grid import CellKind, Choice, CompiledGrid, Coord, CornerRule, GridMap, ensure_destination
from .paths import Path


class Heuristic(Choice):
    """Distance estimate used by A* to order its queue."""

    CHEBYSHEV = "chebyshev"
    EUCLIDEAN = "euclidean"

    def distance(self, a: Coord, b: Coord) -> float:
        d_row = a[0] - b[0]
        d_col = a[1] - b[1]
        if self is Heuristic.CHEBYSHEV:
            return max(abs(d_row), abs(d_col))
        return math.sqrt(d_row * d_row + d_col * d_col)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one best-first search run.

    ``expansions`` counts queue pops that did real work (stale entries
    skipped by lazy deletion are not expansions); ``visited`` is every
    cell the search assigned a tentative distance.  ``path`` is None on
    an exhausted search, in which case the counters describe the full
    sweep of the source's component.
    """

    path: Path | None
    expansions: int
    visited: frozenset


#: Reading order, deliberately different from the wavefront's clockwise scan.
_ORACLE_OFFSETS = (
    (-1, -1), (-1, 0), (-1, 1),
    (0, -1), (0, 1),
    (1, -1), (1, 0), (1, 1),
)


def bfs8_distance_field(grid: GridMap, rule: CornerRule = CornerRule.ALLOW) -> CostField:
    """Distance field by plain FIFO breadth-first search, for cross-checking.

    Finite values are hop counts from the source over admissible
    8-neighbor steps; obstacles within one king-move of a reached cell
    are INFINITY; everything else is UNREACHED.  Runs on row-major
    indices with its own offset table and passability list, bounds-checked
    per probe, so it shares nothing with the wavefront's compiled grid.
    """
    rule = CornerRule.coerce(rule)
    forbid = rule is CornerRule.FORBID
    width, height = grid.width, grid.height
    passable = [kind.traversable for kind in grid.cells]
    offsets = [(d_row, d_col, d_row * width + d_col) for d_row, d_col in _ORACLE_OFFSETS]
    values: list = [UNREACHED] * (width * height)
    start = grid.index(grid.source)
    values[start] = 0
    queue = deque([start])
    while queue:
        i = queue.popleft()
        row, col = divmod(i, width)
        reached = values[i] + 1
        for d_row, d_col, delta in offsets:
            if not (0 <= row + d_row < height and 0 <= col + d_col < width):
                continue
            to = i + delta
            if not passable[to] or values[to] is not UNREACHED:
                continue
            # With both ends in bounds, both flanks are in bounds too.
            if forbid and d_row and d_col and not (
                passable[i + d_row * width] or passable[i + d_col]
            ):
                continue
            values[to] = reached
            queue.append(to)

    # Obstacles adjacent (any of the 8 directions, corner rule irrelevant)
    # to a reached cell are the ones an exhaustive expansion would inspect.
    obstacle = [kind is CellKind.OBSTACLE for kind in grid.cells]
    for i, value in enumerate(values):
        if not isinstance(value, int):
            continue
        row, col = divmod(i, width)
        for d_row, d_col, delta in offsets:
            if 0 <= row + d_row < height and 0 <= col + d_col < width and obstacle[i + delta]:
                values[i + delta] = INFINITY
    return CostField(width, height, tuple(values))


def _reconstruct(compiled: CompiledGrid, parent: dict, destination: int) -> Path:
    cells = [destination]
    while cells[-1] in parent:
        cells.append(parent[cells[-1]])
    return Path(tuple(compiled.coord(i) for i in reversed(cells)))


def _visited(compiled: CompiledGrid, best: dict) -> frozenset:
    return frozenset(map(compiled.coord, best))


def dijkstra(grid: GridMap, rule: CornerRule = CornerRule.ALLOW) -> SearchResult:
    """Uniform-cost search; expansions count settled cells.

    Ties in the queue break on (row, col) so runs are deterministic.
    Raises NoPathError (carrying the exhausted-run SearchResult) when the
    destination is unreachable, ValueError when the map has none.
    """
    destination = ensure_destination(grid)
    forbid = CornerRule.coerce(rule) is CornerRule.FORBID
    compiled = grid.compiled
    neighbours, target = compiled.neighbours, compiled.destination
    # Padded indices order like (row, col), so they break queue ties alike.
    best = {compiled.source: 0}
    parent: dict = {}
    settled = set()
    expansions = 0
    heap = [(0, compiled.source)]
    while heap:
        dist, at = heapq.heappop(heap)
        if at in settled:
            continue
        settled.add(at)
        expansions += 1
        if at == target:
            return SearchResult(
                _reconstruct(compiled, parent, at), expansions, _visited(compiled, best)
            )
        candidate = dist + 1
        for to in neighbours(at, forbid):
            if candidate < best.get(to, math.inf):
                best[to] = candidate
                parent[to] = at
                heapq.heappush(heap, (candidate, to))
    raise NoPathError(
        f"no route from {grid.source} to {destination}",
        result=SearchResult(None, expansions, _visited(compiled, best)),
    )


def astar(
    grid: GridMap,
    rule: CornerRule = CornerRule.ALLOW,
    heuristic: "Heuristic | str" = Heuristic.CHEBYSHEV,
) -> SearchResult:
    """Best-first search ordered by g + h; expansions count useful pops.

    Queue ties break on higher g first, then (row, col).  Cells are
    re-queued whenever a strictly better g appears (no closed set), so
    the Chebyshev variant is exact even though entries can go stale;
    stale pops are skipped without counting as expansions.
    """
    destination = ensure_destination(grid)
    forbid = CornerRule.coerce(rule) is CornerRule.FORBID
    distance = Heuristic.coerce(heuristic).distance
    compiled = grid.compiled
    neighbours, target, stride = compiled.neighbours, compiled.destination, compiled.stride
    # Heuristics read (row, col) differences, which padding leaves unchanged.
    goal = divmod(target, stride)
    best = {compiled.source: 0}
    parent: dict = {}
    expansions = 0
    heap = [(distance(divmod(compiled.source, stride), goal), 0, compiled.source)]
    while heap:
        f, neg_g, at = heapq.heappop(heap)
        g = -neg_g
        if g != best[at]:
            continue  # stale entry superseded by a better route
        expansions += 1
        if at == target:
            return SearchResult(
                _reconstruct(compiled, parent, at), expansions, _visited(compiled, best)
            )
        candidate = g + 1
        for to in neighbours(at, forbid):
            if candidate < best.get(to, math.inf):
                best[to] = candidate
                parent[to] = at
                heapq.heappush(
                    heap, (candidate + distance(divmod(to, stride), goal), -candidate, to)
                )
    raise NoPathError(
        f"no route from {grid.source} to {destination}",
        result=SearchResult(None, expansions, _visited(compiled, best)),
    )
