"""Reverse traversal: recover shortest paths by descending the cost field.

Over an exact distance field every shortest path steps from a cell of
cost k to a neighbor of cost k-1, so descending from the destination
needs no visited set and terminates in exactly cost(destination) steps.
Ties (several k-1 neighbors) branch into separate paths.
"""

from __future__ import annotations

from typing import Iterator

from .costs import CostField
from .errors import MissingCostError, NoPathError
from .grid import CompiledGrid, Coord, CornerRule, GridMap, ensure_destination, neighbors8
from .paths import Path, PathSet

MODES = ("first", "all")


def descend_candidates(
    field: CostField,
    grid: GridMap,
    at: Coord,
    rule: CornerRule = CornerRule.ALLOW,
) -> list[Coord]:
    """Admissible neighbors of ``at`` one cost level down, clockwise from up.

    Raises MissingCostError when ``at`` has no finite cost, which means
    the field was not flooded for this map (or not at all).
    """
    _check_field(field, grid)
    at = Coord(*at)
    cost = field.at(at)
    if not isinstance(cost, int):
        raise MissingCostError(f"cell {at} has cost {cost!r}, expected a finite value")
    if cost == 0:
        return []
    wanted = cost - 1
    return [nb for nb in neighbors8(grid, at, rule) if field.at(nb) == wanted]


def backtrack(
    field: CostField,
    grid: GridMap,
    rule: CornerRule = CornerRule.ALLOW,
    mode: str = "first",
    max_paths: int = 64,
) -> PathSet:
    """Recover shortest path(s) from the grid's destination to its source.

    mode="first" follows the first candidate at every step and returns a
    single path; mode="all" enumerates every distinct descent depth-first
    in canonical neighbor order, up to ``max_paths`` (the result is marked
    truncated when more remain).  Every returned path runs source to
    destination with costs ascending 0, 1, 2, ... exactly.

    Raises NoPathError when the destination was never reached, and
    ValueError when the map has no destination at all.
    """
    destination = ensure_destination(grid)
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if max_paths < 1:
        raise ValueError("max_paths must be at least 1")
    _check_field(field, grid)
    rule = CornerRule.coerce(rule)

    if not isinstance(field.at(destination), int):
        raise NoPathError(f"destination {destination} was never reached")

    compiled = grid.compiled
    forbid = rule is CornerRule.FORBID
    target = compiled.index(destination)
    if mode == "first":
        return PathSet((_first_descent(compiled, field.values, target, forbid),), truncated=False)

    paths = []
    truncated = False
    for descent in _all_descents(compiled, field.values, target, forbid):
        if len(paths) == max_paths:
            truncated = True
            break
        paths.append(descent)
    return PathSet(tuple(paths), truncated)


def _check_field(field: CostField, grid: GridMap) -> None:
    if not field.matches(grid):
        raise MissingCostError(
            f"cost field is {field.width}x{field.height} "
            f"but the map is {grid.width}x{grid.height}"
        )


# The descent walks padded indices of the compiled grid and reads the
# row-major field values through CompiledGrid.unpadded; Coord appears only
# in the returned paths, one object per cell shared by every path through it.


def _step_down(compiled: CompiledGrid, values: tuple, at: int, forbid: bool) -> list[int]:
    cell = compiled.unpadded
    wanted = values[cell(at)] - 1
    candidates = [i for i in compiled.neighbours(at, forbid) if values[cell(i)] == wanted]
    if not candidates:
        raise MissingCostError(
            f"no descent candidate below {compiled.coord(at)}; the field does not match the map"
        )
    return candidates


def _first_descent(compiled: CompiledGrid, values: tuple, destination: int, forbid: bool) -> Path:
    reversed_cells = [destination]
    at = destination
    while values[compiled.unpadded(at)] != 0:
        at = _step_down(compiled, values, at, forbid)[0]
        reversed_cells.append(at)
    return Path(tuple(map(compiled.coord, reversed(reversed_cells))))


def _all_descents(
    compiled: CompiledGrid, values: tuple, destination: int, forbid: bool
) -> Iterator[Path]:
    """Depth-first enumeration; yields paths in canonical candidate order.

    The stack is explicit, one candidate iterator per level, so a path of
    any length enumerates without touching the recursion limit.
    """
    trail = [compiled.coord(destination)]
    if values[compiled.unpadded(destination)] == 0:
        yield Path(tuple(trail))
        return
    branches = [iter(_step_down(compiled, values, destination, forbid))]
    while branches:
        at = next(branches[-1], None)
        if at is None:
            branches.pop()
            trail.pop()
            continue
        trail.append(compiled.coord(at))
        if values[compiled.unpadded(at)] == 0:
            yield Path(tuple(reversed(trail)))
            trail.pop()
        else:
            branches.append(iter(_step_down(compiled, values, at, forbid)))
