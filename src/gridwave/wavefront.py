"""Iteration-synchronous wavefront expansion over a grid.

The wave starts at the source with cost 0.  Iteration k costs every
still-unreached traversable cell that is an admissible 8-neighbor of a
cell costed k-1, so a cell's cost is the iteration at which the wave
first reached it.  First write wins: once costed, a cell is never
updated.  Obstacles the scan touches are costed INFINITY.  Cells costed
right beside an obstacle the scan touched in the same iteration are
recorded as "new sources": the points from which the wave spills around
the blockage.  Because all frontier cells expand simultaneously and
first write wins, new sources are pure trace metadata; they never change
the resulting costs.

The expansion stops once the destination is costed (when asked to) or
when an iteration costs no new cell, which on a destination-less or
blocked map means the source's whole connected component is costed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .costs import INFINITY, UNREACHED, CostField
from .grid import CODE_PASSABLE, Coord, CornerRule, GridMap


@dataclass(frozen=True)
class IterationRecord:
    """Cells first costed in one iteration, plus the new sources among them."""

    k: int
    costed: frozenset
    new_sources: frozenset


@dataclass(frozen=True)
class FloodTrace:
    """Per-iteration audit of an expansion, for rendering and testing.

    Iteration numbers run 1, 2, 3, ... with no gaps; the costed sets are
    pairwise disjoint and each iteration's new_sources is a subset of its
    costed set.
    """

    width: int
    height: int
    iterations: tuple[IterationRecord, ...]


@dataclass(frozen=True)
class FloodOutcome:
    field: CostField
    trace: FloodTrace
    reached_destination: bool
    iterations_run: int


#: Per-flood cell states, translated from compiled codes: 0 is a wall or a
#: costed cell; an unreached traversable cell stays _OPEN until costed.
_OPEN, _OBSTACLE = 1, 2
#: Translation table indexed by code, CODE_WALL through CODE_DESTINATION.
_FLOOD_STATE = bytes([0, _OBSTACLE, _OPEN, _OPEN, _OPEN]).ljust(256, b"\0")


def flood(
    grid: GridMap,
    rule: CornerRule = CornerRule.ALLOW,
    stop_at_destination: bool = True,
) -> FloodOutcome:
    """Expand the wave from the source and return field, trace, and stats.

    ``iterations_run`` counts expansion levels that costed at least one
    cell; the final scan that finds nothing new is not counted (it still
    marks the obstacles it touches).  An unreachable destination is not
    an error: the outcome simply has ``reached_destination=False``.
    """
    forbid = CornerRule.coerce(rule) is CornerRule.FORBID
    compiled = grid.compiled
    codes, steps, stride = compiled.codes, compiled.steps, compiled.stride
    width = grid.width
    orthogonal = (-stride, 1, stride, -1)
    state = bytearray(codes.translate(_FLOOD_STATE))
    values: list = [UNREACHED] * (width * grid.height)
    source = compiled.source
    state[source] = 0
    values[grid.index(grid.source)] = 0
    destination = None if grid.destination is None else grid.index(grid.destination)

    frontier = [source]
    records: list[IterationRecord] = []
    iterations_run = 0
    k = 0
    while frontier:
        k += 1
        costed: list[int] = []
        inspected: list[int] = []
        cost_it, inspect = costed.append, inspected.append
        for i in frontier:
            for delta, flank_a, flank_b in steps:
                j = i + delta
                kind = state[j]
                if kind == _OPEN:
                    # CompiledGrid.neighbours' corner test, inlined per probe.
                    if (
                        forbid
                        and flank_a
                        and codes[i + flank_a] < CODE_PASSABLE
                        and codes[i + flank_b] < CODE_PASSABLE
                    ):
                        continue
                    state[j] = 0
                    cost_it(j)
                elif kind == _OBSTACLE:
                    inspect(j)
        touched = set(inspected)
        for j in touched:
            values[compiled.unpadded(j)] = INFINITY
        if not costed:
            break
        iterations_run = k
        spill = {j + delta for j in touched for delta in orthogonal}
        cells: list[Coord] = []
        new_sources: list[Coord] = []
        for j in costed:
            row, col = divmod(j, stride)
            cell = Coord(row - 1, col - 1)
            values[(row - 1) * width + col - 1] = k
            cells.append(cell)
            if j in spill:
                new_sources.append(cell)
        records.append(IterationRecord(k, frozenset(cells), frozenset(new_sources)))
        if stop_at_destination and destination is not None and values[destination] == k:
            break
        frontier = costed

    field = CostField(width, grid.height, tuple(values))
    reached = destination is not None and isinstance(values[destination], int)
    trace = FloodTrace(grid.width, grid.height, tuple(records))
    return FloodOutcome(field, trace, reached, iterations_run)
