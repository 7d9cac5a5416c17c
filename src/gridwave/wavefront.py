"""Iteration-synchronous wavefront expansion over a grid.

The wave starts at the source with cost 0.  Iteration k costs every
still-unreached traversable cell that is an admissible 8-neighbor of a
cell costed k-1, so a cell's cost is the iteration at which the wave
first reached it.  First write wins: once costed, a cell is never
updated.  Obstacles the scan touches are costed INFINITY.  Cells costed
right beside an obstacle the scan touched in the same iteration are the
"new sources": the points from which the wave spills around the
blockage.  Because all frontier cells expand simultaneously and first
write wins, new sources are pure trace metadata; they never change the
resulting costs.

The flood computes only the cost field.  Its per-iteration trace (the
cells each iteration costed and the new sources among them) is a pure
function of the grid and that field, so it is derived from the field
on first read of ``FloodOutcome.trace``; a plain solve never builds it.

The expansion stops once the destination is costed (when asked to) or
when an iteration costs no new cell, which on a destination-less or
blocked map means the source's whole connected component is costed.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import field as dataclass_field
from functools import cached_property
from itertools import chain

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
    """The flooded field and its stats; ``grid`` is the map it flooded.

    ``grid`` takes no part in equality, hashing or repr.
    """

    field: CostField
    reached_destination: bool
    iterations_run: int
    grid: GridMap = dataclass_field(repr=False, compare=False)

    @cached_property
    def trace(self) -> FloodTrace:
        """The per-iteration trace, derived from the field on first read."""
        return _trace_of(self.grid, self.field)


#: Per-flood cell states, translated from compiled codes: 0 is a wall or a
#: cell already costed; an unreached traversable cell stays _OPEN and an
#: obstacle stays _OBSTACLE until the wave first reaches it.
_OPEN, _OBSTACLE = 1, 2
#: Translation table indexed by code, CODE_WALL through CODE_DESTINATION.
_FLOOD_STATE = bytes([0, _OBSTACLE, _OPEN, _OPEN, _OPEN]).ljust(256, b"\0")


def flood(
    grid: GridMap,
    rule: CornerRule = CornerRule.ALLOW,
    stop_at_destination: bool = True,
) -> FloodOutcome:
    """Expand the wave from the source and return the field and stats.

    ``iterations_run`` counts expansion levels that costed at least one
    cell; the final scan that finds nothing new is not counted (it still
    marks the obstacles it touches).  An unreachable destination is not
    an error: the outcome simply has ``reached_destination=False``.  The
    outcome's ``trace`` is derived from the field on first read.
    """
    forbid = CornerRule.coerce(rule) is CornerRule.FORBID
    compiled = grid.compiled
    codes, steps = compiled.codes, compiled.steps
    state = bytearray(codes.translate(_FLOOD_STATE))
    # Costs by padded index; the wall ring is cut away when the field is built.
    values: list = [UNREACHED] * len(codes)
    source, destination = compiled.source, compiled.destination
    state[source] = 0
    values[source] = 0
    stop = stop_at_destination and destination is not None

    frontier = [source]
    iterations_run = 0
    while frontier:
        k = iterations_run + 1
        costed: list[int] = []
        cost_it = costed.append
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
                    values[j] = k
                    cost_it(j)
                elif kind == _OBSTACLE:
                    state[j] = 0
                    values[j] = INFINITY
        if costed:
            iterations_run = k
        if stop and values[destination] == k:
            break
        frontier = costed

    field = CostField(grid.width, grid.height, tuple(chain.from_iterable(compiled.rows(values))))
    reached = destination is not None and isinstance(values[destination], int)
    return FloodOutcome(field, reached, iterations_run, grid)


def _trace_of(grid: GridMap, field: CostField) -> FloodTrace:
    """The trace of the flood that produced ``field`` on ``grid``.

    Iteration k costed the cells of cost k.  It touched every obstacle
    8-adjacent to a cell of cost k-1, and every obstacle it touched is
    INFINITY in the field, so its new sources are the cells of cost k
    orthogonally beside an INFINITY cell that has a neighbour of cost k-1.
    """
    compiled = grid.compiled
    width, stride = grid.width, compiled.stride
    # Costs and (for positive costs) coordinates by padded index.
    costs: list = [UNREACHED] * len(compiled.codes)
    cells: list = [None] * len(compiled.codes)
    levels: dict[int, list[Coord]] = {}
    touched: list[int] = []
    for row in range(grid.height):
        line = field.values[row * width : (row + 1) * width]
        start = (row + 1) * stride + 1
        costs[start : start + width] = line
        for col, cost in enumerate(line):
            if cost == INFINITY:
                touched.append(start + col)
            elif cost:  # a positive int: UNREACHED and the source's 0 are falsy
                cells[start + col] = at = Coord(row, col)
                levels.setdefault(cost, []).append(at)

    around = [delta for delta, _, _ in compiled.steps]
    orthogonal = (-stride, 1, stride, -1)
    new_sources: dict[int, set[Coord]] = {}
    for i in touched:
        nearby = {costs[i + delta] for delta in around}
        for delta in orthogonal:
            k = costs[i + delta]
            if type(k) is int and k - 1 in nearby:
                new_sources.setdefault(k, set()).add(cells[i + delta])

    records = tuple(
        IterationRecord(k, frozenset(levels[k]), frozenset(new_sources.get(k, ())))
        for k in sorted(levels)
    )
    return FloodTrace(grid.width, grid.height, records)
