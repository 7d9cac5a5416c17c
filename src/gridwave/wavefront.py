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

The flood runs on bitboards: Python ints with bit i for padded cell i of
the compiled grid, whose open and obstacle masks are built in C from its
codes.  One level is one dilation of the whole frontier, kept to the
unreached open cells.  Under ALLOW that is the frontier's 3x3 dilation;
under FORBID a diagonal is admissible exactly when one of its two flanks
is open, so the frontier's open orthogonal neighbours are dilated across
the other axis.  The level ints cover only a window of whole bytes around
the frontier, re-cut when the frontier comes within one row of its edge,
so a map-wide wave runs on whole-map ints and a corridor on a few rows.
Each cost is stored in bit planes (plane p holds the cells whose cost
has bit p set) and the field is rebuilt once, at the end, in C: the
planes become lanes of 1, 2 or 4 bytes per cell, and one table lookup
per cell gives its cost, INFINITY or UNREACHED.  The touched obstacles
are those 8-adjacent to a scanned cell, which is every costed cell but
the destination's level when the flood stopped there.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from dataclasses import field as dataclass_field
from functools import cached_property

from .costs import INFINITY, UNREACHED, CostField
from .grid import CODE_OBSTACLE, CODE_PASSABLE, Coord, CornerRule, GridMap


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


#: Translation tables from compiled codes to the binary digits of a mask.
_OPEN_DIGITS = bytes(b"01"[code >= CODE_PASSABLE] for code in range(256))
_OBSTACLE_DIGITS = bytes(b"01"[code == CODE_OBSTACLE] for code in range(256))
#: _LANE_BIT[b] maps the digits of a plane to the bytes 0 and 1 << b.
_LANE_BIT = [bytes.maketrans(b"01", bytes((0, 1 << b))) for b in range(8)]
#: Array typecodes of the 1-, 2- and 4-byte cost lanes.
_LANE_TYPECODE = {1: "B", 2: "H", 4: next(c for c in "IL" if array(c).itemsize == 4)}
#: A re-cut window reaches this many rows (or the frontier's height, if
#: that is more) past the frontier on each side the frontier was about to
#: leave it by, and two rows past it on the other side.
_MARGIN_ROWS = 8


def _mask(codes: bytes, digits: bytes) -> int:
    """The cells whose code ``digits`` maps to b"1", as an int with bit i for cell i."""
    return int(codes.translate(digits)[::-1], 2)


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
    codes, stride = compiled.codes, compiled.stride
    source, destination = compiled.source, compiled.destination
    size = (len(codes) + 7) // 8  # bytes of a map bitset
    reach = stride + 1  # the farthest a bit moves in one level
    unbounded = len(codes)  # room past a window edge that is the map's edge

    open_cells = _mask(codes, _OPEN_DIGITS)
    open_bytes = open_cells.to_bytes(size, "little")
    unreached = bytearray(open_bytes)
    unreached[source >> 3] ^= 1 << (source & 7)
    # Plane p holds the cells whose cost has bit p set.  Its levels come in
    # runs (2^p to 2^(p+1) - 1, then 3 * 2^p to 2^(p+2) - 1, ...): runs[p] is
    # ``todo`` as it was when p's current run began, or None between runs,
    # and the run's cells are runs[p] ^ todo.  They are ORed into the
    # window's plane when the run ends, and into the map's plane when the
    # window is re-cut or the flood ends.  Plane 0's first run is level 1.
    planes = [bytearray(size)]
    runs: list = [0]
    window_planes = [0]

    # The window is bytes [lo, hi) of the map bitsets, held as ints whose
    # bit 0 is cell ``base``.  It starts empty, so the first level cuts it.
    lo = hi = base = bits = 0
    todo = window_open = target = 0  # target: the destination bit to stop at, if in the window
    frontier = 1 << source
    safe = 0  # levels the frontier can still expand without leaving the window
    k = last = 0
    while True:
        while not safe:
            first = (frontier & -frontier).bit_length() - 1
            top = frontier.bit_length() - 1
            low = first if lo else unbounded
            high = bits - 1 - top if hi < size else unbounded
            if min(low, high) >= reach:
                safe = min(low, high) // reach
                continue
            _store(unreached, planes, runs, window_planes, todo, lo, hi)
            ahead = max(_MARGIN_ROWS * stride, top - first)
            old = base
            lo = max(0, base + first - (ahead if low < reach else 2 * reach) >> 3)
            hi = min(size, (base + top + (ahead if high < reach else 2 * reach) >> 3) + 1)
            base, bits = lo << 3, (hi - lo) << 3
            frontier = frontier << old - base if old > base else frontier >> base - old
            todo = int.from_bytes(unreached[lo:hi], "little")
            runs = [None if run is None else todo for run in runs]
            window_planes = [0] * len(planes)
            if forbid:
                window_open = int.from_bytes(open_bytes[lo:hi], "little")
            target = 0
            if stop_at_destination and destination is not None and base <= destination < base + bits:
                target = 1 << destination - base
        if forbid:
            # A diagonal is admissible when one of its two flanks is open.
            flank_h = (frontier << 1 | frontier >> 1) & window_open
            flank_v = (frontier << stride | frontier >> stride) & window_open
            wave = (
                flank_h | flank_h << stride | flank_h >> stride
                | flank_v | flank_v << 1 | flank_v >> 1
            ) & todo
        else:
            row = frontier | frontier << 1 | frontier >> 1
            wave = (row | row << stride | row >> stride) & todo
        if not wave:
            break
        k += 1
        todo ^= wave
        ended = (k + 1 & -(k + 1)).bit_length() - 1  # the runs of planes below this end at k
        for p in range(ended):
            window_planes[p] |= runs[p] ^ todo
            runs[p] = None
        if ended == len(runs):
            planes.append(bytearray(size))
            window_planes.append(0)
            runs.append(todo)
        else:
            runs[ended] = todo
        if wave & target:
            last = wave << base
            break
        frontier = wave
        safe -= 1

    _store(unreached, planes, runs, window_planes, todo, lo, hi)
    still = int.from_bytes(unreached, "little")
    costed = open_cells ^ still
    # Every costed level was scanned but the destination's, when it stopped the flood.
    scanned = costed ^ last
    row = scanned | scanned << 1 | scanned >> 1
    touched = (row | row << stride | row >> stride) & _mask(codes, _OBSTACLE_DIGITS)
    field = CostField(grid.width, grid.height, _rebuild(compiled, planes, k, costed, touched))
    reached = destination is not None and not still >> destination & 1
    return FloodOutcome(field, reached, k, grid)


def _store(unreached, planes, runs, window_planes, todo, lo, hi) -> None:
    """Write the window back into the map bitsets, with its open runs' cells so far."""
    unreached[lo:hi] = todo.to_bytes(hi - lo, "little")
    for plane, run, cells in zip(planes, runs, window_planes):
        if run is not None:
            cells |= run ^ todo
        if cells:
            plane[lo:hi] = (int.from_bytes(plane[lo:hi], "little") | cells).to_bytes(hi - lo, "little")


def _rebuild(compiled, planes: list[bytearray], top: int, costed: int, touched: int) -> tuple:
    """The row-major field values from the bit planes of the costs up to ``top``.

    Cell i's lane is its cost, ``top + 1`` if it is in ``touched`` and
    ``top + 2`` otherwise; the lanes are 1, 2 or 4 bytes wide, whichever
    holds ``top + 2``, and one table lookup per cell turns them into costs,
    INFINITY and UNREACHED.
    """
    cells = len(compiled.codes)
    untouched = ((1 << cells) - 1) ^ costed ^ touched
    depth = (top + 2).bit_length()
    lane = 1 if depth <= 8 else 2 if depth <= 16 else 4
    bitsets = [int.from_bytes(plane, "little") for plane in planes]
    bitsets += [0] * (depth - len(bitsets))
    for p in range(depth):
        if top + 1 >> p & 1:
            bitsets[p] |= touched
        if top + 2 >> p & 1:
            bitsets[p] |= untouched
    lanes = bytearray(cells * lane)
    digits = f"0{cells}b"
    for byte in range(lane):
        acc = 0
        for p in range(8 * byte, min(8 * byte + 8, depth)):
            acc |= int.from_bytes(format(bitsets[p], digits).encode().translate(_LANE_BIT[p & 7]), "big")
        lanes[byte::lane] = acc.to_bytes(cells, "little")
    stride, row_width = compiled.stride, compiled.width
    inside = b"".join(
        lanes[i * lane : (i + row_width) * lane]
        for i in range(stride + 1, cells - stride, stride)
    )
    costs = array(_LANE_TYPECODE[lane], inside)
    if sys.byteorder == "big":
        costs.byteswap()
    table = [*range(top + 1), INFINITY, UNREACHED]
    return tuple(map(table.__getitem__, costs))


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
