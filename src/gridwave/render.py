"""ASCII rendering of expansion traces, cost fields, and path overlays.

Two frame styles:

* ``marks``   -- the map with cells reached so far drawn as ``*`` and the
  new sources among them as ``N``; source and destination keep their
  letters, so frame 0 is exactly the input map.
* ``costs``   -- every reached cell drawn as its cost (the source is
  ``0`` from frame 0 on); obstacles stay ``@``, boundary ``#``,
  unreached cells ``.``, and an unreached destination keeps its ``D``.
  When the largest cost needs several digits, cells are right-aligned
  to a fixed width and separated by single spaces.
"""

from __future__ import annotations

from dataclasses import dataclass

from .costs import CostField
from .errors import DimensionMismatchError
from .grid import CODE_PASSABLE, SYMBOL_OF_CODE, CellKind, Coord, GridMap
from .paths import Path
from .wavefront import FloodTrace

STYLES = ("marks", "costs")


@dataclass(frozen=True)
class Frame:
    """One rendered snapshot: the state after iteration ``k``."""

    k: int
    rows: tuple[str, ...]

    @property
    def text(self) -> str:
        return "\n".join(self.rows) + "\n"


@dataclass(frozen=True)
class FrameSequence:
    frames: tuple[Frame, ...]

    def __iter__(self):
        return iter(self.frames)

    def __len__(self):
        return len(self.frames)

    def __getitem__(self, i) -> Frame:
        return self.frames[i]

    def to_text(self) -> str:
        """All frames, each under a ``k=<n>`` header, blank-line separated."""
        return "\n".join(f"k={frame.k}\n{frame.text}" for frame in self.frames)


def render_trace(grid: GridMap, trace: FloodTrace, style: str = "marks") -> FrameSequence:
    """Render an expansion trace as cumulative frames k=0..K."""
    if (trace.width, trace.height) != (grid.width, grid.height):
        raise DimensionMismatchError(
            f"trace is {trace.width}x{trace.height} "
            f"but the map is {grid.width}x{grid.height}"
        )
    if style not in STYLES:
        raise ValueError(f"unknown style {style!r}; expected one of {STYLES}")
    if style == "marks":
        return _marks_frames(grid, trace)
    return _costs_frames(grid, trace)


def _marks_frames(grid: GridMap, trace: FloodTrace) -> FrameSequence:
    reached: set[Coord] = set()
    sources: set[Coord] = set()

    def cell_char(at: Coord) -> str:
        kind = grid.kind(at)
        if kind in (CellKind.SOURCE, CellKind.DESTINATION, CellKind.BOUNDARY, CellKind.OBSTACLE):
            return kind.symbol
        if at in sources:
            return "N"
        if at in reached:
            return "*"
        return "."

    frames = [Frame(0, _rows(grid, cell_char))]
    for record in trace.iterations:
        reached |= record.costed
        sources |= record.new_sources
        frames.append(Frame(record.k, _rows(grid, cell_char)))
    return FrameSequence(tuple(frames))


def _costs_frames(grid: GridMap, trace: FloodTrace) -> FrameSequence:
    width = _digit_width(max((record.k for record in trace.iterations), default=0))
    cost_of: dict[Coord, int] = {grid.source: 0}

    frames = [Frame(0, _cost_rows(grid, cost_of, width))]
    for record in trace.iterations:
        for at in record.costed:
            cost_of[at] = record.k
        frames.append(Frame(record.k, _cost_rows(grid, cost_of, width)))
    return FrameSequence(tuple(frames))


def render_cost_field(grid: GridMap, field: CostField) -> str:
    """One costs-style snapshot of a finished field (not a frame sequence)."""
    if not field.matches(grid):
        raise DimensionMismatchError(
            f"field is {field.width}x{field.height} "
            f"but the map is {grid.width}x{grid.height}"
        )
    cost_of = dict(field.finite_cells())
    rows = _cost_rows(grid, cost_of, _digit_width(field.max_finite() or 0))
    return "\n".join(rows) + "\n"


def render_path_overlay(grid: GridMap, path: Path) -> str:
    """The map with the path's intermediate cells drawn as ``*``."""
    compiled = grid.compiled
    chars = bytearray(compiled.codes.translate(SYMBOL_OF_CODE))
    for row, col in path.cells:
        if 0 <= row < grid.height and 0 <= col < grid.width:
            i = compiled.index((row, col))
            if compiled.codes[i] == CODE_PASSABLE:
                chars[i] = ord("*")
    text = chars.decode()
    stride = compiled.stride
    return "".join(
        text[start : start + grid.width] + "\n"
        for start in range(stride + 1, stride * (grid.height + 1), stride)
    )


def _rows(grid: GridMap, cell_char) -> tuple[str, ...]:
    return tuple(
        "".join(cell_char(Coord(row, col)) for col in range(grid.width))
        for row in range(grid.height)
    )


def _digit_width(max_cost: int) -> int:
    return len(str(max_cost)) if max_cost > 0 else 1


def _cost_rows(grid: GridMap, cost_of: dict, width: int) -> tuple[str, ...]:
    def cell_char(at: Coord) -> str:
        kind = grid.kind(at)
        if kind is CellKind.BOUNDARY or kind is CellKind.OBSTACLE:
            return kind.symbol
        cost = cost_of.get(at)
        if cost is not None:
            return str(cost)
        if kind is CellKind.DESTINATION:
            return "D"
        return "."

    separator = " " if width > 1 else ""
    return tuple(
        separator.join(cell_char(Coord(row, col)).rjust(width) for col in range(grid.width))
        for row in range(grid.height)
    )
