"""ASCII rendering of expansion traces and path overlays.

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

from .errors import DimensionMismatchError
from .grid import CODE_PASSABLE, SYMBOL_OF_CODE, GridMap
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
    codes, rows = grid.compiled.codes, grid.compiled.rows
    chars = bytearray(codes.translate(SYMBOL_OF_CODE))
    frames = [Frame(0, tuple(rows(chars.decode())))]
    for record in trace.iterations:
        for i in _inside(grid, record.costed):
            if chars[i] == _DOT:  # a new source keeps its N when costed again
                chars[i] = _STAR
        for i in _inside(grid, record.new_sources):
            if codes[i] == CODE_PASSABLE:
                chars[i] = _NEW_SOURCE
        frames.append(Frame(record.k, tuple(rows(chars.decode()))))
    return FrameSequence(tuple(frames))


def _costs_frames(grid: GridMap, trace: FloodTrace) -> FrameSequence:
    width = _digit_width(max((record.k for record in trace.iterations), default=0))
    separator = " " if width > 1 else ""
    codes, rows = grid.compiled.codes, grid.compiled.rows
    cells = _cost_cells(grid, width)
    cells[grid.compiled.source] = "0".rjust(width)
    frames = [Frame(0, tuple(map(separator.join, rows(cells))))]
    for record in trace.iterations:
        cost = str(record.k).rjust(width)
        for i in _inside(grid, record.costed):
            if codes[i] >= CODE_PASSABLE:
                cells[i] = cost
        frames.append(Frame(record.k, tuple(map(separator.join, rows(cells)))))
    return FrameSequence(tuple(frames))


def render_path_overlay(grid: GridMap, path: Path) -> str:
    """The map with the path's intermediate cells drawn as ``*``."""
    codes = grid.compiled.codes
    chars = bytearray(codes.translate(SYMBOL_OF_CODE))
    for i in _inside(grid, path.cells):
        if codes[i] == CODE_PASSABLE:
            chars[i] = _STAR
    return "\n".join(grid.compiled.rows(chars.decode())) + "\n"


#: Marks-style glyphs as byte values of the padded character buffer.
_DOT, _STAR, _NEW_SOURCE = b".*N"

#: Costs-style glyph of each compiled code before the wave costs the cell.
_UNCOSTED = ("#", "@", ".", ".", "D")


def _inside(grid: GridMap, cells) -> list[int]:
    """Padded indices of the ``(row, col)`` cells that lie in the grid."""
    width, height, stride = grid.width, grid.height, grid.compiled.stride
    return [
        (row + 1) * stride + col + 1
        for row, col in cells
        if 0 <= row < height and 0 <= col < width
    ]


def _cost_cells(grid: GridMap, width: int) -> list[str]:
    """Padded per-cell costs-style strings of an uncosted map, each ``width`` wide."""
    glyphs = [glyph.rjust(width) for glyph in _UNCOSTED]
    return [glyphs[code] for code in grid.compiled.codes]


def _digit_width(max_cost: int) -> int:
    return len(str(max_cost)) if max_cost > 0 else 1
