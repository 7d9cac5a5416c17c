"""Grid model: coordinates, cell kinds, adjacency, and the ASCII map format.

Map files are UTF-8 text, one row per line, top row first:

    ``#``  boundary wall          ``@``  obstacle
    ``.``  passable cell          ``S``  source (exactly one)
    ``D``  destination (at most one)

Maps do not need a closed ``#`` border; anything outside the grid behaves
like boundary.

The kernels (flood, backtrack, Dijkstra, A*, path overlay) run on
``GridMap.compiled``, a CompiledGrid of flat byte codes and int indices
built once per map; Coord appears only where results leave them.
"""

from __future__ import annotations

import re
from dataclasses import KW_ONLY, InitVar, dataclass, field
from enum import Enum
from typing import Iterator, NamedTuple

from .errors import (
    MapFormatError,
    MultipleDestinationsError,
    MultipleSourcesError,
    NoSourceError,
    RaggedRowsError,
    UnknownSymbolError,
)


class Coord(NamedTuple):
    """Zero-based (row, col) grid position."""

    row: int
    col: int


class CellKind(Enum):
    """What occupies a cell; the enum value is the map symbol."""

    BOUNDARY = "#"
    OBSTACLE = "@"
    PASSABLE = "."
    SOURCE = "S"
    DESTINATION = "D"

    @property
    def symbol(self) -> str:
        return self.value

    @property
    def traversable(self) -> bool:
        """Source and destination count as passable for movement."""
        return self in (CellKind.PASSABLE, CellKind.SOURCE, CellKind.DESTINATION)


_KIND_BY_SYMBOL = {kind.value: kind for kind in CellKind}

#: Matches a character outside the map alphabet.
_FOREIGN_SYMBOL = re.compile(r"[^#@.SD]")


class Choice(str, Enum):
    """Base of the two-way string options (CornerRule, Heuristic).

    ``coerce`` accepts a member or its value; the error names the option
    after its class ("CornerRule" -> "corner rule") and lists the values.
    """

    @classmethod
    def coerce(cls, value: "Choice | str") -> "Choice":
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            option = re.sub(r"(?<=[a-z])(?=[A-Z])", " ", cls.__name__).lower()
            expected = " or ".join(repr(member.value) for member in cls)
            raise ValueError(f"unknown {option} {value!r}; expected {expected}") from None


class CornerRule(Choice):
    """Whether a diagonal step may squeeze between two blocked orthogonals.

    ALLOW permits every diagonal into a traversable cell.  FORBID drops a
    diagonal neighbor when *both* cells flanking the step (the two
    orthogonal cells the move slides between) are obstacles or boundary.
    """

    ALLOW = "allow"
    FORBID = "forbid"


#: The eight neighbor offsets in canonical clockwise-from-up order.
OFFSETS_CLOCKWISE: tuple[tuple[int, int], ...] = (
    (-1, 0),   # up
    (-1, 1),   # up-right
    (0, 1),    # right
    (1, 1),    # down-right
    (1, 0),    # down
    (1, -1),   # down-left
    (0, -1),   # left
    (-1, -1),  # up-left
)


@dataclass(frozen=True)
class GridMap:
    """Immutable rectangular grid with one source and an optional destination.

    ``cells`` is row-major; invariants (cell count, exactly one source cell,
    at most one destination, coordinate agreement) are checked on
    construction.
    """

    width: int
    height: int
    cells: tuple[CellKind, ...]
    source: Coord
    destination: Coord | None = None
    _: KW_ONLY
    #: The cells' symbols, row-major, when the caller has them (parse_map).
    _text: InitVar[str | None] = None
    #: The cells' symbols, row-major, as one string.
    _symbols: str = field(default="", init=False, repr=False, compare=False)
    _compiled: "CompiledGrid | None" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self, _text):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("grid dimensions must be positive")
        if len(self.cells) != self.width * self.height:
            raise ValueError(
                f"cell count {len(self.cells)} does not match "
                f"{self.width}x{self.height}"
            )
        # _value_ is the plain attribute behind the slower CellKind.value property.
        symbols = "".join([kind._value_ for kind in self.cells]) if _text is None else _text
        object.__setattr__(self, "_symbols", symbols)
        sources = symbols.count("S")
        destinations = symbols.count("D")
        if sources != 1:
            raise ValueError(f"expected exactly one source cell, found {sources}")
        if destinations > 1:
            raise ValueError(f"expected at most one destination cell, found {destinations}")
        if self.index(self.source) != symbols.index("S"):
            raise ValueError(f"source coordinate {self.source} does not point at the S cell")
        if destinations:
            if self.destination is None or self.index(self.destination) != symbols.index("D"):
                raise ValueError("destination coordinate does not point at the D cell")
        elif self.destination is not None:
            raise ValueError("destination coordinate given but no D cell present")

    def index(self, at: Coord) -> int:
        return at[0] * self.width + at[1]

    def in_bounds(self, at: Coord) -> bool:
        return 0 <= at[0] < self.height and 0 <= at[1] < self.width

    def kind(self, at: Coord) -> CellKind:
        if not self.in_bounds(at):
            raise IndexError(f"{at} is outside the {self.width}x{self.height} grid")
        return self.cells[self.index(at)]

    def is_traversable(self, at: Coord) -> bool:
        """True for an in-bounds passable, source, or destination cell."""
        return self.in_bounds(at) and self.cells[self.index(at)].traversable

    def coords(self) -> Iterator[Coord]:
        for row in range(self.height):
            for col in range(self.width):
                yield Coord(row, col)

    def traversable_cells(self) -> Iterator[Coord]:
        for at in self.coords():
            if self.cells[self.index(at)].traversable:
                yield at

    def count(self, kind: CellKind) -> int:
        return sum(1 for k in self.cells if k is kind)

    @property
    def compiled(self) -> "CompiledGrid":
        """The flat padded form every kernel runs on, built on first use.

        Kept in a field that takes no part in equality, hashing or repr.
        A field rather than functools.cached_property, whose write into
        the instance ``__dict__`` slows every later attribute read of the
        grid by ~10% (frame rendering reads them per cell).
        """
        if self._compiled is None:
            object.__setattr__(self, "_compiled", CompiledGrid(self))
        return self._compiled


#: Cell codes of the compiled grid.  Codes from CODE_PASSABLE up are
#: traversable; the padding ring around the map is CODE_WALL.
CODE_WALL, CODE_OBSTACLE, CODE_PASSABLE, CODE_SOURCE, CODE_DESTINATION = range(5)

_CODE_OF_SYMBOL = bytes.maketrans(b"#@.SD", bytes(range(5)))

#: Translation table from compiled codes back to map symbols.
SYMBOL_OF_CODE = bytes.maketrans(bytes(range(5)), b"#@.SD")


class CompiledGrid:
    """A GridMap as flat ints: one byte per cell inside a one-cell wall ring.

    Cell (row, col) sits at padded index ``(row + 1) * stride + col + 1``,
    so every neighbour of an in-bounds cell is still inside ``codes`` and
    no probe needs a bounds check; outside the map behaves like boundary.
    ``steps`` is the neighbour and corner-rule table: the eight moves in
    OFFSETS_CLOCKWISE order as ``(delta, flank_a, flank_b)`` index offsets.
    A diagonal carries the two orthogonal cells it slides between, which
    CornerRule.FORBID requires not to be blocking both; an orthogonal
    carries flanks of 0, meaning none.
    """

    __slots__ = ("width", "stride", "codes", "steps", "source", "destination")

    def __init__(self, grid: GridMap):
        width, height = grid.width, grid.height
        stride = width + 2
        flat = grid._symbols.encode().translate(_CODE_OF_SYMBOL)
        codes = bytearray(stride * (height + 2))
        for row in range(height):
            start = (row + 1) * stride + 1
            codes[start : start + width] = flat[row * width : (row + 1) * width]
        self.width = width
        self.stride = stride
        self.codes = bytes(codes)
        self.steps = tuple(
            (d_row * stride + d_col, d_row * stride, d_col) if d_row and d_col
            else (d_row * stride + d_col, 0, 0)
            for d_row, d_col in OFFSETS_CLOCKWISE
        )
        self.source = self.index(grid.source)
        self.destination = None if grid.destination is None else self.index(grid.destination)

    def index(self, at: Coord) -> int:
        return (at[0] + 1) * self.stride + at[1] + 1

    def coord(self, i: int) -> Coord:
        row, col = divmod(i, self.stride)
        return Coord(row - 1, col - 1)

    def neighbours(self, i: int, forbid: bool) -> list[int]:
        """Admissible neighbours of in-bounds cell ``i``, clockwise from up."""
        codes = self.codes
        return [
            i + delta
            for delta, flank_a, flank_b in self.steps
            if codes[i + delta] >= CODE_PASSABLE
            and not (
                forbid
                and flank_a
                and codes[i + flank_a] < CODE_PASSABLE
                and codes[i + flank_b] < CODE_PASSABLE
            )
        ]

    def unpadded(self, i: int) -> int:
        """The row-major index (as in GridMap.cells) of padded index ``i``."""
        row, col = divmod(i, self.stride)
        return (row - 1) * self.width + col - 1

    def rows(self, buffer) -> list:
        """The map's rows of a padded buffer (a str or a list of cells), ring excluded."""
        stride, width = self.stride, self.width
        return [buffer[i : i + width] for i in range(stride + 1, len(self.codes) - stride, stride)]


def ensure_destination(grid: GridMap) -> Coord:
    """Return the grid's destination or raise ValueError when it has none."""
    if grid.destination is None:
        raise ValueError("this operation needs a map with a destination cell")
    return grid.destination


def parse_map(text: str) -> GridMap:
    """Parse ASCII map text into a GridMap.

    One trailing newline is tolerated; line order is row order.  Raises
    RaggedRowsError, UnknownSymbolError (with the offending row/col),
    NoSourceError, MultipleSourcesError, or MultipleDestinationsError;
    of several faults, the first in reading order is reported.
    """
    if not text:
        raise MapFormatError("map text is empty")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    lines = [line[:-1] if line.endswith("\r") else line for line in lines]
    if not lines or lines[0] == "":
        raise MapFormatError("map text has no rows")

    width = len(lines[0])
    sources = destinations = 0
    for row, line in enumerate(lines):
        if len(line) != width:
            raise RaggedRowsError(
                f"row {row} has length {len(line)}, expected {width}", row=row
            )
        row_sources, row_destinations = line.count("S"), line.count("D")
        if (
            sources + row_sources > 1
            or destinations + row_destinations > 1
            or _FOREIGN_SYMBOL.search(line)
        ):
            _raise_first_fault(line, row, sources, destinations)
        sources += row_sources
        destinations += row_destinations
    if not sources:
        raise NoSourceError("map has no source cell")
    flat = "".join(lines)
    return GridMap(
        width,
        len(lines),
        tuple(map(_KIND_BY_SYMBOL.__getitem__, flat)),
        Coord(*divmod(flat.index("S"), width)),
        Coord(*divmod(flat.index("D"), width)) if destinations else None,
        _text=flat,
    )


def _raise_first_fault(line: str, row: int, sources: int, destinations: int) -> None:
    """Raise the first fault of a row that parse_map found one in.

    ``sources`` and ``destinations`` count the S and D cells of the rows
    above; the row holds a foreign symbol, a second S or a second D.
    """
    for col, char in enumerate(line):
        if char not in _KIND_BY_SYMBOL:
            raise UnknownSymbolError(
                f"unknown symbol {char!r} at row {row}, col {col}", row=row, col=col
            )
        if char == "S":
            if sources:
                raise MultipleSourcesError(
                    f"second source at row {row}, col {col}", row=row, col=col
                )
            sources = 1
        elif char == "D":
            if destinations:
                raise MultipleDestinationsError(
                    f"second destination at row {row}, col {col}", row=row, col=col
                )
            destinations = 1


def render_map(grid: GridMap) -> str:
    """Inverse of parse_map: canonical text with one trailing newline."""
    compiled = grid.compiled
    return "\n".join(compiled.rows(compiled.codes.translate(SYMBOL_OF_CODE).decode())) + "\n"


def neighbors8(grid: GridMap, at: Coord, rule: CornerRule = CornerRule.ALLOW) -> list[Coord]:
    """Admissible traversable neighbors of ``at`` in clockwise-from-up order.

    Never returns boundary or obstacle cells, never leaves the grid, and
    under ALLOW is symmetric: b in neighbors8(a) iff a in neighbors8(b).
    """
    at = Coord(*at)
    if not grid.in_bounds(at):
        raise ValueError(f"{at} is outside the {grid.width}x{grid.height} grid")
    compiled = grid.compiled
    forbid = CornerRule.coerce(rule) is CornerRule.FORBID
    return [compiled.coord(i) for i in compiled.neighbours(compiled.index(at), forbid)]
