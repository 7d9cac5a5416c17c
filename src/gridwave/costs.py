"""Per-cell cost values produced by grid expansions.

A cell's cost is one of three things: a non-negative int (the iteration
at which the wave first reached it), INFINITY for an obstacle the wave
has inspected, or UNREACHED for cells the wave never touched.  INFINITY
is ``math.inf``, so no finite iteration count can ever collide with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .grid import Coord, GridMap

UNREACHED = None
INFINITY = math.inf

CostValue = "int | float | None"


@dataclass(frozen=True)
class CostField:
    """Immutable row-major field of per-cell costs for one grid."""

    width: int
    height: int
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.width * self.height:
            raise ValueError(
                f"value count {len(self.values)} does not match "
                f"{self.width}x{self.height}"
            )

    def at(self, cell: Coord):
        row, col = cell
        if not (0 <= row < self.height and 0 <= col < self.width):
            raise IndexError(f"{cell!r} is outside the {self.width}x{self.height} field")
        return self.values[row * self.width + col]

    __getitem__ = at

    def is_finite(self, cell: Coord) -> bool:
        return isinstance(self.at(cell), int)

    def finite_cells(self) -> Iterator[tuple[Coord, int]]:
        """(coordinate, cost) pairs for reached cells, row-major."""
        for i, value in enumerate(self.values):
            if isinstance(value, int):
                yield Coord(i // self.width, i % self.width), value

    def finite_count(self) -> int:
        return sum(1 for v in self.values if isinstance(v, int))

    def matches(self, grid: GridMap) -> bool:
        return self.width == grid.width and self.height == grid.height
