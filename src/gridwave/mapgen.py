"""Deterministic random map generation for benchmarks and tests.

The generator must produce the same map for the same seed on every
platform and Python version, so it uses its own tiny PRNG (SplitMix64)
instead of ``random.Random``, whose stream is not guaranteed stable
across versions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnsatisfiableError
from .grid import CellKind, Coord, CornerRule, GridMap
from .wavefront import flood

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 PRNG: a 64-bit state walked by a Weyl constant.

    Tiny, fast, passes BigCrush, and trivially portable -- the entire
    algorithm is the three xor-shift/multiply rounds below.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randrange(self, n: int) -> int:
        """Uniform int in [0, n), unbiased via rejection sampling."""
        if n <= 0:
            raise ValueError("randrange bound must be positive")
        limit = _MASK64 + 1 - ((_MASK64 + 1) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n


@dataclass(frozen=True)
class GenSpec:
    """Parameters for one random map: size, obstacle density, seed.

    The border is always solid wall; ``density`` is the probability that
    each interior cell is an obstacle.  With ``require_solvable`` the
    generator retries (advancing the same random stream) until source
    and destination are connected.
    """

    width: int
    height: int
    density: float
    seed: int
    require_solvable: bool = False

    def __post_init__(self):
        if self.width < 3 or self.height < 3:
            raise ValueError("map must be at least 3x3 to have an interior")
        if not 0.0 <= self.density <= 1.0:
            raise ValueError(f"density must be within [0, 1], got {self.density}")


def generate_map(
    spec: GenSpec,
    rule: CornerRule = CornerRule.ALLOW,
    max_attempts: int = 100,
) -> GridMap:
    """Generate a bordered random map with one source and one destination.

    Interior cells become obstacles independently with probability
    ``spec.density`` (row-major draw order), then source and destination
    are placed on two distinct passable cells chosen uniformly.  An
    attempt with fewer than two passable cells fails; with
    ``require_solvable`` an attempt whose destination is unreachable
    under ``rule`` fails too.  Raises UnsatisfiableError when
    ``max_attempts`` attempts all fail.
    """
    rule = CornerRule.coerce(rule)
    rng = SplitMix64(spec.seed)
    for _ in range(max_attempts):
        grid = _one_attempt(spec, rng)
        if grid is None:
            continue
        if spec.require_solvable and not flood(grid, rule).reached_destination:
            continue
        return grid
    raise UnsatisfiableError(
        f"no acceptable {spec.width}x{spec.height} map at density {spec.density} "
        f"for seed {spec.seed} within {max_attempts} attempts"
    )


def _one_attempt(spec: GenSpec, rng: SplitMix64) -> GridMap | None:
    cells: list[CellKind] = []
    passable: list[int] = []
    for row in range(spec.height):
        for col in range(spec.width):
            on_border = row in (0, spec.height - 1) or col in (0, spec.width - 1)
            if on_border:
                cells.append(CellKind.BOUNDARY)
            elif rng.random() < spec.density:
                cells.append(CellKind.OBSTACLE)
            else:
                cells.append(CellKind.PASSABLE)
                passable.append(len(cells) - 1)
    if len(passable) < 2:
        return None
    source_index = passable.pop(rng.randrange(len(passable)))
    destination_index = passable[rng.randrange(len(passable))]
    cells[source_index] = CellKind.SOURCE
    cells[destination_index] = CellKind.DESTINATION
    return GridMap(
        spec.width,
        spec.height,
        tuple(cells),
        Coord(source_index // spec.width, source_index % spec.width),
        Coord(destination_index // spec.width, destination_index % spec.width),
    )
