"""Shared fixtures: the checked-in maps and a deterministic generated pool."""

from __future__ import annotations

from pathlib import Path

import pytest

from gridwave import CellKind, CornerRule, GenSpec, GridMap, generate_map, parse_map, render_map

FIXTURE_DIR = Path(__file__).parent / "fixtures"

#: PASS/FAIL lines the acceptance tests append; printed after the run.
ACCEPTANCE_VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)

#: Every checked-in map, by stem name.
FIXTURE_NAMES = ("room", "detour", "forked", "sealed", "pocket", "euclid_trap")

#: Fixture maps whose destination is reachable (under either corner rule).
SOLVABLE_FIXTURES = ("room", "detour", "forked", "pocket", "euclid_trap")

BOTH_RULES = (CornerRule.ALLOW, CornerRule.FORBID)


def fixture_text(name: str) -> str:
    return (FIXTURE_DIR / f"{name}.map").read_text(encoding="utf-8")


def fixture_map(name: str) -> GridMap:
    return parse_map(fixture_text(name))


@pytest.fixture(params=FIXTURE_NAMES)
def any_fixture(request) -> GridMap:
    return fixture_map(request.param)


@pytest.fixture(scope="session")
def generated_pool() -> tuple:
    """Thirty small random maps shared by the property-style unit tests."""
    return tuple(
        generate_map(GenSpec(12, 10, 0.25, seed)) for seed in range(1, 31)
    )


def wall_off_destination(grid: GridMap) -> GridMap:
    """Copy of ``grid`` with every traversable cell around D made an obstacle.

    The source must not be one of those cells; callers pick maps where
    source and destination are at least two king moves apart.
    """
    destination = grid.destination
    assert destination is not None
    rows = [list(line) for line in render_map(grid).splitlines()]
    for d_row in (-1, 0, 1):
        for d_col in (-1, 0, 1):
            if d_row == 0 and d_col == 0:
                continue
            row, col = destination.row + d_row, destination.col + d_col
            if 0 <= row < grid.height and 0 <= col < grid.width:
                if rows[row][col] == "S":
                    raise AssertionError("source sits beside the destination")
                if rows[row][col] == ".":
                    rows[row][col] = "@"
    return parse_map("\n".join("".join(line) for line in rows) + "\n")


# Reading-order offsets for the oracle-side helpers in the tests; kept
# separate from the package's clockwise constant on purpose.
ORACLE_OFFSETS = (
    (-1, -1), (-1, 0), (-1, 1),
    (0, -1), (0, 1),
    (1, -1), (1, 0), (1, 1),
)


def oracle_step_ok(grid: GridMap, at, d_row: int, d_col: int, rule: CornerRule) -> bool:
    """Independent admissibility predicate used by the test-side oracles."""
    to = (at[0] + d_row, at[1] + d_col)
    if not grid.is_traversable(to):
        return False
    if rule is CornerRule.FORBID and d_row != 0 and d_col != 0:
        flank_a = (at[0] + d_row, at[1])
        flank_b = (at[0], at[1] + d_col)
        if not grid.is_traversable(flank_a) and not grid.is_traversable(flank_b):
            return False
    return True


def brute_force_descents(field, grid: GridMap, rule: CornerRule) -> set:
    """Every monotone-descent path source->destination, by blind DFS.

    Independent of the package's backtracker: its own offsets, its own
    admissibility check, and no reliance on candidate ordering.  Returns
    paths as tuples of (row, col) tuples; empty when the destination has
    no finite cost.
    """
    destination = grid.destination
    assert destination is not None
    if not field.is_finite(destination):
        return set()
    results = set()

    def descend(at, acc):
        cost = field.at(at)
        if cost == 0:
            results.add(tuple(reversed(acc)))
            return
        for d_row, d_col in ORACLE_OFFSETS:
            to = (at[0] + d_row, at[1] + d_col)
            if not oracle_step_ok(grid, at, d_row, d_col, rule):
                continue
            if field.at(to) == cost - 1:
                descend(to, acc + [to])

    start = (destination.row, destination.col)
    descend(start, [start])
    return results


def count_kind(grid: GridMap, kind: CellKind) -> int:
    return grid.count(kind)


def map_texts(max_width: int = 12, max_height: int = 9):
    """Hypothesis strategy for bordered random map texts with S and D."""
    from hypothesis import strategies as st

    @st.composite
    def build(draw) -> str:
        width = draw(st.integers(4, max_width))
        height = draw(st.integers(4, max_height))
        interior = [
            (row, col) for row in range(1, height - 1) for col in range(1, width - 1)
        ]
        blocked = draw(
            st.lists(
                st.sampled_from(interior), max_size=max(0, len(interior) - 2), unique=True
            )
        )
        open_cells = [cell for cell in interior if cell not in set(blocked)]
        source = draw(st.sampled_from(open_cells))
        remaining = [cell for cell in open_cells if cell != source]
        destination = draw(st.sampled_from(remaining))
        rows = []
        for row in range(height):
            line = []
            for col in range(width):
                if row in (0, height - 1) or col in (0, width - 1):
                    line.append("#")
                elif (row, col) == source:
                    line.append("S")
                elif (row, col) == destination:
                    line.append("D")
                elif (row, col) in set(blocked):
                    line.append("@")
                else:
                    line.append(".")
            rows.append("".join(line))
        return "\n".join(rows) + "\n"

    return build()


def any_map_text(fill: str = "....@@#"):
    """Hypothesis strategy for unbordered maps of any shape, strips
    included, with S and maybe D.

    Cells are drawn uniformly from ``fill``, so its mix sets the density.
    """
    from hypothesis import strategies as st

    @st.composite
    def build(draw) -> str:
        width, height = draw(
            st.one_of(
                st.tuples(st.just(1), st.integers(2, 16)),
                st.tuples(st.integers(2, 16), st.just(1)),
                st.tuples(st.integers(1, 12), st.integers(1, 9)),
            )
        )
        cells = draw(
            st.lists(st.sampled_from(fill), min_size=width * height, max_size=width * height)
        )
        places = draw(st.permutations(range(width * height)))
        cells[places[0]] = "S"
        if len(places) > 1 and draw(st.booleans()):
            cells[places[1]] = "D"
        rows = ["".join(cells[row * width : (row + 1) * width]) for row in range(height)]
        return "\n".join(rows) + "\n"

    return build()
