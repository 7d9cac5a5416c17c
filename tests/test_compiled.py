"""The compiled grid under every kernel, checked against references built here.

Maps include borderless ones, 1xN and Nx1 strips and boundary cells
inside the map.  Each property holds under both corner rules.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BOTH_RULES, any_map_text
from gridwave import (
    INFINITY,
    UNREACHED,
    CellKind,
    Coord,
    CornerRule,
    IterationRecord,
    backtrack,
    bfs8_distance_field,
    descend_candidates,
    flood,
    neighbors8,
    parse_map,
    render_map,
)
from gridwave.grid import SYMBOL_OF_CODE

#: Clockwise from up, written out here rather than taken from the package.
CLOCKWISE = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))
ORTHOGONAL = ((-1, 0), (0, 1), (1, 0), (0, -1))


def _blocking(grid, row: int, col: int) -> bool:
    if not (0 <= row < grid.height and 0 <= col < grid.width):
        return True
    return grid.cells[row * grid.width + col] in (CellKind.BOUNDARY, CellKind.OBSTACLE)


def reference_neighbours(grid, at: Coord, rule: CornerRule) -> list:
    """neighbors8 from its docstring: in-bounds traversable targets,
    clockwise from up; FORBID drops a diagonal whose two flanks (possibly
    outside the grid) both block."""
    found = []
    for d_row, d_col in CLOCKWISE:
        row, col = at.row + d_row, at.col + d_col
        if _blocking(grid, row, col):
            continue
        if (
            rule is CornerRule.FORBID
            and d_row
            and d_col
            and _blocking(grid, at.row + d_row, at.col)
            and _blocking(grid, at.row, at.col + d_col)
        ):
            continue
        found.append(Coord(row, col))
    return found


def derived_trace(grid, field) -> tuple:
    """The trace recomputed from the field alone.

    costed_k is the cells of cost k; new_sources_k is the cells of cost k
    with an orthogonal obstacle neighbour 8-adjacent to a cell of cost k-1.
    """

    def cost(row, col):
        if 0 <= row < grid.height and 0 <= col < grid.width:
            return field.values[row * grid.width + col]
        return None

    def is_obstacle(row, col):
        inside = 0 <= row < grid.height and 0 <= col < grid.width
        return inside and grid.cells[row * grid.width + col] is CellKind.OBSTACLE

    levels: dict = {}
    for at, k in field.finite_cells():
        if k > 0:
            levels.setdefault(k, set()).add(at)
    records = []
    for k in sorted(levels):
        new_sources = {
            at
            for at in levels[k]
            if any(
                is_obstacle(at.row + o_row, at.col + o_col)
                and any(
                    cost(at.row + o_row + d_row, at.col + o_col + d_col) == k - 1
                    for d_row, d_col in CLOCKWISE
                )
                for o_row, o_col in ORTHOGONAL
            )
        }
        records.append(IterationRecord(k, frozenset(levels[k]), frozenset(new_sources)))
    return tuple(records)


@given(any_map_text())
@settings(max_examples=150, deadline=None)
def test_full_flood_field_equals_the_oracle(text):
    grid = parse_map(text)
    for rule in BOTH_RULES:
        outcome = flood(grid, rule, stop_at_destination=False)
        assert outcome.field == bfs8_distance_field(grid, rule)


def truncated_oracle(grid, full) -> tuple:
    """The field of a flood that stops at D, from the oracle's ``full`` field.

    With D at cost L, costs up to L stay, INFINITY stays only on obstacles
    8-adjacent to a cell of cost below L (the levels that were scanned),
    and every other cell is UNREACHED.  With D unreached or absent it is
    the full field.
    """
    if grid.destination is None or not full.is_finite(grid.destination):
        return full.values
    last = full.at(grid.destination)

    def scanned_nearby(at):
        for d_row, d_col in CLOCKWISE:
            row, col = at.row + d_row, at.col + d_col
            if 0 <= row < grid.height and 0 <= col < grid.width:
                cost = full.values[row * grid.width + col]
                if type(cost) is int and cost < last:
                    return True
        return False

    values = []
    for at, cost in zip(grid.coords(), full.values):
        if type(cost) is int and cost <= last:
            values.append(cost)
        elif grid.cells[grid.index(at)] is CellKind.OBSTACLE and scanned_nearby(at):
            values.append(INFINITY)
        else:
            values.append(UNREACHED)
    return tuple(values)


@given(any_map_text())
@settings(max_examples=150, deadline=None)
def test_stopped_flood_field_equals_the_truncated_oracle(text):
    grid = parse_map(text)
    for rule in BOTH_RULES:
        outcome = flood(grid, rule, stop_at_destination=True)
        assert outcome.field.values == truncated_oracle(grid, bfs8_distance_field(grid, rule))
        assert outcome.reached_destination == (
            grid.destination is not None and outcome.field.is_finite(grid.destination)
        )


@given(any_map_text())
@settings(max_examples=150, deadline=None)
def test_neighbours_match_the_docstring_rules(text):
    grid = parse_map(text)
    for rule in BOTH_RULES:
        for at in grid.coords():
            assert neighbors8(grid, at, rule) == reference_neighbours(grid, at, rule)


@given(any_map_text(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_trace_is_derivable_from_the_field(text, stop):
    grid = parse_map(text)
    for rule in BOTH_RULES:
        outcome = flood(grid, rule, stop_at_destination=stop)
        records = derived_trace(grid, outcome.field)
        assert outcome.trace.iterations == records
        assert outcome.iterations_run == len(records)


def serpentine(corridors: int, width: int) -> str:
    """A one-cell corridor winding between ``@`` walls, D midway along the last run."""
    rows = []
    for run in range(corridors):
        rows.append("." * width)
        if run < corridors - 1:
            gap = width - 1 if run % 2 == 0 else 0
            rows.append("".join("." if col == gap else "@" for col in range(width)))
    rows[0] = "S" + rows[0][1:]
    rows[-1] = rows[-1][: width // 2] + "D" + rows[-1][width // 2 + 1 :]
    ring = "#" * (width + 2)
    return "\n".join([ring, *(f"#{row}#" for row in rows), ring]) + "\n"


@pytest.mark.parametrize("stop", [True, False])
@pytest.mark.parametrize("rule", BOTH_RULES)
def test_trace_of_a_thousand_level_corridor_is_derived_from_the_field(rule, stop):
    grid = parse_map(serpentine(corridors=30, width=40))
    outcome = flood(grid, rule, stop_at_destination=stop)
    assert outcome.iterations_run >= 1000
    assert outcome.trace.iterations == derived_trace(grid, outcome.field)
    assert outcome.iterations_run == len(outcome.trace.iterations)
    assert any(record.new_sources for record in outcome.trace.iterations)


@pytest.mark.parametrize(
    "corridors,width,levels",
    [
        # Full floods of 253 to 256 levels and of 65,533 and 71,820 levels:
        # each side of a cost lane growing from 1 to 2 and from 2 to 4 bytes.
        (11, 24, 253),
        (2, 128, 254),
        (15, 18, 255),
        (8, 33, 256),
        (71, 924, 65_533),
        (180, 400, 71_820),
    ],
)
def test_floods_on_each_side_of_a_lane_switch_equal_the_oracle(corridors, width, levels):
    grid = parse_map(serpentine(corridors, width))
    for rule in BOTH_RULES:
        oracle = bfs8_distance_field(grid, rule)
        full = flood(grid, rule, stop_at_destination=False)
        assert full.iterations_run == levels
        assert full.field == oracle
        stopped = flood(grid, rule)
        assert stopped.reached_destination
        assert stopped.iterations_run == stopped.field.at(grid.destination) < levels
        assert stopped.field.values == truncated_oracle(grid, oracle)


def test_a_plain_flood_builds_no_trace():
    text = serpentine(corridors=3, width=6)
    outcome = flood(parse_map(text))
    assert "trace" not in vars(outcome)
    assert outcome.trace is outcome.trace
    assert "trace" in vars(outcome)
    # The flooded grid, like GridMap.compiled, takes no part in equality or repr.
    again = flood(parse_map(text))
    assert again == outcome and again.grid is not outcome.grid
    assert "grid" not in repr(outcome)


@given(any_map_text(fill="........@#"))
@settings(max_examples=100, deadline=None)
def test_all_paths_keep_the_canonical_order(text):
    grid = parse_map(text)
    if grid.destination is None:
        return
    for rule in BOTH_RULES:
        field = flood(grid, rule).field
        if not field.is_finite(grid.destination):
            continue
        expected = []

        def walk(trail):
            if field.at(trail[-1]) == 0:
                expected.append(tuple(reversed(trail)))
                return
            for below in descend_candidates(field, grid, trail[-1], rule):
                walk(trail + [below])

        walk([grid.destination])
        got = backtrack(field, grid, rule, mode="all", max_paths=len(expected) + 1)
        assert [path.cells for path in got] == expected
        assert not got.truncated


@given(any_map_text())
@settings(max_examples=100, deadline=None)
def test_compiled_codes_spell_the_map_inside_a_wall_ring(text):
    grid = parse_map(text)
    compiled = grid.compiled
    symbols = compiled.codes.translate(SYMBOL_OF_CODE).decode()
    stride = compiled.stride
    rows = [symbols[row * stride : (row + 1) * stride] for row in range(grid.height + 2)]
    assert rows[0] == rows[-1] == "#" * stride
    assert all(row[0] == row[-1] == "#" for row in rows)
    assert "".join(row[1:-1] + "\n" for row in rows[1:-1]) == render_map(grid)


@pytest.mark.parametrize("build_first", [0, 1])
def test_compiled_form_takes_no_part_in_equality(build_first):
    text = "#####\n#S.D#\n#####\n"
    grids = [parse_map(text), parse_map(text)]
    assert grids[build_first].compiled is grids[build_first].compiled
    assert grids[1 - build_first]._compiled is None
    assert grids[0] == grids[1]
    assert hash(grids[0]) == hash(grids[1])
    assert repr(grids[0]) == repr(grids[1])
    assert len({grids[0], grids[1]}) == 1
