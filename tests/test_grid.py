"""Grid model: parsing, rendering, adjacency, and the corner rule."""

import pytest
from hypothesis import given, settings

from conftest import BOTH_RULES, FIXTURE_NAMES, fixture_map, fixture_text, map_texts
from gridwave import (
    CellKind,
    Coord,
    CornerRule,
    GridMap,
    MapFormatError,
    MultipleDestinationsError,
    MultipleSourcesError,
    NoSourceError,
    RaggedRowsError,
    UnknownSymbolError,
    astar,
    backtrack,
    compare,
    dijkstra,
    flood,
    measure_complexity,
    neighbors8,
    parse_map,
    render_map,
    step_allowed,
)
from gridwave.grid import ensure_destination


class TestParse:
    def test_parses_shape_and_specials(self):
        grid = fixture_map("detour")
        assert (grid.width, grid.height) == (7, 5)
        assert grid.source == Coord(1, 1)
        assert grid.destination == Coord(1, 5)
        assert grid.kind(Coord(1, 3)) is CellKind.OBSTACLE
        assert grid.kind(Coord(0, 0)) is CellKind.BOUNDARY
        assert grid.kind(Coord(2, 1)) is CellKind.PASSABLE

    def test_destination_is_optional(self):
        grid = parse_map("###\n#S#\n###\n")
        assert grid.destination is None

    def test_tolerates_missing_trailing_newline_and_crlf(self):
        text = fixture_text("room")
        assert parse_map(text.rstrip("\n")) == parse_map(text)
        assert parse_map(text.replace("\n", "\r\n")) == parse_map(text)

    @pytest.mark.parametrize(
        "text,error",
        [
            ("###\n#S##\n###\n", RaggedRowsError),
            ("###\n#X#\n###\n", UnknownSymbolError),
            ("###\n#.#\n###\n", NoSourceError),
            ("####\n#SS#\n####\n", MultipleSourcesError),
            ("#####\n#SDD#\n#####\n", MultipleDestinationsError),
            ("", MapFormatError),
        ],
    )
    def test_rejects_malformed_text(self, text, error):
        with pytest.raises(error):
            parse_map(text)

    def test_error_carries_position(self):
        with pytest.raises(UnknownSymbolError) as info:
            parse_map("###\n#?#\n###\n")
        assert (info.value.row, info.value.col) == (1, 1)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_render_round_trips_fixtures(self, name):
        text = fixture_text(name)
        assert render_map(parse_map(text)) == text

    @settings(max_examples=60, deadline=None)
    @given(text=map_texts())
    def test_render_round_trips_generated(self, text):
        assert render_map(parse_map(text)) == text


class TestGridMap:
    def test_rejects_inconsistent_construction(self):
        cells = (CellKind.SOURCE, CellKind.PASSABLE)
        with pytest.raises(ValueError):
            GridMap(2, 1, cells, Coord(0, 1))  # source coord points at '.'
        with pytest.raises(ValueError):
            GridMap(3, 1, cells, Coord(0, 0))  # cell count mismatch
        with pytest.raises(ValueError):
            GridMap(2, 1, (CellKind.PASSABLE, CellKind.PASSABLE), Coord(0, 0))

    def test_counts(self):
        grid = fixture_map("sealed")
        assert grid.count(CellKind.OBSTACLE) == 3
        assert grid.traversable_count() == 6
        assert len(list(grid.coords())) == grid.width * grid.height

    def test_kind_raises_out_of_bounds(self):
        grid = fixture_map("room")
        with pytest.raises(IndexError):
            grid.kind(Coord(99, 0))
        assert not grid.is_traversable(Coord(-1, 0))


class TestNeighbors:
    def test_canonical_clockwise_order(self):
        grid = fixture_map("detour")
        # Around (1, 2): up/right blocked by wall and obstacle, so the
        # clockwise scan keeps down-right, down, down-left, left.
        assert neighbors8(grid, Coord(1, 2)) == [
            Coord(2, 2),
            Coord(2, 1),
            Coord(1, 1),
        ]

    def test_never_leaves_grid_or_enters_blockers(self, any_fixture):
        grid = any_fixture
        for rule in BOTH_RULES:
            for at in grid.traversable_cells():
                for nb in neighbors8(grid, at, rule):
                    assert grid.is_traversable(nb)
                    assert max(abs(nb.row - at.row), abs(nb.col - at.col)) == 1

    def test_raises_for_out_of_bounds_origin(self):
        with pytest.raises(ValueError):
            neighbors8(fixture_map("room"), Coord(9, 9))

    @settings(max_examples=40, deadline=None)
    @given(text=map_texts())
    def test_symmetry_under_both_rules(self, text):
        # The flanks of a diagonal step are the same two cells from either
        # end, so admissibility is symmetric under FORBID as well.
        grid = parse_map(text)
        for rule in BOTH_RULES:
            for a in grid.traversable_cells():
                for b in neighbors8(grid, a, rule):
                    assert a in neighbors8(grid, b, rule), (rule, a, b)


class TestCornerRule:
    #  #####
    #  #S@.#   diagonal S->(2,2) squeezes between '@' (1,2) and '@' (2,1)
    #  #@.D#
    #  #####
    SQUEEZE = "#####\n#S@.#\n#@.D#\n#####\n"

    def test_forbid_blocks_double_flanked_diagonal(self):
        grid = parse_map(self.SQUEEZE)
        assert step_allowed(grid, Coord(1, 1), 1, 1, CornerRule.ALLOW)
        assert not step_allowed(grid, Coord(1, 1), 1, 1, CornerRule.FORBID)

    def test_forbid_keeps_single_flanked_diagonal(self):
        #  one flank open: (1,2) is '.', so the diagonal survives FORBID
        grid = parse_map("#####\n#S..#\n#@.D#\n#####\n")
        assert step_allowed(grid, Coord(1, 1), 1, 1, CornerRule.FORBID)

    def test_boundary_counts_as_blocking_flank(self):
        # Flanks of (1,1)->(2,2) are the '#' at (1,2) and the '@' at (2,1):
        # a wall segment squeezes exactly like an obstacle does.
        grid = parse_map("#####\n#S#.#\n#@.D#\n#####\n")
        assert step_allowed(grid, Coord(1, 1), 1, 1, CornerRule.ALLOW)
        assert not step_allowed(grid, Coord(1, 1), 1, 1, CornerRule.FORBID)

    def test_rejects_steps_that_are_not_unit_moves(self):
        grid = parse_map(self.SQUEEZE)
        for d_row, d_col in ((0, 0), (2, 0), (1, -2)):
            with pytest.raises(ValueError):
                step_allowed(grid, Coord(1, 1), d_row, d_col, CornerRule.ALLOW)

    def test_coerce_accepts_strings_and_rejects_junk(self):
        assert CornerRule.coerce("allow") is CornerRule.ALLOW
        assert CornerRule.coerce(CornerRule.FORBID) is CornerRule.FORBID
        with pytest.raises(ValueError, match=r"^unknown corner rule 'sometimes'; expected 'allow' or 'forbid'$"):
            CornerRule.coerce("sometimes")


class TestEnsureDestination:
    def test_every_caller_raises_the_same_error(self):
        grid = parse_map("###\n#S#\n###\n")
        field = flood(grid).field
        calls = (
            lambda: ensure_destination(grid),
            lambda: backtrack(field, grid),
            lambda: dijkstra(grid),
            lambda: astar(grid),
            lambda: compare(grid),
            lambda: measure_complexity(grid),
        )
        for call in calls:
            with pytest.raises(ValueError, match="^this operation needs a map with a destination cell$"):
                call()
