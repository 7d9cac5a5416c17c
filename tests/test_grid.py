"""Grid model: parsing, rendering, adjacency, and the corner rule."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    neighbors8,
    parse_map,
    render_map,
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


_KINDS = {kind.value: kind for kind in CellKind}


def reference_parse(text: str) -> GridMap:
    """The per-character parser parse_map replaced, kept as its reference."""
    if not text:
        raise MapFormatError("map text is empty")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    lines = [line[:-1] if line.endswith("\r") else line for line in lines]
    if not lines or lines[0] == "":
        raise MapFormatError("map text has no rows")

    width = len(lines[0])
    height = len(lines)
    cells = []
    source = None
    destination = None
    for row, line in enumerate(lines):
        if len(line) != width:
            raise RaggedRowsError(
                f"row {row} has length {len(line)}, expected {width}", row=row
            )
        for col, char in enumerate(line):
            kind = _KINDS.get(char)
            if kind is None:
                raise UnknownSymbolError(
                    f"unknown symbol {char!r} at row {row}, col {col}", row=row, col=col
                )
            if kind is CellKind.SOURCE:
                if source is not None:
                    raise MultipleSourcesError(
                        f"second source at row {row}, col {col}", row=row, col=col
                    )
                source = Coord(row, col)
            elif kind is CellKind.DESTINATION:
                if destination is not None:
                    raise MultipleDestinationsError(
                        f"second destination at row {row}, col {col}", row=row, col=col
                    )
                destination = Coord(row, col)
            cells.append(kind)
    if source is None:
        raise NoSourceError("map has no source cell")
    return GridMap(width, height, tuple(cells), source, destination)


def parse_outcome(parse, text: str):
    """The GridMap ``parse`` returns, or the type, str, row and col it raises."""
    try:
        return parse(text)
    except MapFormatError as exc:
        return type(exc), str(exc), exc.row, exc.col


_FOREIGN = ("X", "\t", "\u00e9", "\ufeff", "\r")


@st.composite
def messy_map_texts(draw) -> str:
    """Map-like texts: a grid of ``#@.`` with 0-3 S and 0-3 D dropped in,
    maybe foreign characters, a ragged or empty row, LF or CRLF endings."""
    width = draw(st.integers(1, 7))
    height = draw(st.integers(1, 5))
    cells = draw(st.lists(st.sampled_from("#@.."), min_size=width * height, max_size=width * height))
    specials = "S" * draw(st.integers(0, 3)) + "D" * draw(st.integers(0, 3))
    specials += "".join(draw(st.lists(st.sampled_from(_FOREIGN), max_size=2)))
    for char in specials:
        cells[draw(st.integers(0, len(cells) - 1))] = char
    rows = ["".join(cells[row * width : (row + 1) * width]) for row in range(height)]
    if draw(st.booleans()):
        row = draw(st.integers(0, height - 1))
        rows[row] = draw(st.sampled_from(("", rows[row][:-1], rows[row] + ".", rows[row] + "S")))
    ending = draw(st.sampled_from(("\n", "\r\n")))
    return ending.join(rows) + draw(st.sampled_from(("", ending)))


class TestParseAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(text=st.one_of(messy_map_texts(), st.text("#@.SDX\t\u00e9\ufeff\r\n", max_size=30)))
    @example(text="\n")
    @example(text="\r\n")
    @example(text="S\n\n")
    def test_same_map_or_same_error(self, text):
        assert parse_outcome(parse_map, text) == parse_outcome(reference_parse, text)

    @pytest.mark.parametrize(
        "text,error,row,col",
        [
            ("S..\n.XS\n", UnknownSymbolError, 1, 1),  # unknown symbol left of a second S
            ("S.X\nS..\n", UnknownSymbolError, 0, 2),  # second S on a row below it
            ("S.X\n....\n", UnknownSymbolError, 0, 2),  # ragged row after a bad symbol
            ("SDSD\n", MultipleSourcesError, 0, 2),  # second S before a second D
            ("SDDS\n", MultipleDestinationsError, 0, 2),  # second D before a second S
            ("DS.\n.DS\n", MultipleDestinationsError, 1, 1),
            ("S..\nXD.D\n", RaggedRowsError, 1, None),
        ],
    )
    def test_reports_the_first_fault_in_reading_order(self, text, error, row, col):
        with pytest.raises(error) as info:
            parse_map(text)
        assert (info.value.row, info.value.col) == (row, col)
        assert parse_outcome(parse_map, text) == parse_outcome(reference_parse, text)


class TestGridMap:
    def test_rejects_inconsistent_construction(self):
        # (width, one-row cells, source, destination, the whole message)
        cases = [
            (2, "S.", Coord(0, 1), None, r"source coordinate Coord\(row=0, col=1\) does not point at the S cell"),
            (3, "S.", Coord(0, 0), None, r"cell count 2 does not match 3x1"),
            (2, "..", Coord(0, 0), None, r"expected exactly one source cell, found 0"),
            (3, "SS.", Coord(0, 0), None, r"expected exactly one source cell, found 2"),
            (3, "SDD", Coord(0, 0), Coord(0, 1), r"expected at most one destination cell, found 2"),
            (2, "SD", Coord(0, 0), None, r"destination coordinate does not point at the D cell"),
            (2, "S.", Coord(0, 0), Coord(0, 1), r"destination coordinate given but no D cell present"),
            (3, "SD.", Coord(0, 0), Coord(0, 2), r"destination coordinate does not point at the D cell"),
        ]
        for width, cells, source, destination, message in cases:
            kinds = tuple(CellKind(char) for char in cells)
            with pytest.raises(ValueError, match=f"^{message}$"):
                GridMap(width, 1, kinds, source, destination)

    def test_counts(self):
        grid = fixture_map("sealed")
        assert grid.count(CellKind.OBSTACLE) == 3
        assert sum(kind.traversable for kind in grid.cells) == 6
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
        assert Coord(2, 2) in neighbors8(grid, Coord(1, 1), CornerRule.ALLOW)
        assert Coord(2, 2) not in neighbors8(grid, Coord(1, 1), CornerRule.FORBID)

    def test_forbid_keeps_single_flanked_diagonal(self):
        #  one flank open: (1,2) is '.', so the diagonal survives FORBID
        grid = parse_map("#####\n#S..#\n#@.D#\n#####\n")
        assert Coord(2, 2) in neighbors8(grid, Coord(1, 1), CornerRule.FORBID)

    def test_boundary_counts_as_blocking_flank(self):
        # Flanks of (1,1)->(2,2) are the '#' at (1,2) and the '@' at (2,1):
        # a wall segment squeezes exactly like an obstacle does.
        grid = parse_map("#####\n#S#.#\n#@.D#\n#####\n")
        assert Coord(2, 2) in neighbors8(grid, Coord(1, 1), CornerRule.ALLOW)
        assert Coord(2, 2) not in neighbors8(grid, Coord(1, 1), CornerRule.FORBID)

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
        )
        for call in calls:
            with pytest.raises(ValueError, match="^this operation needs a map with a destination cell$"):
                call()
