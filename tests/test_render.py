"""ASCII rendering: frame styles, alignment, monotonicity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BOTH_RULES, any_map_text, fixture_map, fixture_text, map_texts
from gridwave import (
    CellKind,
    Coord,
    DimensionMismatchError,
    FloodTrace,
    IterationRecord,
    backtrack,
    flood,
    parse_map,
    render_map,
    render_path_overlay,
    render_trace,
)
from gridwave.render import STYLES


def marked_cells(frame):
    return {
        (row, col)
        for row, line in enumerate(frame.rows)
        for col, char in enumerate(line)
        if char in ("*", "N")
    }


class TestMarksStyle:
    def test_frame_zero_is_the_input_map(self, any_fixture):
        outcome = flood(any_fixture, stop_at_destination=False)
        frames = render_trace(any_fixture, outcome.trace, style="marks")
        assert frames[0].k == 0
        assert frames[0].text == render_map(any_fixture)

    def test_frames_accumulate_costed_cells(self):
        grid = fixture_map("detour")
        outcome = flood(grid)
        frames = render_trace(grid, outcome.trace, style="marks")
        assert len(frames) == len(outcome.trace.iterations) + 1
        specials = {grid.source, grid.destination}
        previous = set()
        for frame, record in zip(frames[1:], outcome.trace.iterations):
            current = marked_cells(frame)
            assert current >= previous, "marks never disappear"
            assert current - previous == {
                (at.row, at.col) for at in record.costed if at not in specials
            }
            previous = current

    def test_new_sources_get_their_own_glyph(self):
        grid = fixture_map("detour")
        outcome = flood(grid)
        frames = render_trace(grid, outcome.trace, style="marks")
        # (3,3) becomes a new source in iteration 2 and stays marked N.
        assert frames[2].rows[3][3] == "N"
        assert frames[3].rows[3][3] == "N"
        assert frames[2].rows[3][2] == "*"

    def test_source_and_destination_keep_their_letters(self):
        grid = fixture_map("room")
        outcome = flood(grid, stop_at_destination=False)
        final = render_trace(grid, outcome.trace, style="marks")[-1]
        assert final.rows[1][1] == "S"
        assert final.rows[3][3] == "D"


class TestCostsStyle:
    def test_final_frame_is_the_cost_matrix(self):
        grid = fixture_map("room")
        outcome = flood(grid, stop_at_destination=False)
        final = render_trace(grid, outcome.trace, style="costs")[-1]
        assert final.rows == ("#####", "#012#", "#112#", "#222#", "#####")

    def test_frame_zero_shows_source_as_zero(self):
        grid = fixture_map("room")
        outcome = flood(grid, stop_at_destination=False)
        first = render_trace(grid, outcome.trace, style="costs")[0]
        assert first.rows == ("#####", "#0..#", "#...#", "#..D#", "#####")

    def test_destination_letter_survives_until_costed(self):
        grid = fixture_map("detour")
        frames = render_trace(grid, flood(grid).trace, style="costs")
        assert frames[3].rows[1][5] == "D"  # not yet reached at k=3
        assert frames[4].rows[1][5] == "4"

    def test_obstacles_stay_at_their_glyph(self):
        grid = fixture_map("detour")
        final = render_trace(grid, flood(grid).trace, style="costs")[-1]
        assert final.rows[1][3] == "@"
        assert final.rows[2][3] == "@"

    def test_empty_trace_is_single_frame_with_zero_source(self):
        grid = parse_map("###\n#S#\n###\n")
        outcome = flood(grid, stop_at_destination=False)
        assert outcome.trace.iterations == ()
        frames = render_trace(grid, outcome.trace, style="costs")
        assert len(frames) == 1
        assert frames[0].rows == ("###", "#0#", "###")

    def test_wide_costs_align_in_fixed_columns(self):
        corridor = "##############\n#S...........#\n##############\n"
        grid = parse_map(corridor)
        outcome = flood(grid, stop_at_destination=False)
        frames = render_trace(grid, outcome.trace, style="costs")
        final = frames[-1]
        middle = final.rows[1].split()
        assert middle == ["#", "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "#"]
        widths = {len(row) for frame in frames for row in frame.rows}
        assert len(widths) == 1, "frames stay rectangular with one column width"


class TestRenderPlumbing:
    def test_dimension_mismatch_raises(self):
        trace = flood(fixture_map("detour")).trace
        with pytest.raises(DimensionMismatchError):
            render_trace(fixture_map("room"), trace)

    def test_unknown_style_raises(self):
        grid = fixture_map("room")
        with pytest.raises(ValueError):
            render_trace(grid, flood(grid).trace, style="technicolor")

    def test_to_text_headers(self):
        grid = fixture_map("room")
        text = render_trace(grid, flood(grid).trace, style="marks").to_text()
        assert text.startswith("k=0\n#####\n")
        assert "\nk=1\n" in text and "\nk=2\n" in text

    def test_path_overlay_marks_interior_cells_only(self):
        grid = fixture_map("detour")
        outcome = flood(grid)
        path = backtrack(outcome.field, grid)[0]
        overlay = render_path_overlay(grid, path)
        lines = overlay.splitlines()
        assert lines[2][2] == "*" and lines[3][3] == "*" and lines[2][4] == "*"
        assert lines[1][1] == "S" and lines[1][5] == "D"
        assert overlay.count("*") == len(path.cells) - 2


def reference_render(grid, trace, style) -> str:
    """Frames as the renderer first drew them: every cell of every frame
    looked up on its own, from the map kind and the cumulative trace."""
    reached, sources, cost_of = set(), set(), {grid.source: 0}
    width = max([1] + [len(str(record.k)) for record in trace.iterations if record.k > 0])
    if style == "marks":
        width = 1
    separator = " " if width > 1 else ""

    def cell_char(at):
        kind = grid.kind(at)
        if kind in (CellKind.BOUNDARY, CellKind.OBSTACLE):
            return kind.symbol
        if style == "marks":
            if kind in (CellKind.SOURCE, CellKind.DESTINATION):
                return kind.symbol
            return "N" if at in sources else "*" if at in reached else "."
        if at in cost_of:
            return str(cost_of[at])
        return "D" if kind is CellKind.DESTINATION else "."

    def frame(k):
        rows = (
            separator.join(cell_char(Coord(row, col)).rjust(width) for col in range(grid.width))
            for row in range(grid.height)
        )
        return f"k={k}\n" + "\n".join(rows) + "\n"

    frames = [frame(0)]
    for record in trace.iterations:
        reached |= record.costed
        sources |= record.new_sources
        for at in record.costed:
            cost_of[at] = record.k
        frames.append(frame(record.k))
    return "\n".join(frames)


def serpentine(width: int = 24, lanes: int = 8) -> str:
    """A corridor folded into ``lanes`` rows, S at one end and D at the other."""
    rows = ["#" * (width + 2)]
    for lane in range(lanes):
        rows.append("#" + "." * width + "#")
        if lane < lanes - 1:
            wall = ["#"] + ["@"] * width + ["#"]
            wall[width if lane % 2 == 0 else 1] = "."
            rows.append("".join(wall))
    rows.append("#" * (width + 2))
    rows[1] = "#S" + rows[1][2:]
    last = rows[-2]
    rows[-2] = last[:1] + "D" + last[2:] if lanes % 2 == 0 else last[:-2] + "D#"
    return "\n".join(rows) + "\n"


def assert_matches_reference(grid, trace):
    for style in STYLES:
        assert render_trace(grid, trace, style).to_text() == reference_render(grid, trace, style)


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(
        text=st.one_of(any_map_text(), map_texts(), map_texts().map(lambda t: t.replace("D", "."))),
        rule=st.sampled_from(BOTH_RULES),
        stop=st.booleans(),
    )
    def test_generated_maps(self, text, rule, stop):
        grid = parse_map(text)
        assert_matches_reference(grid, flood(grid, rule, stop_at_destination=stop).trace)

    @pytest.mark.parametrize("rule", BOTH_RULES)
    @pytest.mark.parametrize("stop", [True, False])
    @pytest.mark.parametrize("keep_destination", [True, False])
    def test_serpentine_with_three_digit_costs(self, rule, stop, keep_destination):
        text = serpentine()
        grid = parse_map(text if keep_destination else text.replace("D", "."))
        trace = flood(grid, rule, stop_at_destination=stop).trace
        assert len(trace.iterations) >= 100
        assert_matches_reference(grid, trace)
        final = render_trace(grid, trace, "costs")[-1]
        assert f" {len(trace.iterations)}" in final.text


class TestHandBuiltTraces:
    """render_trace takes any FloodTrace of the map's size, not only flood's."""

    GRID = "#####\n#S@.#\n#..D#\n#####\n"

    def trace(self, *records) -> FloodTrace:
        """Records k = 1, 2, ... from (costed, new_sources) lists of (row, col)."""
        return FloodTrace(5, 4, tuple(
            IterationRecord(k, frozenset(map(Coord._make, costed)), frozenset(map(Coord._make, new)))
            for k, (costed, new) in enumerate(records, start=1)
        ))

    def test_costed_walls_and_obstacles_keep_their_glyph(self):
        grid = parse_map(self.GRID)
        blocked = [(0, 2), (1, 2), (3, 0)]
        trace = self.trace((blocked + [(1, 3)], blocked))
        assert_matches_reference(grid, trace)
        assert render_trace(grid, trace, "marks")[-1].rows == ("#####", "#S@*#", "#..D#", "#####")
        assert render_trace(grid, trace, "costs")[-1].rows == ("#####", "#0@1#", "#..D#", "#####")

    def test_source_and_destination_keep_their_letters_in_marks(self):
        grid = parse_map(self.GRID)
        ends = [(1, 1), (2, 3)]
        trace = self.trace((ends, ends))
        assert_matches_reference(grid, trace)
        assert render_trace(grid, trace, "marks")[-1].rows == ("#####", "#S@.#", "#..D#", "#####")
        assert render_trace(grid, trace, "costs")[-1].rows == ("#####", "#1@.#", "#..1#", "#####")

    def test_cells_outside_the_grid_are_ignored(self):
        grid = parse_map(self.GRID)
        # The wall ring, cells whose unchecked padded index would land on
        # (2, 1), on D, or (negative, wrapped) on (1, 3), and far outside.
        outside = [(-1, 0), (0, -1), (4, 1), (1, 8), (3, -4), (-4, -4), (99, 99)]
        trace = self.trace((outside + [(2, 1)], outside))
        assert_matches_reference(grid, trace)
        for style in STYLES:
            assert render_trace(grid, trace, style).to_text() == render_trace(
                grid, self.trace(([(2, 1)], [])), style
            ).to_text()

    def test_repeated_cells_keep_the_last_cost_and_their_new_source_mark(self):
        grid = parse_map(self.GRID)
        trace = self.trace(([(2, 1), (2, 2)], [(2, 1)]), ([(2, 1), (2, 2)], [(2, 2)]), ([(1, 3)], []))
        assert_matches_reference(grid, trace)
        assert render_trace(grid, trace, "marks")[-1].rows[2] == "#NND#"
        assert render_trace(grid, trace, "costs")[-1].rows[2] == "#22D#"
