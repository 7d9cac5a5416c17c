"""ASCII rendering: frame styles, alignment, monotonicity."""

import pytest

from conftest import fixture_map, fixture_text
from gridwave import (
    DimensionMismatchError,
    backtrack,
    flood,
    parse_map,
    render_cost_field,
    render_map,
    render_path_overlay,
    render_trace,
)


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

    def test_render_cost_field_matches_final_costs_frame(self):
        grid = fixture_map("room")
        outcome = flood(grid, stop_at_destination=False)
        final = render_trace(grid, outcome.trace, style="costs")[-1]
        assert render_cost_field(grid, outcome.field) == final.text

    def test_path_overlay_marks_interior_cells_only(self):
        grid = fixture_map("detour")
        outcome = flood(grid)
        path = backtrack(outcome.field, grid)[0]
        overlay = render_path_overlay(grid, path)
        lines = overlay.splitlines()
        assert lines[2][2] == "*" and lines[3][3] == "*" and lines[2][4] == "*"
        assert lines[1][1] == "S" and lines[1][5] == "D"
        assert overlay.count("*") == len(path.cells) - 2
