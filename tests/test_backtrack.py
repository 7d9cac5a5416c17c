"""Backtracking descent: single path, tie enumeration, failure modes."""

import pytest
from hypothesis import given, settings

from conftest import BOTH_RULES, brute_force_descents, fixture_map, map_texts
from gridwave import (
    Coord,
    CostField,
    MissingCostError,
    NoPathError,
    backtrack,
    descend_candidates,
    flood,
    parse_map,
)


def flooded(name_or_grid, rule="allow"):
    grid = fixture_map(name_or_grid) if isinstance(name_or_grid, str) else name_or_grid
    return flood(grid, rule, stop_at_destination=False).field, grid


class TestDescendCandidates:
    def test_candidates_are_one_level_down_in_clockwise_order(self):
        field, grid = flooded("forked")
        assert descend_candidates(field, grid, Coord(1, 3)) == [Coord(2, 2), Coord(1, 2)]

    def test_source_has_no_candidates(self):
        field, grid = flooded("room")
        assert descend_candidates(field, grid, grid.source) == []

    def test_rejects_cells_without_finite_cost(self):
        field, grid = flooded("sealed")
        with pytest.raises(MissingCostError):
            descend_candidates(field, grid, grid.destination)
        with pytest.raises(MissingCostError):
            descend_candidates(field, grid, Coord(1, 2))  # obstacle: infinite


class TestBacktrack:
    def test_single_path_on_detour_map(self):
        field, grid = flooded("detour")
        paths = backtrack(field, grid, mode="first")
        assert paths.count == 1 and not paths.truncated
        assert list(paths[0].cells) == [
            Coord(1, 1),
            Coord(2, 2),
            Coord(3, 3),
            Coord(2, 4),
            Coord(1, 5),
        ]
        assert paths[0].length == 4

    def test_forked_map_has_exactly_two_paths(self):
        field, grid = flooded("forked")
        paths = backtrack(field, grid, mode="all")
        assert paths.count == 2 and not paths.truncated
        assert [list(p.cells) for p in paths] == [
            [Coord(1, 1), Coord(2, 2), Coord(1, 3)],
            [Coord(1, 1), Coord(1, 2), Coord(1, 3)],
        ]

    def test_first_is_the_first_of_all(self, any_fixture):
        field, grid = flooded(any_fixture)
        if grid.destination is None or not field.is_finite(grid.destination):
            return
        first = backtrack(field, grid, mode="first")
        everything = backtrack(field, grid, mode="all", max_paths=10**6)
        assert first[0] == everything[0]

    def test_paths_ascend_by_exactly_one(self, any_fixture):
        field, grid = flooded(any_fixture)
        if grid.destination is None or not field.is_finite(grid.destination):
            return
        for path in backtrack(field, grid, mode="all", max_paths=10**6):
            assert path.source == grid.source
            assert path.destination == grid.destination
            costs = [field.at(at) for at in path.cells]
            assert costs == list(range(len(path.cells)))

    def test_max_paths_truncates_and_flags(self):
        # An open room grows many tied shortest paths.
        grid = parse_map("#########\n#S......#\n#.......#\n#.......#\n#......D#\n#########\n")
        field, _ = flooded(grid)
        capped = backtrack(field, grid, mode="all", max_paths=3)
        assert capped.count == 3 and capped.truncated
        everything = backtrack(field, grid, mode="all", max_paths=10**6)
        assert everything.count > 3 and not everything.truncated
        assert list(everything)[:3] == list(capped)

    def test_exact_cap_is_not_flagged_truncated(self):
        field, grid = flooded("forked")
        paths = backtrack(field, grid, mode="all", max_paths=2)
        assert paths.count == 2 and not paths.truncated

    def test_unreached_destination_raises(self):
        field, grid = flooded("sealed")
        with pytest.raises(NoPathError):
            backtrack(field, grid)

    def test_destination_less_map_raises_value_error(self):
        grid = parse_map("###\n#S#\n###\n")
        field = flood(grid, stop_at_destination=False).field
        with pytest.raises(ValueError):
            backtrack(field, grid)

    def test_rejects_bad_mode_and_cap(self):
        field, grid = flooded("room")
        with pytest.raises(ValueError):
            backtrack(field, grid, mode="some")
        with pytest.raises(ValueError):
            backtrack(field, grid, max_paths=0)

    def test_rejects_foreign_field(self):
        field, _ = flooded("room")
        other = fixture_map("detour")
        with pytest.raises(MissingCostError):
            backtrack(field, other)

    def test_rejects_inconsistent_field(self):
        # Right shape, wrong contents: descent hits a dead end mid-way.
        grid = fixture_map("room")
        values = [None] * 25
        values[grid.index(grid.source)] = 0
        values[grid.index(grid.destination)] = 9
        broken = CostField(5, 5, tuple(values))
        with pytest.raises(MissingCostError):
            backtrack(broken, grid)


class TestAgainstBruteForce:
    @pytest.mark.parametrize(
        "name", ["room", "detour", "forked", "sealed", "euclid_trap"]
    )
    @pytest.mark.parametrize("rule", BOTH_RULES)
    def test_enumeration_matches_blind_dfs_on_small_fixtures(self, name, rule):
        grid = fixture_map(name)
        field = flood(grid, rule, stop_at_destination=False).field
        expected = brute_force_descents(field, grid, rule)
        if not expected:
            with pytest.raises(NoPathError):
                backtrack(field, grid, rule, mode="all", max_paths=10**6)
            return
        paths = backtrack(field, grid, rule, mode="all", max_paths=10**6)
        ours = {tuple((r, c) for r, c in path.cells) for path in paths}
        assert paths.count == len(ours), "no duplicate paths"
        assert ours == expected

    @settings(max_examples=40, deadline=None)
    @given(text=map_texts(max_width=9, max_height=7))
    def test_enumeration_matches_blind_dfs_on_generated_maps(self, text):
        grid = parse_map(text)
        for rule in BOTH_RULES:
            field = flood(grid, rule, stop_at_destination=False).field
            expected = brute_force_descents(field, grid, rule)
            if not expected:
                with pytest.raises(NoPathError):
                    backtrack(field, grid, rule, mode="all", max_paths=10**6)
                continue
            paths = backtrack(field, grid, rule, mode="all", max_paths=10**6)
            ours = {tuple((r, c) for r, c in path.cells) for path in paths}
            assert paths.count == len(ours)
            assert ours == expected
