"""Reference searches: oracle sanity, optimality, heuristic behavior."""

import math

import pytest

from conftest import BOTH_RULES, SOLVABLE_FIXTURES, fixture_map
from gridwave import (
    INFINITY,
    UNREACHED,
    Coord,
    Heuristic,
    NoPathError,
    astar,
    bfs8_distance_field,
    dijkstra,
    parse_map,
)


class TestHeuristic:
    def test_chebyshev_counts_king_moves(self):
        assert Heuristic.CHEBYSHEV.distance(Coord(0, 0), Coord(3, 5)) == 5
        assert Heuristic.CHEBYSHEV.distance(Coord(2, 2), Coord(2, 2)) == 0

    def test_euclidean_is_straight_line(self):
        assert Heuristic.EUCLIDEAN.distance(Coord(0, 0), Coord(3, 4)) == 5.0
        assert Heuristic.EUCLIDEAN.distance(Coord(0, 0), Coord(1, 1)) == pytest.approx(
            math.sqrt(2)
        )

    def test_euclidean_dominates_chebyshev(self):
        # This domination is exactly why Euclidean can overestimate the
        # true remaining cost: the true cost equals Chebyshev on open grids.
        for a, b in [((0, 0), (4, 4)), ((1, 2), (7, 3)), ((5, 5), (0, 9))]:
            assert Heuristic.EUCLIDEAN.distance(Coord(*a), Coord(*b)) >= (
                Heuristic.CHEBYSHEV.distance(Coord(*a), Coord(*b))
            )

    def test_coerce(self):
        assert Heuristic.coerce("euclidean") is Heuristic.EUCLIDEAN
        with pytest.raises(ValueError, match=r"^unknown heuristic 'manhattan'; expected 'chebyshev' or 'euclidean'$"):
            Heuristic.coerce("manhattan")


class TestBfsOracle:
    def test_room_distances(self):
        grid = fixture_map("room")
        field = bfs8_distance_field(grid)
        assert [field.at(Coord(1, c)) for c in (1, 2, 3)] == [0, 1, 2]
        assert field.at(Coord(3, 3)) == 2

    def test_marks_adjacent_obstacles_infinite(self):
        grid = fixture_map("detour")
        field = bfs8_distance_field(grid)
        assert field.at(Coord(1, 3)) == INFINITY
        assert field.at(Coord(2, 3)) == INFINITY

    def test_ignores_disconnected_region(self):
        grid = fixture_map("sealed")
        field = bfs8_distance_field(grid)
        assert field.at(grid.destination) is UNREACHED
        assert field.at(Coord(3, 1)) == 2

    def test_respects_corner_rule(self):
        grid = parse_map("#####\n#S@.#\n#@.D#\n#####\n")
        assert bfs8_distance_field(grid, "allow").at(Coord(2, 3)) == 2
        assert bfs8_distance_field(grid, "forbid").at(Coord(2, 3)) is UNREACHED


class TestDijkstra:
    @pytest.mark.parametrize("name", SOLVABLE_FIXTURES)
    @pytest.mark.parametrize("rule", BOTH_RULES)
    def test_length_equals_oracle_distance(self, name, rule):
        grid = fixture_map(name)
        result = dijkstra(grid, rule)
        assert result.path.length == bfs8_distance_field(grid, rule).at(grid.destination)

    def test_path_is_contiguous_and_endpoint_correct(self, generated_pool):
        for grid in generated_pool:
            oracle = bfs8_distance_field(grid)
            try:
                result = dijkstra(grid)
            except NoPathError as exc:
                assert oracle.at(grid.destination) is UNREACHED
                assert exc.result.path is None
                assert exc.result.expansions > 0
                continue
            path = result.path
            assert path.source == grid.source
            assert path.destination == grid.destination
            assert path.length == oracle.at(grid.destination)
            for a, b in zip(path.cells, path.cells[1:]):
                assert max(abs(a.row - b.row), abs(a.col - b.col)) == 1
                assert grid.is_traversable(b)

    def test_no_path_carries_exhausted_counters(self):
        grid = fixture_map("sealed")
        with pytest.raises(NoPathError) as info:
            dijkstra(grid)
        result = info.value.result
        assert result.path is None
        assert result.expansions == 3  # the source component: S and two cells
        assert len(result.visited) == 3

    def test_destination_less_map_raises_value_error(self):
        with pytest.raises(ValueError):
            dijkstra(parse_map("###\n#S#\n###\n"))


class TestAStar:
    @pytest.mark.parametrize("name", SOLVABLE_FIXTURES)
    @pytest.mark.parametrize("rule", BOTH_RULES)
    def test_chebyshev_is_exact(self, name, rule):
        grid = fixture_map(name)
        assert astar(grid, rule, "chebyshev").path.length == dijkstra(grid, rule).path.length

    def test_chebyshev_exact_on_generated_maps(self, generated_pool):
        for grid in generated_pool:
            try:
                optimal = dijkstra(grid).path.length
            except NoPathError:
                with pytest.raises(NoPathError):
                    astar(grid, heuristic="chebyshev")
                continue
            assert astar(grid, heuristic="chebyshev").path.length == optimal

    def test_chebyshev_never_expands_more_than_dijkstra(self, generated_pool):
        # With f-then-highest-g tie-breaking, the destination outranks every
        # equal-f entry, so the guided search can only save work.
        for grid in generated_pool:
            try:
                plain = dijkstra(grid)
            except NoPathError:
                continue
            guided = astar(grid, heuristic="chebyshev")
            assert guided.expansions <= plain.expansions

    def test_euclidean_returns_longer_path_on_trap_fixture(self):
        grid = fixture_map("euclid_trap")
        optimal = dijkstra(grid).path.length
        assert optimal == 4
        assert astar(grid, heuristic="euclidean").path.length == 5

    def test_euclidean_still_returns_a_real_path(self, generated_pool):
        # Suboptimal is allowed; disconnected or broken is not.
        for grid in generated_pool:
            try:
                optimal = dijkstra(grid).path.length
            except NoPathError:
                with pytest.raises(NoPathError):
                    astar(grid, heuristic="euclidean")
                continue
            path = astar(grid, heuristic="euclidean").path
            assert path.length >= optimal
            assert path.source == grid.source and path.destination == grid.destination
            for a, b in zip(path.cells, path.cells[1:]):
                assert max(abs(a.row - b.row), abs(a.col - b.col)) == 1
                assert grid.is_traversable(b)

    def test_expansions_exclude_stale_pops(self):
        # On the pocket map many queue entries go stale; the expansion count
        # must stay at or below the number of cells given a distance, since
        # Chebyshev is consistent (no cell is ever re-expanded).
        grid = fixture_map("pocket")
        result = astar(grid, heuristic="chebyshev")
        assert result.expansions <= len(result.visited)

    def test_no_path_payload(self):
        grid = fixture_map("sealed")
        with pytest.raises(NoPathError) as info:
            astar(grid)
        assert info.value.result.path is None
        assert info.value.result.expansions == 3
