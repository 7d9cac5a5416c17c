"""Wavefront expansion: cost semantics, trace audit, stop conditions."""

import math

import pytest
from hypothesis import given, settings

from conftest import BOTH_RULES, FIXTURE_NAMES, fixture_map, map_texts
from gridwave import (
    INFINITY,
    UNREACHED,
    CellKind,
    Coord,
    bfs8_distance_field,
    flood,
    parse_map,
)


class TestFloodSemantics:
    def test_room_costs_are_chebyshev_rings(self):
        grid = fixture_map("room")
        field = flood(grid, stop_at_destination=False).field
        for at in grid.traversable_cells():
            assert field.at(at) == max(abs(at.row - 1), abs(at.col - 1))

    def test_detour_iteration_records(self):
        # Hand-checked expansion of the 7x5 two-obstacle map.
        grid = fixture_map("detour")
        trace = flood(grid).trace
        costed = [sorted(record.costed) for record in trace.iterations]
        assert costed[0] == [Coord(1, 2), Coord(2, 1), Coord(2, 2)]
        assert costed[1] == [Coord(3, 1), Coord(3, 2), Coord(3, 3)]
        assert costed[2] == [Coord(2, 4), Coord(3, 4)]
        assert Coord(1, 5) in costed[3]
        assert [record.k for record in trace.iterations] == [1, 2, 3, 4]

    def test_new_sources_flag_cells_beside_fresh_obstacles(self):
        # In the detour map the wave slips around the obstacle column: the
        # cell under it at k=2 and the cell right of it at k=3 spawn waves.
        grid = fixture_map("detour")
        trace = flood(grid).trace
        assert sorted(trace.iterations[0].new_sources) == []
        assert sorted(trace.iterations[1].new_sources) == [Coord(3, 3)]
        assert sorted(trace.iterations[2].new_sources) == [Coord(2, 4)]

    def test_inspected_obstacles_cost_infinity(self):
        grid = fixture_map("detour")
        field = flood(grid, stop_at_destination=False).field
        assert field.at(Coord(1, 3)) == INFINITY
        assert field.at(Coord(2, 3)) == INFINITY
        assert not field.is_finite(Coord(1, 3))

    def test_walls_are_never_costed(self):
        grid = fixture_map("room")
        field = flood(grid, stop_at_destination=False).field
        for at in grid.coords():
            if grid.kind(at) is CellKind.BOUNDARY:
                assert field.at(at) is UNREACHED

    def test_unreachable_destination_is_reported_not_raised(self):
        grid = fixture_map("sealed")
        outcome = flood(grid)
        assert not outcome.reached_destination
        assert outcome.field.at(grid.destination) is UNREACHED
        # The wave still costed the source's whole component ...
        assert sorted(at for at, _ in outcome.field.finite_cells()) == [
            Coord(1, 1),
            Coord(2, 1),
            Coord(3, 1),
        ]
        # ... and inspected the obstacles around it.
        assert outcome.field.at(Coord(1, 2)) == INFINITY
        assert outcome.field.at(Coord(2, 2)) == INFINITY
        assert outcome.field.at(Coord(3, 2)) == INFINITY

    def test_source_is_costed_zero(self, any_fixture):
        field = flood(any_fixture).field
        assert field.at(any_fixture.source) == 0

    def test_stop_at_destination_halts_early(self):
        grid = fixture_map("pocket")
        stopped = flood(grid, stop_at_destination=True)
        full = flood(grid, stop_at_destination=False)
        assert stopped.iterations_run <= full.iterations_run
        assert stopped.field.finite_count() <= full.field.finite_count()
        assert stopped.iterations_run == stopped.field.at(grid.destination)
        # The stopped trace is an exact prefix of the exhaustive one: the
        # destination check runs only after an iteration completes.
        prefix = full.trace.iterations[: len(stopped.trace.iterations)]
        assert stopped.trace.iterations == prefix

    def test_iterations_equal_destination_cost_when_reached(self):
        for name in FIXTURE_NAMES:
            grid = fixture_map(name)
            outcome = flood(grid)
            if outcome.reached_destination:
                assert outcome.iterations_run == outcome.field.at(grid.destination)


class TestTraceInvariants:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    @pytest.mark.parametrize("rule", BOTH_RULES)
    def test_fixture_traces_are_well_formed(self, name, rule):
        grid = fixture_map(name)
        outcome = flood(grid, rule, stop_at_destination=False)
        self._check(grid, outcome, rule)

    @settings(max_examples=50, deadline=None)
    @given(text=map_texts())
    def test_generated_traces_are_well_formed(self, text):
        grid = parse_map(text)
        for rule in BOTH_RULES:
            self._check(grid, flood(grid, rule, stop_at_destination=False), rule)

    def _check(self, grid, outcome, rule):
        trace, field = outcome.trace, outcome.field
        assert (trace.width, trace.height) == (grid.width, grid.height)
        seen = set()
        for position, record in enumerate(trace.iterations, start=1):
            assert record.k == position, "iteration numbers ascend without gaps"
            assert record.costed, "every recorded iteration costs something"
            assert record.new_sources <= record.costed
            assert not (record.costed & seen), "first write wins"
            seen |= record.costed
            for at in record.costed:
                assert field.at(at) == record.k
        assert len(seen) == field.finite_count() - 1  # all but the source
        assert outcome.iterations_run == len(trace.iterations)
        # Costs are exactly BFS levels.
        oracle = bfs8_distance_field(grid, rule)
        assert field.values == oracle.values


class TestAgainstOracle:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    @pytest.mark.parametrize("rule", BOTH_RULES)
    def test_fixture_fields_match_bfs(self, name, rule):
        grid = fixture_map(name)
        assert flood(grid, rule, stop_at_destination=False).field.values == bfs8_distance_field(
            grid, rule
        ).values

    def test_generated_fields_match_bfs(self, generated_pool):
        for grid in generated_pool:
            for rule in BOTH_RULES:
                ours = flood(grid, rule, stop_at_destination=False).field
                oracle = bfs8_distance_field(grid, rule)
                assert ours.values == oracle.values

    def test_corner_rule_changes_reachability(self):
        # Under ALLOW the wave squeezes diagonally past the two obstacles;
        # under FORBID the destination is sealed.
        grid = parse_map("#####\n#S@.#\n#@.D#\n#####\n")
        assert flood(grid, "allow").reached_destination
        assert not flood(grid, "forbid").reached_destination


class TestCostField:
    def test_indexing_and_bounds(self):
        grid = fixture_map("room")
        field = flood(grid, stop_at_destination=False).field
        assert field[Coord(1, 1)] == 0
        with pytest.raises(IndexError):
            field.at(Coord(9, 9))

    def test_max_and_count_helpers(self):
        grid = fixture_map("room")
        field = flood(grid, stop_at_destination=False).field
        assert max(cost for _, cost in field.finite_cells()) == 2
        assert field.finite_count() == 9
        assert field.matches(grid)
        assert field.at(Coord(1, 1)) == 0 and field.at(Coord(0, 0)) is UNREACHED

    def test_infinity_never_finite(self):
        assert not isinstance(INFINITY, int)
        assert math.isinf(INFINITY)
