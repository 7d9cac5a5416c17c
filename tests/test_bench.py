"""Benchmark harness: counters, cross-checks, suite determinism."""

import pytest

from conftest import fixture_map
from gridwave import (
    ALL_ALGOS,
    CellKind,
    GenSpec,
    UnsatisfiableError,
    compare,
    dijkstra,
    flood,
    run_suite,
)
from gridwave.serialize import suite_to_csv, suite_to_dict, to_json


class TestCompare:
    def test_room_lengths_and_iterations(self):
        report = compare(fixture_map("room"), ("wavefront", "astar-chebyshev"))
        wavefront, astar_record = report.records
        assert wavefront.algo == "wavefront"
        assert wavefront.path_length == 2
        assert wavefront.iterations == 2
        assert astar_record.path_length == 2

    def test_detour_lengths(self):
        report = compare(fixture_map("detour"), ("wavefront", "dijkstra"))
        assert [record.path_length for record in report.records] == [4, 4]
        assert report.records[0].iterations == 4

    def test_default_runs_all_four(self):
        report = compare(fixture_map("room"))
        assert tuple(record.algo for record in report.records) == ALL_ALGOS

    def test_record_fields_match_algorithm_kind(self):
        report = compare(fixture_map("detour"))
        by_algo = {record.algo: record for record in report.records}
        wavefront = by_algo["wavefront"]
        assert wavefront.iterations is not None
        assert wavefront.cells_costed is not None
        assert wavefront.path_count == 1
        assert wavefront.expansions is None and wavefront.cells_touched is None
        search = by_algo["dijkstra"]
        assert search.expansions is not None
        assert search.cells_touched is not None
        assert search.iterations is None and search.path_count is None

    def test_unreachable_yields_null_lengths_not_errors(self):
        report = compare(fixture_map("sealed"))
        assert all(record.path_length is None for record in report.records)
        wavefront = report.records[0]
        assert wavefront.path_count == 0
        assert wavefront.cells_costed == 3

    def test_empty_selection_keeps_map_stats_only(self):
        report = compare(fixture_map("room"), ())
        assert report.records == ()
        assert (report.width, report.height) == (5, 5)

    def test_requires_destination(self):
        from gridwave import parse_map

        with pytest.raises(ValueError):
            compare(parse_map("###\n#S#\n###\n"))

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            compare(fixture_map("room"), ("bellman-ford",))

    def test_pocket_gap(self):
        report = compare(fixture_map("pocket"), ("wavefront", "astar-euclidean"))
        wavefront, euclidean = report.records
        assert wavefront.iterations < euclidean.expansions


class TestRunSuite:
    SPECS = tuple(GenSpec(12, 10, 0.25, seed) for seed in range(1, 6))

    def test_one_report_per_spec_with_seed_identity(self):
        suite = run_suite(self.SPECS)
        assert len(suite.reports) == len(self.SPECS)
        assert [report.seed for report in suite.reports] == [1, 2, 3, 4, 5]
        assert all((report.width, report.height) == (12, 10) for report in suite.reports)

    def test_reruns_are_byte_identical_json_and_csv(self):
        first = run_suite(self.SPECS)
        second = run_suite(self.SPECS)
        assert to_json(suite_to_dict(first)) == to_json(suite_to_dict(second))
        assert suite_to_csv(first) == suite_to_csv(second)

    def test_equal_length_invariant_holds(self):
        suite = run_suite(self.SPECS)
        for report in suite.reports:
            lengths = {
                record.path_length
                for record in report.records
                if record.algo != "astar-euclidean"
            }
            assert len(lengths) == 1

    def test_empty_specs_rejected(self):
        with pytest.raises(ValueError):
            run_suite(())

    def test_unsatisfiable_propagates(self):
        with pytest.raises(UnsatisfiableError):
            run_suite((GenSpec(5, 5, 1.0, 1, require_solvable=True),))

    def test_aggregates_cover_every_algo_and_counter(self):
        suite = run_suite(self.SPECS)
        aggregates = suite.aggregates()
        assert set(aggregates) == set(ALL_ALGOS)
        assert {"mean", "median"} <= set(aggregates["wavefront"]["iterations"])
        assert aggregates["dijkstra"]["expansions"]["mean"] > 0


class TestMeasureComplexity:
    """The complexity counters, read from a full flood and from Dijkstra."""

    def test_counters_on_detour(self):
        grid = fixture_map("detour")
        outcome = flood(grid, stop_at_destination=False)
        assert sum(kind.traversable for kind in grid.cells) == 13
        assert grid.count(CellKind.OBSTACLE) == 2
        assert outcome.field.at(grid.destination) == 4
        assert outcome.field.finite_count() == 13
        assert dijkstra(grid).expansions > 0

    def test_invariants(self, generated_pool):
        for grid in generated_pool:
            outcome = flood(grid, stop_at_destination=False)
            assert outcome.field.finite_count() <= sum(kind.traversable for kind in grid.cells)
            if outcome.field.is_finite(grid.destination):
                assert outcome.field.at(grid.destination) <= outcome.iterations_run

    def test_unreachable_destination(self):
        grid = fixture_map("sealed")
        outcome = flood(grid, stop_at_destination=False)
        assert not outcome.field.is_finite(grid.destination)
        assert outcome.field.finite_count() == 3
