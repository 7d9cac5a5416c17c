"""Benchmark harness: run algorithms side by side and collect counters.

Counters (iterations, expansions, cells touched) are the comparable
quantities; elapsed wall time is recorded for context but is never a
correctness signal, and the serializers omit it by default so suite
output stays byte-reproducible.

The wavefront and the searches count different work units -- an
iteration costs a whole frontier, an expansion settles one cell -- so
each record also carries cells_costed / cells_touched, which are
directly comparable.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from .backtrack import backtrack
from .baselines import SearchResult, astar, dijkstra
from .errors import GridWaveError, NoPathError
from .grid import CornerRule, GridMap, ensure_destination
from .mapgen import generate_map
from .wavefront import flood

WAVEFRONT = "wavefront"
DIJKSTRA = "dijkstra"
ASTAR_CHEBYSHEV = "astar-chebyshev"
ASTAR_EUCLIDEAN = "astar-euclidean"

#: Every algorithm the harness knows, in canonical report order.
ALL_ALGOS = (WAVEFRONT, DIJKSTRA, ASTAR_CHEBYSHEV, ASTAR_EUCLIDEAN)

#: Algorithms guaranteed to return an optimal path (Euclidean A* is not).
EXACT_ALGOS = (WAVEFRONT, DIJKSTRA, ASTAR_CHEBYSHEV)

#: Counter fields eligible for suite aggregation, in column order.
NUMERIC_FIELDS = (
    "iterations",
    "cells_costed",
    "expansions",
    "cells_touched",
    "path_length",
    "path_count",
)


@dataclass(frozen=True)
class AlgoRecord:
    """Counters from one algorithm on one map.

    The wavefront fills iterations / cells_costed / path_count; the
    searches fill expansions / cells_touched.  path_length is None when
    the destination was unreachable.
    """

    algo: str
    path_length: int | None
    elapsed_us: int
    iterations: int | None = None
    cells_costed: int | None = None
    path_count: int | None = None
    expansions: int | None = None
    cells_touched: int | None = None


@dataclass(frozen=True)
class ComparisonReport:
    """All requested algorithms run once on one map."""

    width: int
    height: int
    seed: int | None
    records: tuple[AlgoRecord, ...]


@dataclass(frozen=True)
class SuiteReport:
    """Per-map reports for a whole spec list, in spec order."""

    reports: tuple[ComparisonReport, ...]

    def aggregates(self) -> dict:
        """Mean and median of each counter, per algorithm, over the suite.

        Unreachable-map records contribute nothing to path_length; a
        counter absent from every record is omitted.
        """
        by_algo: dict[str, dict[str, list]] = {}
        for report in self.reports:
            for record in report.records:
                fields = by_algo.setdefault(record.algo, {})
                for name in NUMERIC_FIELDS:
                    value = getattr(record, name)
                    if value is not None:
                        fields.setdefault(name, []).append(value)
        return {
            algo: {
                name: {
                    "mean": statistics.mean(values),
                    "median": statistics.median(values),
                }
                for name, values in fields.items()
            }
            for algo, fields in by_algo.items()
        }


def _run_wavefront(grid, rule, mode, max_paths) -> AlgoRecord:
    started = time.perf_counter_ns()
    outcome = flood(grid, rule)
    paths = None
    if outcome.reached_destination:
        paths = backtrack(outcome.field, grid, rule, mode, max_paths)
    elapsed = time.perf_counter_ns() - started
    return AlgoRecord(
        algo=WAVEFRONT,
        path_length=paths[0].length if paths is not None else None,
        elapsed_us=elapsed // 1000,
        iterations=outcome.iterations_run,
        cells_costed=outcome.field.finite_count(),
        path_count=paths.count if paths is not None else 0,
    )


def _search(grid, rule, algo: str) -> SearchResult:
    """One search run; an exhausted run's counters come from its NoPathError."""
    try:
        if algo == DIJKSTRA:
            return dijkstra(grid, rule)
        return astar(grid, rule, algo.removeprefix("astar-"))
    except NoPathError as exc:
        return exc.result


def _run_search(grid, rule, algo: str) -> AlgoRecord:
    started = time.perf_counter_ns()
    result = _search(grid, rule, algo)
    elapsed = time.perf_counter_ns() - started
    return AlgoRecord(
        algo=algo,
        path_length=result.path.length if result.path is not None else None,
        elapsed_us=elapsed // 1000,
        expansions=result.expansions,
        cells_touched=len(result.visited),
    )


def compare(
    grid: GridMap,
    algos: tuple = ALL_ALGOS,
    rule: "CornerRule | str" = CornerRule.ALLOW,
    mode: str = "first",
    max_paths: int = 64,
    seed: int | None = None,
) -> ComparisonReport:
    """Run each selected algorithm once on ``grid`` and collect counters.

    The map must have a destination.  An unreachable destination is not
    an error: the affected records simply carry path_length None.  The
    optimal algorithms are cross-checked against each other and a
    disagreement raises GridWaveError, since it can only mean a bug.
    """
    ensure_destination(grid)
    rule = CornerRule.coerce(rule)
    for algo in algos:
        if algo not in ALL_ALGOS:
            raise ValueError(f"unknown algorithm {algo!r}; expected one of {ALL_ALGOS}")
    records = []
    for algo in algos:
        if algo == WAVEFRONT:
            records.append(_run_wavefront(grid, rule, mode, max_paths))
        else:
            records.append(_run_search(grid, rule, algo))

    exact_lengths = {
        record.path_length for record in records if record.algo in EXACT_ALGOS
    }
    if len(exact_lengths) > 1:
        raise GridWaveError(
            f"optimal algorithms disagree on path length: {sorted(map(str, exact_lengths))}"
        )
    return ComparisonReport(grid.width, grid.height, seed, tuple(records))


def run_suite(
    specs,
    algos: tuple = ALL_ALGOS,
    rule: "CornerRule | str" = CornerRule.ALLOW,
    mode: str = "first",
    max_paths: int = 64,
    max_attempts: int = 100,
) -> SuiteReport:
    """Generate a map per spec and compare the algorithms on each.

    Deterministic: identical specs yield identical reports (timing
    aside).  Raises ValueError on an empty spec list and propagates
    UnsatisfiableError from generation.
    """
    specs = tuple(specs)
    if not specs:
        raise ValueError("run_suite needs at least one spec")
    rule = CornerRule.coerce(rule)
    reports = []
    for spec in specs:
        grid = generate_map(spec, rule, max_attempts=max_attempts)
        reports.append(
            compare(grid, algos, rule, mode=mode, max_paths=max_paths, seed=spec.seed)
        )
    return SuiteReport(tuple(reports))

