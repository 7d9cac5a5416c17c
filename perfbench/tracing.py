"""Traced replay: per-layer spans and exact counters for each request.

The end-to-end run only ever calls ``gridwave.cli.main(argv)``.  The traced
run calls it too, inside a span, and then replays the public calls that the
same request makes, one span per call, so each layer's time and work can be
read on its own.  Spans and counters are recorded here, in the benchmark, not
inside the program.

``LAYERS`` is the one table from a layer's span name to the public function(s)
it calls.  A function that a later change renames or removes is resolved to
nothing: its layer is skipped, every metric built on it is reported absent,
and the end-to-end run, which never reads this table, is unaffected.
"""

from __future__ import annotations

import importlib
import statistics
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable

import workloads

# --------------------------------------------------------------------------
# Spans


class SpanRecorder:
    """In-memory spans: name, parent, request id, start and end in ns."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []

    def begin(self, name: str, request) -> None:
        parent = self._open[-1] if self._open else None
        self._open.append(len(self.spans))
        self.spans.append([name, parent, request, perf_counter_ns(), None])

    def end(self) -> int:
        """Close the innermost span and return its duration in ns."""
        span = self.spans[self._open.pop()]
        span[4] = perf_counter_ns()
        return span[4] - span[3]

    def records(self) -> list:
        """Every span; ``self_ns`` is its duration minus its direct children's."""
        own = [end - start for _, _, _, start, end in self.spans]
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return [
            {"id": i, "name": name, "parent": parent, "request": request,
             "start_ns": start, "end_ns": end, "self_ns": own[i]}
            for i, (name, parent, request, start, end) in enumerate(self.spans)
        ]


# --------------------------------------------------------------------------
# The layer table


@dataclass(frozen=True)
class Layer:
    """One public call: where it lives, how the replay calls it, what it counts.

    ``call(fns, ctx)`` runs inside the span; ``count(result, ctx, tally)`` runs
    after the span closes and stores into ``ctx`` what later layers need.
    """

    targets: tuple
    call: Callable
    count: Callable


def _keep_grid(grid, ctx, tally):
    ctx["grid"] = grid


def _flood_count(outcome, ctx, tally):
    ctx["outcome"] = outcome
    cells = outcome.field.finite_count()
    tally.add("wavefront.iterations", outcome.iterations_run)
    tally.add("wavefront.cells_costed", cells)
    tally.peak("wavefront.peak_wave_width", max(len(r.costed) for r in outcome.trace.iterations))
    tally.sample("wavefront.ns_per_cell", tally.last_ns / cells)


def _backtrack_count(all_paths: bool):
    def count(paths, ctx, tally):
        ctx["paths"] = paths
        tally.add("backtrack.paths_enumerated", paths.count)
        if all_paths:
            tally.add("backtrack.all_calls", 1)
            tally.add("backtrack.truncated", int(paths.truncated))

    return count


def _search_count(label):
    def count(result, ctx, tally):
        ctx["search"] = result
        tally.add(f"baselines.{label}_expansions", result.expansions)
        tally.sample("baselines.ns_per_expansion", tally.last_ns / result.expansions)
        if label != "dijkstra":
            tally.add("baselines.astar_expansions", result.expansions)
            tally.add("baselines.astar_touched", len(result.visited))

    return count


def _bytes_count(metric):
    def count(text, ctx, tally):
        tally.add(metric, len(text.encode()))

    return count


def _nothing(result, ctx, tally):
    pass


LAYERS = {
    "grid.parse": Layer(("gridwave.grid:parse_map",), lambda f, c: f[0](c["text"]), _keep_grid),
    "wavefront.flood": Layer(
        ("gridwave.wavefront:flood",),
        lambda f, c: f[0](c["grid"], c["rule"], stop_at_destination=c["stop"]),
        _flood_count,
    ),
    "backtrack.first": Layer(
        ("gridwave.backtrack:backtrack",),
        lambda f, c: f[0](c["outcome"].field, c["grid"], c["rule"], mode="first"),
        _backtrack_count(all_paths=False),
    ),
    "backtrack.all": Layer(
        ("gridwave.backtrack:backtrack",),
        lambda f, c: f[0](
            c["outcome"].field, c["grid"], c["rule"], mode="all", max_paths=workloads.MAX_PATHS
        ),
        _backtrack_count(all_paths=True),
    ),
    "baselines.dijkstra": Layer(
        ("gridwave.baselines:dijkstra",), lambda f, c: f[0](c["grid"], c["rule"]), _search_count("dijkstra")
    ),
    "baselines.astar_chebyshev": Layer(
        ("gridwave.baselines:astar",),
        lambda f, c: f[0](c["grid"], c["rule"], "chebyshev"),
        _search_count("astar_chebyshev"),
    ),
    "baselines.astar_euclidean": Layer(
        ("gridwave.baselines:astar",),
        lambda f, c: f[0](c["grid"], c["rule"], "euclidean"),
        _search_count("astar_euclidean"),
    ),
    "baselines.bfs_oracle": Layer(
        ("gridwave.baselines:bfs8_distance_field",), lambda f, c: f[0](c["grid"], c["rule"]), _nothing
    ),
    "bench.compare": Layer(
        ("gridwave.bench:compare",),
        lambda f, c: f[0](c["grid"], ("dijkstra", "astar-chebyshev", "astar-euclidean"), c["rule"]),
        _nothing,
    ),
    "mapgen.generate": Layer(
        ("gridwave.mapgen:GenSpec", "gridwave.mapgen:generate_map"),
        lambda f, c: f[1](f[0](*c["gen"], True), c["rule"]),
        _keep_grid,
    ),
    "render.overlay": Layer(
        ("gridwave.render:render_path_overlay",),
        lambda f, c: f[0](c["grid"], c["path"]()),
        _bytes_count("render.bytes_out"),
    ),
    "render.trace_frames": Layer(
        ("gridwave.render:render_trace",),
        lambda f, c: f[0](c["grid"], c["outcome"].trace, style=c["style"]).to_text(),
        _bytes_count("render.bytes_out"),
    ),
    "serialize.pathset_json": Layer(
        ("gridwave.serialize:pathset_to_dict", "gridwave.serialize:to_json"),
        lambda f, c: f[1](f[0](c["paths"])),
        _bytes_count("serialize.bytes_out"),
    ),
    "serialize.search_json": Layer(
        ("gridwave.serialize:search_result_to_dict", "gridwave.serialize:to_json"),
        lambda f, c: f[1](f[0](c["search"], "astar", c["heuristic"])),
        _bytes_count("serialize.bytes_out"),
    ),
    "serialize.trace_json": Layer(
        ("gridwave.serialize:trace_to_dict", "gridwave.serialize:to_json"),
        lambda f, c: f[1](f[0](c["outcome"].trace), pretty=True),
        _bytes_count("serialize.bytes_out"),
    ),
}


@dataclass(frozen=True)
class Plan:
    """The replay of one request kind.

    ``steps`` are the public calls the CLI makes at top level, in order; their
    spans are subtracted from the ``cli.main`` span to give the CLI's own
    overhead.  ``inner`` are calls the CLI makes inside one of those steps
    (Dijkstra and A* inside ``bench.compare``, the BFS oracle inside
    ``generate_map``), replayed again on their own so their time shows.
    """

    steps: tuple
    inner: tuple = ()
    ctx: dict = field(default_factory=dict)


PLANS = {
    "solve-text": Plan(
        ("grid.parse", "wavefront.flood", "backtrack.first", "render.overlay"), ctx={"stop": True}
    ),
    "solve-json": Plan(
        ("grid.parse", "wavefront.flood", "backtrack.first", "serialize.pathset_json"),
        ctx={"stop": True},
    ),
    "solve-all-json": Plan(
        ("grid.parse", "wavefront.flood", "backtrack.all", "serialize.pathset_json"),
        ctx={"stop": True},
    ),
    "astar-text": Plan(("grid.parse", "baselines.astar_chebyshev", "render.overlay")),
    "astar-euclidean-json": Plan(
        ("grid.parse", "baselines.astar_euclidean", "serialize.search_json"),
        ctx={"heuristic": "euclidean"},
    ),
    "compare-json": Plan(
        ("grid.parse", "bench.compare"),
        inner=("baselines.dijkstra", "baselines.astar_chebyshev", "baselines.astar_euclidean"),
    ),
    "gen": Plan(("mapgen.generate",), inner=("baselines.bfs_oracle",)),
    "render-full-costs": Plan(
        ("grid.parse", "wavefront.flood", "serialize.trace_json", "render.trace_frames"),
        ctx={"stop": False, "style": "costs"},
    ),
    "render-marks": Plan(
        ("grid.parse", "wavefront.flood", "render.trace_frames"), ctx={"stop": True, "style": "marks"}
    ),
}

#: Every layer once, for layers that a workload's own requests never call.
PROBE_PLAN = Plan(
    (
        "grid.parse", "wavefront.flood", "backtrack.first", "render.overlay",
        "backtrack.all", "serialize.pathset_json", "render.trace_frames",
        "serialize.trace_json", "baselines.dijkstra", "baselines.astar_chebyshev",
        "baselines.astar_euclidean", "serialize.search_json", "baselines.bfs_oracle",
        "bench.compare", "mapgen.generate",
    ),
    ctx={"stop": True, "style": "marks", "heuristic": "euclidean"},
)
PROBE_MAPS = 3
PROBE_SIZE = 32
PROBE_BOXES = ((1, 4), (24, 28))


def resolve(table: dict) -> tuple:
    """Look up every layer's functions; return (found, {layer: why absent})."""
    found, absent = {}, {}
    for name, layer in table.items():
        fns = []
        for target in layer.targets:
            module, _, attr = target.partition(":")
            try:
                fns.append(getattr(importlib.import_module(module), attr))
            except (ImportError, AttributeError) as exc:
                absent[name] = f"{target}: {type(exc).__name__}"
                break
        else:
            found[name] = tuple(fns)
    return found, absent


# --------------------------------------------------------------------------
# Tallies and per-layer metrics


class Tally:
    """Span times per layer, exact counters, and per-call samples."""

    def __init__(self):
        self.times: dict = {}
        self.counts: dict = {}
        self.peaks: dict = {}
        self.samples: dict = {}
        self.last_ns = 0

    def time(self, name: str, ns: int) -> None:
        self.times.setdefault(name, []).append(ns)
        self.last_ns = ns

    def add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: int) -> None:
        self.peaks[name] = max(self.peaks.get(name, 0), value)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def merge(self, other: "Tally", scale: float) -> None:
        """Fold in one request's tally; its times and samples (all times) scaled."""
        for name, values in other.times.items():
            self.times.setdefault(name, []).extend(v * scale for v in values)
        for name, values in other.samples.items():
            self.samples.setdefault(name, []).extend(v * scale for v in values)
        for name, value in other.counts.items():
            self.add(name, value)
        for name, value in other.peaks.items():
            self.peak(name, value)


def _median_ms(span: str):
    return lambda t: statistics.median(t.times[span]) / 1e6


def _count(name: str):
    return lambda t: t.counts[name]


def _peak(name: str):
    return lambda t: t.peaks[name]


def _sample_median(name: str):
    return lambda t: statistics.median(t.samples[name])


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    value: Callable
    moves: str


_ALL_THREE = "all three workloads"

#: Every per-layer metric, with the end-to-end metric and workload it should move.
LAYER_METRICS = (
    LayerMetric("grid.parse_ms", "ms", "lower", _median_ms("grid.parse"),
                f"req_p50_ms on {_ALL_THREE}, most on search-solve"),
    LayerMetric("wavefront.flood_ms", "ms", "lower", _median_ms("wavefront.flood"),
                "req_p50_ms and throughput_rps on wave-solve, req_p90_ms on trace-render; "
                "not search-solve"),
    LayerMetric("wavefront.ns_per_cell_costed", "ns", "lower", _sample_median("wavefront.ns_per_cell"),
                "req_p50_ms and throughput_rps on wave-solve, req_p90_ms on trace-render; "
                "not search-solve"),
    LayerMetric("wavefront.iterations", "count", "lower", _count("wavefront.iterations"),
                "req_p50_ms on wave-solve (work count)"),
    LayerMetric("wavefront.cells_costed", "count", "lower", _count("wavefront.cells_costed"),
                "req_p50_ms on wave-solve (work count)"),
    LayerMetric("wavefront.peak_wave_width", "count", "lower", _peak("wavefront.peak_wave_width"),
                "peak_rss_mb on wave-solve"),
    LayerMetric("backtrack.first_ms", "ms", "lower", _median_ms("backtrack.first"),
                "req_p90_ms on wave-solve"),
    LayerMetric("backtrack.all_ms", "ms", "lower", _median_ms("backtrack.all"),
                "req_p90_ms on wave-solve"),
    LayerMetric("backtrack.paths_enumerated", "count", "lower", _count("backtrack.paths_enumerated"),
                "req_p90_ms on wave-solve"),
    LayerMetric("backtrack.truncated_ratio", "ratio", "lower",
                lambda t: t.counts["backtrack.truncated"] / t.counts["backtrack.all_calls"],
                "req_p90_ms on wave-solve"),
    LayerMetric("baselines.dijkstra_ms", "ms", "lower", _median_ms("baselines.dijkstra"),
                "req_p90_ms on search-solve"),
    LayerMetric("baselines.astar_chebyshev_ms", "ms", "lower", _median_ms("baselines.astar_chebyshev"),
                "req_p50_ms on search-solve"),
    LayerMetric("baselines.astar_euclidean_ms", "ms", "lower", _median_ms("baselines.astar_euclidean"),
                "req_p50_ms on search-solve"),
    LayerMetric("baselines.dijkstra_expansions", "count", "lower",
                _count("baselines.dijkstra_expansions"), "req_p90_ms on search-solve"),
    LayerMetric("baselines.astar_chebyshev_expansions", "count", "lower",
                _count("baselines.astar_chebyshev_expansions"), "req_p50_ms on search-solve"),
    LayerMetric("baselines.astar_euclidean_expansions", "count", "lower",
                _count("baselines.astar_euclidean_expansions"), "req_p50_ms on search-solve"),
    LayerMetric("baselines.astar_settled_ratio", "ratio", "higher",
                lambda t: t.counts["baselines.astar_expansions"] / t.counts["baselines.astar_touched"],
                "req_p50_ms on search-solve"),
    LayerMetric("baselines.ns_per_expansion", "ns", "lower", _sample_median("baselines.ns_per_expansion"),
                "req_p50_ms (A*) and req_p90_ms (Dijkstra) on search-solve"),
    LayerMetric("baselines.bfs_oracle_ms", "ms", "lower", _median_ms("baselines.bfs_oracle"),
                "req_p50_ms on trace-render, through gen --solvable"),
    LayerMetric("bench.compare_ms", "ms", "lower", _median_ms("bench.compare"),
                "req_p90_ms on search-solve"),
    LayerMetric("mapgen.generate_ms", "ms", "lower", _median_ms("mapgen.generate"),
                "req_p50_ms on trace-render"),
    LayerMetric("render.overlay_ms", "ms", "lower", _median_ms("render.overlay"),
                "req_p50_ms on wave-solve and search-solve"),
    LayerMetric("render.trace_frames_ms", "ms", "lower", _median_ms("render.trace_frames"),
                "req_p90_ms on trace-render"),
    LayerMetric("render.bytes_out", "bytes", "lower", _count("render.bytes_out"),
                "req_p90_ms on trace-render"),
    LayerMetric("serialize.pathset_json_ms", "ms", "lower", _median_ms("serialize.pathset_json"),
                "req_p50_ms and req_p90_ms of the JSON kinds on wave-solve"),
    LayerMetric("serialize.search_json_ms", "ms", "lower", _median_ms("serialize.search_json"),
                "req_p50_ms of the JSON kinds on search-solve"),
    LayerMetric("serialize.trace_json_ms", "ms", "lower", _median_ms("serialize.trace_json"),
                "req_p90_ms on trace-render"),
    LayerMetric("serialize.bytes_out", "bytes", "lower", _count("serialize.bytes_out"),
                "request metrics of the JSON-emitting kinds"),
    LayerMetric("cli.overhead_ms", "ms", "lower", _sample_median("cli.overhead"),
                f"req_p50_ms on {_ALL_THREE}"),
    LayerMetric("trace.overhead_ms", "ms", "lower", _sample_median("trace.overhead"),
                "none: the cost of tracing itself, absent from untraced runs"),
)


def layer_metrics(own: Tally, probe: Tally) -> tuple:
    """Metric values from the workload's own requests, else from the probes.

    Returns ({name: value or None}, [names taken from probes]).
    """
    values, probed = {}, []
    for metric in LAYER_METRICS:
        for tally in (own, probe):
            try:
                values[metric.name] = metric.value(tally)
            except (KeyError, ZeroDivisionError, statistics.StatisticsError):
                continue
            if tally is probe:
                probed.append(metric.name)
            break
        else:
            values[metric.name] = None
    return values, probed


# --------------------------------------------------------------------------
# Replay


def replay(plan: Plan, base_ctx: dict, fns: dict, recorder: SpanRecorder, tally: Tally,
           request, errors: list) -> int:
    """Run one plan's calls under spans; return the ns its top-level steps took.

    A layer whose functions are absent is skipped.  A call that raises,
    including one whose input an absent or failing earlier layer should have
    made, is recorded in ``errors`` and its span dropped; the replay goes on.
    """
    ctx = dict(plan.ctx, **base_ctx)
    ctx["path"] = lambda: (ctx["paths"][0] if "paths" in ctx else ctx["search"].path)
    top_level_ns = 0
    for name in plan.steps + plan.inner:
        if name not in fns:
            continue
        layer = LAYERS[name]
        recorder.begin(name, request)
        try:
            result = layer.call(fns[name], ctx)
        except Exception as exc:  # a changed signature or a missing input
            recorder.end()
            recorder.spans.pop()
            errors.append({"request": request, "layer": name, "error": f"{type(exc).__name__}: {exc}"})
            continue
        ns = recorder.end()
        tally.time(name, ns)
        if name in plan.steps:
            top_level_ns += ns
        try:
            layer.count(result, ctx, tally)
        except Exception as exc:  # counters read from a changed return type
            errors.append({"request": request, "layer": name, "error": f"{type(exc).__name__}: {exc}"})
    return top_level_ns


def probe_requests(seed: int):
    """Contexts for the probe maps: small maps of the benchmark's own, both rules."""
    rng = workloads.stream(seed, "probe")
    for i in range(PROBE_MAPS):
        rule = workloads.RULES[i % 2]
        ref = workloads.reachable_map(rng, PROBE_SIZE, 0.2, rule, PROBE_BOXES)
        gen = (PROBE_SIZE, PROBE_SIZE, workloads.GEN_DENSITY, rng.next_u64() & 0x7FFFFFFF)
        yield f"probe-{i}", {"text": "\n".join(ref.rows) + "\n", "rule": rule, "gen": gen}
