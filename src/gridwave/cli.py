"""Command-line front end: solve, compare, gen, and render.

Exit codes: 0 the command succeeded (a requested path exists), 1 the
map is valid but the goal is unattainable (no path, or generation
unsatisfiable), 2 bad input or usage, 3 an internal error (a bug: one
line on stderr instead of a traceback).  ``--json`` output is valid JSON
on both exit 0 and exit 1.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path as FilePath

from . import bench, serialize
from .backtrack import backtrack
from .baselines import astar, dijkstra
from .errors import MapFormatError, NoPathError, UnsatisfiableError
from .grid import GridMap, parse_map, render_map
from .mapgen import GenSpec, generate_map
from .render import STYLES, render_path_overlay, render_trace
from .wavefront import flood

_SEARCH_ALGOS = ("dijkstra", "astar")

#: Exit code for an unexpected exception, distinct from every outcome code.
EXIT_INTERNAL_ERROR = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridwave",
        description="Grid shortest paths by wavefront expansion, with baselines.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="find shortest path(s) on a map")
    solve.add_argument("map", help="map file")
    solve.add_argument(
        "--algo",
        choices=("wavefront", *_SEARCH_ALGOS),
        default="wavefront",
        help="algorithm (default: wavefront)",
    )
    solve.add_argument(
        "--heuristic",
        choices=("chebyshev", "euclidean"),
        default=None,
        help="A* heuristic (default: chebyshev; only valid with --algo astar)",
    )
    solve.add_argument(
        "--all-paths",
        action="store_true",
        help="enumerate every shortest path (wavefront only)",
    )
    solve.add_argument(
        "--max-paths",
        type=int,
        default=None,
        metavar="N",
        help="cap for --all-paths enumeration (default: 64)",
    )
    solve.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write the expansion trace as JSON (wavefront only)",
    )
    _common_flags(solve, json_flag=True)

    compare = commands.add_parser("compare", help="run several algorithms on one map")
    compare.add_argument("map", help="map file (must have a destination)")
    compare.add_argument(
        "--algos",
        default=",".join(bench.ALL_ALGOS),
        metavar="LIST",
        help="comma-separated algorithms: wavefront, dijkstra, astar, "
        "astar-chebyshev, astar-euclidean (default: all four counters)",
    )
    compare.add_argument(
        "--heuristic",
        choices=("chebyshev", "euclidean"),
        default="chebyshev",
        help="heuristic a bare 'astar' entry uses (default: chebyshev)",
    )
    _common_flags(compare, json_flag=True)

    gen = commands.add_parser("gen", help="generate a random map")
    gen.add_argument("--width", type=int, required=True)
    gen.add_argument("--height", type=int, required=True)
    gen.add_argument("--density", type=float, default=0.2, help="obstacle probability (default: 0.2)")
    gen.add_argument("--seed", type=int, default=0, help="generator seed (default: 0)")
    gen.add_argument(
        "--solvable",
        action="store_true",
        help="retry until source and destination are connected",
    )
    _common_flags(gen, json_flag=False)

    render = commands.add_parser("render", help="render an expansion as ASCII frames")
    render.add_argument("map", help="map file")
    render.add_argument(
        "--style",
        choices=STYLES,
        default="marks",
        help="marks: reached cells as * and new sources as N; "
        "costs: each reached cell as its cost (default: marks)",
    )
    render.add_argument(
        "--full",
        action="store_true",
        help="keep expanding past the destination to the whole component",
    )
    render.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="also write the expansion trace as JSON",
    )
    _common_flags(render, json_flag=False)
    return parser


def _common_flags(sub: argparse.ArgumentParser, json_flag: bool) -> None:
    if json_flag:
        sub.add_argument("--json", action="store_true", help="machine-readable output")
    sub.add_argument(
        "--corner-cut",
        choices=("allow", "forbid"),
        default="allow",
        help="diagonal squeeze between two blocked cells (default: allow)",
    )
    sub.add_argument("--out", metavar="FILE", default=None, help="write output to FILE")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handler = {
        "solve": _cmd_solve,
        "compare": _cmd_compare,
        "gen": _cmd_gen,
        "render": _cmd_render,
    }[args.command]
    try:
        return handler(args)
    except (MapFormatError, ValueError, OSError) as exc:
        print(f"gridwave: error: {exc}", file=sys.stderr)
        return 2
    except UnsatisfiableError as exc:
        print(f"gridwave: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"gridwave: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


def _load_map(path: str) -> GridMap:
    return parse_map(FilePath(path).read_text(encoding="utf-8"))


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        FilePath(out).write_text(text, encoding="utf-8")


def _usage_error(message: str) -> int:
    print(f"gridwave: error: {message}", file=sys.stderr)
    return 2


def _cmd_solve(args) -> int:
    grid = _load_map(args.map)
    if args.algo != "astar" and args.heuristic is not None:
        return _usage_error("--heuristic only applies to --algo astar")
    if args.algo != "wavefront":
        wavefront_only = (
            ("--all-paths", args.all_paths),
            ("--max-paths", args.max_paths is not None),
            ("--trace", args.trace is not None),
        )
        for name, given in wavefront_only:
            if given:
                return _usage_error(f"{name} only applies to --algo wavefront")
    if grid.destination is None:
        return _usage_error("this map has no destination cell to solve for")
    if args.algo == "wavefront":
        return _solve_wavefront(args, grid)
    return _solve_search(args, grid)


def _solve_wavefront(args, grid: GridMap) -> int:
    mode = "all" if args.all_paths else "first"
    max_paths = args.max_paths if args.max_paths is not None else 64
    if max_paths < 1:
        return _usage_error("--max-paths must be at least 1")
    outcome = flood(grid, args.corner_cut)
    if args.trace is not None:
        FilePath(args.trace).write_text(
            serialize.to_json(serialize.trace_to_dict(outcome.trace), pretty=True),
            encoding="utf-8",
        )
    reached = outcome.reached_destination
    paths = backtrack(outcome.field, grid, args.corner_cut, mode, max_paths) if reached else None
    iterations = outcome.iterations_run
    cells_costed = outcome.field.finite_count()

    if args.json:
        payload = {
            "algo": "wavefront",
            "reached": reached,
            "iterations": iterations,
            "cells_costed": cells_costed,
            "paths": serialize.pathset_to_dict(paths)
            if paths is not None
            else {"count": 0, "truncated": False, "paths": []},
        }
        _emit(serialize.to_json(payload) + "\n", args.out)
        return 0 if reached else 1

    if not reached:
        _emit(
            f"no path from {tuple(grid.source)} to {tuple(grid.destination)}: "
            f"flooded {cells_costed} cells in {iterations} iterations\n",
            args.out,
        )
        return 1
    lines = [_path_summary(paths), render_path_overlay(grid, paths[0]).rstrip("\n")]
    if paths.count > 1:
        lines += [
            f"path {i}: " + " ".join(f"({r},{c})" for r, c in path.cells)
            for i, path in enumerate(paths, start=1)
        ]
    lines.append(f"iterations {iterations}, cells costed {cells_costed}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _path_summary(paths) -> str:
    claim = f"path length {paths[0].length} ({paths.count} path{'s' if paths.count != 1 else ''}"
    return claim + (", truncated)" if paths.truncated else ")")


def _solve_search(args, grid: GridMap) -> int:
    heuristic = args.heuristic or "chebyshev"
    label_heuristic = heuristic if args.algo == "astar" else None
    try:
        if args.algo == "dijkstra":
            result = dijkstra(grid, args.corner_cut)
        else:
            result = astar(grid, args.corner_cut, heuristic)
    except NoPathError as exc:
        result = exc.result
    path = result.path

    if args.json:
        payload = serialize.search_result_to_dict(result, args.algo, label_heuristic)
        _emit(serialize.to_json(payload) + "\n", args.out)
        return 0 if path is not None else 1

    if path is None:
        _emit(
            f"no path from {tuple(grid.source)} to {tuple(grid.destination)}: "
            f"exhausted after {result.expansions} expansions\n",
            args.out,
        )
        return 1
    _emit(
        f"path length {path.length}\n"
        + render_path_overlay(grid, path)
        + f"expansions {result.expansions}\n",
        args.out,
    )
    return 0


def _parse_algos(raw: str, heuristic: str) -> tuple:
    if raw.strip() == "":
        return ()
    algos = []
    for name in raw.split(","):
        name = name.strip()
        if name == "astar":
            name = f"astar-{heuristic}"
        if name not in bench.ALL_ALGOS:
            raise ValueError(
                f"unknown algorithm {name!r}; expected wavefront, dijkstra, astar, "
                "astar-chebyshev, or astar-euclidean"
            )
        algos.append(name)
    return tuple(algos)


def _cmd_compare(args) -> int:
    grid = _load_map(args.map)
    algos = _parse_algos(args.algos, args.heuristic)
    report = bench.compare(grid, algos, rule=args.corner_cut)
    unreachable = any(record.path_length is None for record in report.records)

    if args.json:
        payload = serialize.report_to_dict(report, include_timing=True)
        _emit(serialize.to_json(payload) + "\n", args.out)
    else:
        _emit(_report_table(report), args.out)
    return 1 if unreachable else 0


def _report_table(report) -> str:
    header = ("algo", "length", "iterations", "expansions", "cells", "paths", "elapsed_us")
    rows = [header]
    for record in report.records:
        cells = record.cells_costed if record.cells_costed is not None else record.cells_touched
        rows.append(
            tuple(
                "-" if value is None else str(value)
                for value in (
                    record.algo,
                    record.path_length,
                    record.iterations,
                    record.expansions,
                    cells,
                    record.path_count,
                    record.elapsed_us,
                )
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = [
        "  ".join(cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i]) for i, cell in enumerate(row))
        for row in rows
    ]
    return "\n".join(lines) + "\n"


def _cmd_gen(args) -> int:
    spec = GenSpec(args.width, args.height, args.density, args.seed, args.solvable)
    grid = generate_map(spec, rule=args.corner_cut)
    _emit(render_map(grid), args.out)
    return 0


def _cmd_render(args) -> int:
    grid = _load_map(args.map)
    outcome = flood(
        grid,
        rule=args.corner_cut,
        stop_at_destination=not args.full and grid.destination is not None,
    )
    if args.trace is not None:
        FilePath(args.trace).write_text(
            serialize.to_json(serialize.trace_to_dict(outcome.trace), pretty=True),
            encoding="utf-8",
        )
    _emit(render_trace(grid, outcome.trace, style=args.style).to_text(), args.out)
    if grid.destination is not None and not outcome.reached_destination:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
