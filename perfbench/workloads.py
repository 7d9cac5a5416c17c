"""Workload inputs, reference answers and output checks for the benchmark.

Everything here is owned by the benchmark and imports nothing from
``gridwave``: the maps come from the benchmark's own SplitMix64 stream and
the reference distances from its own breadth-first search, so no change to
the program can move what is measured or what counts as a correct answer.

A workload is an endless, seeded sequence of requests.  Each request is one
``gridwave`` argv whose map no earlier request of the run used.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass

_MASK64 = (1 << 64) - 1

#: Cap the CLI applies to ``--all-paths`` enumeration.
MAX_PATHS = 64

SOLVE_SIZE = 128
SOLVE_DENSITIES = (0.1, 0.25)
RULES = ("allow", "forbid")
#: Source and destination boxes for solve maps, so every solve crosses most
#: of the map and the work per request varies little between requests and seeds.
SOLVE_BOXES = ((1, 8), (85, 92))

GEN_SIZE = 48
GEN_DENSITY = 0.3
#: S and D boxes for the maps trace-render renders.
RENDER_BOXES = ((1, 4), (20, 24))


class CheckError(Exception):
    """A request's output is wrong."""


class SplitMix64:
    """The benchmark's own PRNG, so its inputs never depend on the program."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        # n is tiny next to 2**64, so the modulo bias is negligible.
        return self.next_u64() % n


def stream(seed: int, salt: str) -> SplitMix64:
    """Independent stream per (seed, purpose)."""
    digest = hashlib.sha256(f"{seed}:{salt}".encode()).digest()
    return SplitMix64(int.from_bytes(digest[:8], "little"))


# --------------------------------------------------------------------------
# Maps and the reference search


def random_map(rng: SplitMix64, size: int, density: float, boxes: tuple) -> list[str]:
    """A bordered square map, obstacles drawn 16 bits per cell.

    ``boxes`` is ((lo, hi) for S, (lo, hi) for D): the first and last row and
    column, inclusive, of the square each is drawn from.
    """
    threshold = round(density * 65536)
    inner = size - 2
    rows = ["#" * size]
    for _ in range(inner):
        chars = []
        while len(chars) < inner:
            u = rng.next_u64()
            for shift in (0, 16, 32, 48):
                chars.append("@" if (u >> shift) & 0xFFFF < threshold else ".")
        rows.append("#" + "".join(chars[:inner]) + "#")
    rows.append("#" * size)
    rows = [list(row) for row in rows]
    for symbol, (lo, hi) in zip("SD", boxes):
        rows[lo + rng.below(hi - lo + 1)][lo + rng.below(hi - lo + 1)] = symbol
    return ["".join(row) for row in rows]


@dataclass(frozen=True)
class Reference:
    """Breadth-first distances over one bordered map; -1 is unreached."""

    rows: tuple
    width: int
    dist: list
    source: int
    destination: int | None

    @property
    def length(self) -> int:
        return self.dist[self.destination]

    def within(self, limit: int) -> int:
        return sum(1 for d in self.dist if 0 <= d <= limit)

    def coord(self, index: int) -> tuple:
        return divmod(index, self.width)


def reference(rows, rule: str, full: bool = False) -> Reference:
    """Hop distances from S over king moves; stops after D's level unless full.

    Under ``forbid`` a diagonal is refused when both cells it slides between
    are blocked.  The map must be bordered, so no index leaves the grid.
    """
    width = len(rows[0])
    flat = "".join(rows)
    passable = [ch in ".SD" for ch in flat]
    dist = [-1] * len(flat)
    source = flat.index("S")
    destination = flat.find("D")
    destination = None if destination < 0 else destination
    forbid = rule == "forbid"
    orthogonal = (-width, 1, width, -1)
    diagonal = (
        (-width + 1, -width, 1),
        (width + 1, width, 1),
        (width - 1, width, -1),
        (-width - 1, -width, -1),
    )
    dist[source] = 0
    frontier = [source]
    level = 0
    while frontier:
        if not full and destination is not None and dist[destination] >= 0:
            break
        level += 1
        following = []
        for i in frontier:
            for step in orthogonal:
                j = i + step
                if passable[j] and dist[j] < 0:
                    dist[j] = level
                    following.append(j)
            for step, flank_a, flank_b in diagonal:
                j = i + step
                if passable[j] and dist[j] < 0 and (
                    not forbid or passable[i + flank_a] or passable[i + flank_b]
                ):
                    dist[j] = level
                    following.append(j)
        frontier = following
    return Reference(tuple(rows), width, dist, source, destination)


def reachable_map(rng: SplitMix64, size: int, density: float, rule: str,
                  boxes: tuple = SOLVE_BOXES) -> Reference:
    """Draw maps until D is reachable; the reference is kept for the check."""
    while True:
        ref = reference(random_map(rng, size, density, boxes), rule)
        if ref.length > 0:
            return ref


# --------------------------------------------------------------------------
# Requests


@dataclass
class Request:
    """One CLI invocation, plus what its check and its replay need."""

    index: int
    kind: str
    argv: list
    rule: str = "allow"
    map_path: str | None = None
    out_path: str | None = None
    trace_path: str | None = None
    text: str | None = None
    gen_seed: int | None = None
    ref: Reference | None = None


def _write_map(workdir: str, name: str, rows) -> tuple:
    path = os.path.join(workdir, name)
    text = "\n".join(rows) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path, text


class Workload:
    name = ""

    def requests(self, seed: int, workdir: str, salt: str = ""):
        """Endless request sequence; files are written as requests are drawn.

        A different ``salt`` gives an unrelated sequence of the same shape.
        """
        raise NotImplementedError


class _SolveWorkload(Workload):
    """128x128 maps; density, corner rule and request kind rotate per request.

    Density follows index % 2, the rule (index // 2) % 2 and the kind
    index % 3, so every 12 requests cover each combination once.  ``kinds``
    maps each kind to its subcommand and the flags that follow the map.
    """

    kinds: dict = {}

    def requests(self, seed: int, workdir: str, salt: str = ""):
        rng = stream(seed, self.name + salt)
        kinds = list(self.kinds.items())
        index = 0
        while True:
            density = SOLVE_DENSITIES[index % 2]
            rule = RULES[(index // 2) % 2]
            kind, (command, *flags) = kinds[index % 3]
            ref = reachable_map(rng, SOLVE_SIZE, density, rule)
            path, text = _write_map(workdir, f"r{index}.map", ref.rows)
            argv = [command, path, *flags, "--corner-cut", rule]
            yield Request(index, kind, argv, rule=rule, map_path=path, text=text, ref=ref)
            index += 1


class WaveSolve(_SolveWorkload):
    name = "wave-solve"
    kinds = {
        "solve-text": ("solve",),
        "solve-json": ("solve", "--json"),
        "solve-all-json": ("solve", "--all-paths", "--json"),
    }


class SearchSolve(_SolveWorkload):
    name = "search-solve"
    kinds = {
        "astar-text": ("solve", "--algo", "astar"),
        "astar-euclidean-json": ("solve", "--algo", "astar", "--heuristic", "euclidean", "--json"),
        "compare-json": ("compare", "--algos", "dijkstra,astar-chebyshev,astar-euclidean", "--json"),
    }


class TraceRender(Workload):
    """Per group: gen, then a full costs render with trace, then a marks render.

    Both renders read a 48x48 map of the benchmark's own, at gen's density,
    with S and D a fixed box apart.  Rendering gen's output instead would let
    a change to the generator move what the renders measure, and the random
    S-D distance it picks would make the render cost vary from seed to seed.
    """

    name = "trace-render"

    def requests(self, seed: int, workdir: str, salt: str = ""):
        rng = stream(seed, self.name + salt)
        index = 0
        while True:
            gen_seed = rng.next_u64() & 0x7FFFFFFF
            out = os.path.join(workdir, f"g{index}.map")
            yield Request(
                index, "gen",
                [
                    "gen", "--solvable", "--width", str(GEN_SIZE), "--height", str(GEN_SIZE),
                    "--density", str(GEN_DENSITY), "--seed", str(gen_seed), "--out", out,
                ],
                out_path=out, gen_seed=gen_seed,
            )
            rows = reachable_map(rng, GEN_SIZE, GEN_DENSITY, "allow", RENDER_BOXES).rows
            ref = reference(rows, "allow", full=True)
            path, text = _write_map(workdir, f"m{index}.map", rows)
            trace = os.path.join(workdir, f"t{index + 1}.json")
            yield Request(
                index + 1, "render-full-costs",
                ["render", path, "--full", "--style", "costs", "--trace", trace],
                map_path=path, trace_path=trace, text=text, ref=ref,
            )
            yield Request(index + 2, "render-marks", ["render", path], map_path=path, text=text, ref=ref)
            index += 3


WORKLOADS = {w.name: w for w in (WaveSolve(), SearchSolve(), TraceRender())}


def load_text(request: Request) -> str:
    """The map the request reads, or for ``gen`` the map it wrote."""
    if request.text is not None:
        return request.text
    with open(request.out_path, encoding="utf-8") as handle:
        return handle.read()


def fingerprint_part(request: Request) -> bytes:
    """Bytes that pin a request's input: its map text, or the gen output."""
    head = f"{request.kind}:{request.rule}:{request.gen_seed}\n".encode()
    return head + load_text(request).encode()


# --------------------------------------------------------------------------
# Checks


def _rows_of(text: str) -> list:
    if not text.endswith("\n"):
        raise CheckError("map text lacks its trailing newline")
    return text[:-1].split("\n")


def _need(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _check_chain(cells, ref: Reference, rule: str, exact: bool) -> None:
    """A king-move chain over passable cells from S to D of length L (>= L)."""
    rows = ref.rows
    _need(isinstance(cells, list) and len(cells) >= 2, "path has fewer than two cells")
    _need(tuple(cells[0]) == ref.coord(ref.source), f"path starts at {cells[0]}, not S")
    _need(tuple(cells[-1]) == ref.coord(ref.destination), f"path ends at {cells[-1]}, not D")
    length = len(cells) - 1
    if exact:
        _need(length == ref.length, f"path length {length}, reference {ref.length}")
    else:
        _need(length >= ref.length, f"path length {length} beats the optimum {ref.length}")
    for (r0, c0), (r1, c1) in zip(cells, cells[1:]):
        _need(max(abs(r1 - r0), abs(c1 - c0)) == 1, f"step {(r0, c0)}->{(r1, c1)} is no king move")
        _need(rows[r1][c1] in ".SD", f"path enters blocked cell {(r1, c1)}")
        if rule == "forbid" and r1 != r0 and c1 != c0:
            _need(
                rows[r1][c0] in ".SD" or rows[r0][c1] in ".SD",
                f"diagonal {(r0, c0)}->{(r1, c1)} cuts a forbidden corner",
            )


def _check_overlay(lines, ref: Reference, length: int) -> None:
    rows = ref.rows
    _need(len(lines) >= len(rows), "overlay is shorter than the map")
    overlay = lines[: len(rows)]
    stars = sum(line.count("*") for line in overlay)
    _need(stars == length - 1, f"overlay marks {stars} cells for a path of length {length}")
    _need(
        [line.replace("*", ".") for line in overlay] == list(rows),
        "overlay differs from the map beyond its path marks",
    )


_SUMMARY = re.compile(r"path length (\d+) \((\d+) paths?(, truncated)?\)")
_WAVE_TAIL = re.compile(r"iterations (\d+), cells costed (\d+)")


def _check_solve_text(out: str, ref: Reference) -> None:
    lines = out.split("\n")
    _need(lines[-1] == "", "output lacks its trailing newline")
    head = _SUMMARY.fullmatch(lines[0])
    _need(head is not None, f"unexpected first line {lines[0]!r}")
    length, count = int(head.group(1)), int(head.group(2))
    _need(length == ref.length, f"path length {length}, reference {ref.length}")
    _need(count == 1, f"first-path solve reports {count} paths")
    _check_overlay(lines[1:], ref, length)
    tail = _WAVE_TAIL.fullmatch(lines[-2])
    _need(tail is not None, f"unexpected last line {lines[-2]!r}")
    _need(int(tail.group(1)) == length, f"iterations {tail.group(1)} != path length {length}")
    costed = ref.within(length)
    _need(int(tail.group(2)) == costed, f"cells costed {tail.group(2)}, reference {costed}")


def _check_solve_json(out: str, ref: Reference, rule: str, all_paths: bool) -> None:
    data = json.loads(out)
    _need(data["reached"] is True, "destination reported unreached")
    _need(data["iterations"] == ref.length, f"iterations {data['iterations']} != {ref.length}")
    costed = ref.within(ref.length)
    _need(data["cells_costed"] == costed, f"cells costed {data['cells_costed']}, reference {costed}")
    paths = data["paths"]
    cells = [path["cells"] for path in paths["paths"]]
    _need(paths["count"] == len(cells), "path count disagrees with the path list")
    for path in paths["paths"]:
        _need(path["length"] == len(path["cells"]) - 1, "path length disagrees with its cells")
        _check_chain(path["cells"], ref, rule, exact=True)
    if all_paths:
        _need(1 <= len(cells) <= MAX_PATHS, f"{len(cells)} paths outside 1..{MAX_PATHS}")
        _need(len({json.dumps(c) for c in cells}) == len(cells), "all-paths result repeats a path")
        _need(not paths["truncated"] or len(cells) == MAX_PATHS, "truncated below the cap")
    else:
        _need(len(cells) == 1 and not paths["truncated"], "first-path solve returned a path set")


_ASTAR_TAIL = re.compile(r"expansions (\d+)")


def _check_astar_text(out: str, ref: Reference) -> None:
    lines = out.split("\n")
    _need(lines[-1] == "", "output lacks its trailing newline")
    head = re.fullmatch(r"path length (\d+)", lines[0])
    _need(head is not None, f"unexpected first line {lines[0]!r}")
    length = int(head.group(1))
    _need(length == ref.length, f"A*-Chebyshev length {length}, reference {ref.length}")
    _check_overlay(lines[1:], ref, length)
    tail = _ASTAR_TAIL.fullmatch(lines[-2])
    _need(tail is not None and int(tail.group(1)) > 0, f"unexpected last line {lines[-2]!r}")


def _check_search_json(out: str, ref: Reference, rule: str) -> None:
    data = json.loads(out)
    _need(data.get("algo") == "astar" and data.get("heuristic") == "euclidean", "wrong algo label")
    _need(data["expansions"] > 0, "no expansions")
    _need(data["path"] is not None, "no path")
    _need(data["path"]["length"] == len(data["path"]["cells"]) - 1, "length disagrees with cells")
    _check_chain(data["path"]["cells"], ref, rule, exact=False)


def _check_compare_json(out: str, ref: Reference) -> None:
    results = json.loads(out)["results"]
    algos = [record["algo"] for record in results]
    _need(algos == ["dijkstra", "astar-chebyshev", "astar-euclidean"], f"algos {algos}")
    for record in results:
        length = record["path_length"]
        if record["algo"] == "astar-euclidean":
            _need(length is not None and length >= ref.length, f"A*-Euclidean length {length}")
        else:
            _need(length == ref.length, f"{record['algo']} length {length}, reference {ref.length}")
        _need(record["expansions"] > 0, f"{record['algo']} made no expansions")


def _check_gen(text: str) -> None:
    rows = _rows_of(text)
    _need(len(rows) == GEN_SIZE and all(len(r) == GEN_SIZE for r in rows), "wrong map size")
    _need(rows[0] == rows[-1] == "#" * GEN_SIZE, "top or bottom border open")
    _need(all(r[0] == r[-1] == "#" for r in rows), "side border open")
    interior = "".join(r[1:-1] for r in rows[1:-1])
    _need(set(interior) <= set(".@SD"), "unknown symbol inside the border")
    _need(interior.count("S") == 1 and interior.count("D") == 1, "needs one S and one D")
    _need(reference(rows, "allow").length > 0, "the harness cannot reach D")


def _frames(out: str) -> list:
    _need(out.startswith("k=0\n"), "render output does not start at frame k=0")
    return out.split("\nk=")


def _check_render_full(out: str, ref: Reference, trace_path: str) -> None:
    frames = _frames(out)
    top = max(ref.dist)
    _need(len(frames) == top + 1, f"{len(frames)} frames for a field of depth {top}")
    last = frames[-1].split("\n")
    _need(last[0] == str(top) and last[-1] == "", "malformed last frame")
    width = len(str(top)) if top > 0 else 1
    expected = []
    for r, row in enumerate(ref.rows):
        cells = []
        for c, ch in enumerate(row):
            d = ref.dist[r * ref.width + c]
            if ch in "#@":
                cells.append(ch)
            elif d >= 0:
                cells.append(str(d))
            else:
                cells.append("D" if ch == "D" else ".")
        expected.append((" " if width > 1 else "").join(cell.rjust(width) for cell in cells))
    _need(last[1:-1] == expected, "last frame's costs differ from the reference field")
    with open(trace_path, encoding="utf-8") as handle:
        trace = json.load(handle)
    _need(len(trace["iterations"]) == top, "trace iteration count differs from the field depth")
    costed = sum(len(record["costed"]) for record in trace["iterations"])
    reached = sum(1 for d in ref.dist if d > 0)
    _need(costed == reached, f"trace costs {costed} cells, reference reaches {reached}")


def _check_render_marks(out: str, ref: Reference) -> None:
    frames = _frames(out)
    length = ref.length
    _need(len(frames) == length + 1, f"{len(frames)} frames for a path of length {length}")
    first = frames[0].split("\n")
    _need(first[1:-1] == list(ref.rows), "frame 0 is not the input map")
    last = frames[-1].split("\n")[1:-1]
    _need(len(last) == len(ref.rows), "last frame has the wrong height")
    marked = 0
    for r, (row, original) in enumerate(zip(last, ref.rows)):
        for c, (ch, was) in enumerate(zip(row, original)):
            if ch in "*N":
                _need(was == "." and 1 <= ref.dist[r * ref.width + c] <= length, "stray mark")
                marked += 1
            else:
                _need(ch == was, f"cell {(r, c)} changed to {ch!r}")
    expected = sum(1 for d in ref.dist if 1 <= d <= length) - 1
    _need(marked == expected, f"{marked} cells marked, reference {expected}")


def check(request: Request, code, out: str) -> None:
    """Raise CheckError unless the request's exit code and output are right."""
    _need(code == 0, f"exit code {code!r}")
    kind, ref = request.kind, request.ref
    if kind == "gen":
        _need(out == "", "gen with --out wrote to stdout")
        _check_gen(load_text(request))
    elif kind == "solve-text":
        _check_solve_text(out, ref)
    elif kind in ("solve-json", "solve-all-json"):
        _check_solve_json(out, ref, request.rule, all_paths=kind == "solve-all-json")
    elif kind == "astar-text":
        _check_astar_text(out, ref)
    elif kind == "astar-euclidean-json":
        _check_search_json(out, ref, request.rule)
    elif kind == "compare-json":
        _check_compare_json(out, ref)
    elif kind == "render-full-costs":
        _check_render_full(out, ref, request.trace_path)
    elif kind == "render-marks":
        _check_render_marks(out, ref)
    else:
        raise CheckError(f"no check for request kind {kind!r}")
