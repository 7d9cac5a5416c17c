"""Byte identity of CLI output on every fixture map under both corner rules.

``fixtures/golden/`` holds, per (fixture, rule, command), the exact stdout
and exit code of ``gridwave`` and, for the traced solve and render, the
``--trace`` JSON.  ``compare --json`` is stored with ``elapsed_us``
removed, since wall time is the one field that varies between runs.
``fixtures/golden/gen/`` holds the stdout of ``gridwave gen`` for each of
GEN_SPECS.  Any kernel change must leave all of these bytes alone.

Regenerate (only after an intended output change) from the repo root::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from conftest import FIXTURE_DIR, FIXTURE_NAMES
from gridwave.cli import main

GOLDEN_DIR = FIXTURE_DIR / "golden"
RULES = ("allow", "forbid")
TRACE = "{trace}"

#: Golden name -> argv after the map path; ``{trace}`` is a temp file.
COMMANDS = {
    "solve": ("solve",),
    "solve-json": ("solve", "--json"),
    "solve-all-paths-json": ("solve", "--all-paths", "--json"),
    "solve-trace": ("solve", "--trace", TRACE),
    "render-marks": ("render", "--style", "marks"),
    "render-full-costs": ("render", "--full", "--style", "costs", "--trace", TRACE),
    "render-costs": ("render", "--style", "costs"),
    "render-full-marks": ("render", "--full"),
    "compare-json": ("compare", "--json"),
    "solve-dijkstra": ("solve", "--algo", "dijkstra"),
    "solve-dijkstra-json": ("solve", "--algo", "dijkstra", "--json"),
    "solve-astar": ("solve", "--algo", "astar"),
    "solve-astar-euclidean-json": ("solve", "--algo", "astar", "--heuristic", "euclidean", "--json"),
}

#: Golden name under ``gen/`` -> argv after ``gen``: odd, square and
#: non-square sizes, with and without --solvable; 13x11-d55-s2 has no path.
GEN_SPECS = {
    "4x3-d20-s0": ("--width", "4", "--height", "3"),
    "10x8-d20-s3": ("--width", "10", "--height", "8", "--density", "0.2", "--seed", "3"),
    "17x5-d35-s7-solvable": (
        "--width", "17", "--height", "5", "--density", "0.35", "--seed", "7", "--solvable",
    ),
    "5x23-d10-s11-solvable": (
        "--width", "5", "--height", "23", "--density", "0.1", "--seed", "11", "--solvable",
    ),
    "31x31-d30-s2": ("--width", "31", "--height", "31", "--density", "0.3", "--seed", "2"),
    "64x64-d25-s1-solvable": (
        "--width", "64", "--height", "64", "--density", "0.25", "--seed", "1", "--solvable",
    ),
    "9x40-d45-s4-solvable-forbid": (
        "--width", "9", "--height", "40", "--density", "0.45", "--seed", "4", "--solvable",
        "--corner-cut", "forbid",
    ),
    "40x9-d0-s9": ("--width", "40", "--height", "9", "--density", "0.0", "--seed", "9"),
    "13x11-d55-s2": ("--width", "13", "--height", "11", "--density", "0.55", "--seed", "2"),
}


def _strip_elapsed(text: str) -> str:
    data = json.loads(text)
    for record in data["results"]:
        del record["elapsed_us"]
    return json.dumps(data, separators=(",", ":")) + "\n"


def run_case(name: str, rule: str, command: str) -> dict:
    """Exit code, stdout and (for a traced command) trace JSON of one run."""
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = str(Path(tmp) / "trace.json")
        verb, *flags = COMMANDS[command]
        argv = [verb, str(FIXTURE_DIR / f"{name}.map"), "--corner-cut", rule]
        argv += [trace_path if flag == TRACE else flag for flag in flags]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        result = {"exit": code, "stdout": out.getvalue()}
        if command == "compare-json":
            result["stdout"] = _strip_elapsed(result["stdout"])
        if TRACE in flags:
            result["trace"] = Path(trace_path).read_text(encoding="utf-8")
    return result


def run_gen(label: str) -> tuple[int, str]:
    """Exit code and stdout of ``gridwave gen`` for one of GEN_SPECS."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["gen", *GEN_SPECS[label]])
    return code, out.getvalue()


def _stem(name: str, rule: str, command: str) -> str:
    return f"{name}.{rule}.{command}"


CASES = [
    (name, rule, command) for name in FIXTURE_NAMES for rule in RULES for command in COMMANDS
]


@pytest.fixture(scope="module")
def exit_codes() -> dict:
    return json.loads((GOLDEN_DIR / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name,rule,command", CASES)
def test_cli_output_is_byte_identical(name, rule, command, exit_codes):
    stem = _stem(name, rule, command)
    got = run_case(name, rule, command)
    assert got["exit"] == exit_codes[stem]
    assert got["stdout"] == (GOLDEN_DIR / f"{stem}.out").read_text(encoding="utf-8")
    if "trace" in got:
        assert got["trace"] == (GOLDEN_DIR / f"{stem}.trace.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("label", GEN_SPECS)
def test_gen_output_is_byte_identical(label):
    code, out = run_gen(label)
    assert code == 0
    assert out == (GOLDEN_DIR / "gen" / f"{label}.out").read_text(encoding="utf-8")


def regenerate() -> None:
    (GOLDEN_DIR / "gen").mkdir(parents=True, exist_ok=True)
    for label in GEN_SPECS:
        (GOLDEN_DIR / "gen" / f"{label}.out").write_text(run_gen(label)[1], encoding="utf-8")
    codes = {}
    for case in CASES:
        stem = _stem(*case)
        got = run_case(*case)
        codes[stem] = got["exit"]
        (GOLDEN_DIR / f"{stem}.out").write_text(got["stdout"], encoding="utf-8")
        if "trace" in got:
            (GOLDEN_DIR / f"{stem}.trace.json").write_text(got["trace"], encoding="utf-8")
    (GOLDEN_DIR / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    regenerate()
