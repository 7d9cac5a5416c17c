"""Command-line behavior: flows, exit codes, machine output."""

import json
import subprocess
import sys

import jsonschema
import pytest

from conftest import FIXTURE_DIR, fixture_text
from gridwave import cli
from gridwave.cli import main
from gridwave.serialize import SEARCH_RESULT_SCHEMA, TRACE_SCHEMA

ROOM = str(FIXTURE_DIR / "room.map")
DETOUR = str(FIXTURE_DIR / "detour.map")
FORKED = str(FIXTURE_DIR / "forked.map")
SEALED = str(FIXTURE_DIR / "sealed.map")
TRAP = str(FIXTURE_DIR / "euclid_trap.map")


def run_cli(*argv, capsys):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_wavefront_solves_detour(self, capsys):
        code, out, err = run_cli("solve", DETOUR, capsys=capsys)
        assert code == 0 and err == ""
        assert "path length 4 (1 path)" in out
        assert "iterations 4" in out

    def test_json_output_for_wavefront(self, capsys):
        code, out, _ = run_cli("solve", DETOUR, "--json", capsys=capsys)
        assert code == 0
        data = json.loads(out)
        assert data["algo"] == "wavefront"
        assert data["reached"] is True
        assert data["iterations"] == 4
        assert data["paths"]["count"] == 1
        assert data["paths"]["paths"][0]["length"] == 4

    def test_all_paths_enumeration(self, capsys):
        code, out, _ = run_cli("solve", FORKED, "--all-paths", "--json", capsys=capsys)
        assert code == 0
        assert json.loads(out)["paths"]["count"] == 2

    def test_no_path_exits_one_with_summary(self, capsys):
        code, out, _ = run_cli("solve", SEALED, capsys=capsys)
        assert code == 1
        assert "no path" in out
        assert "3 cells" in out

    def test_no_path_json_is_valid_json(self, capsys):
        code, out, _ = run_cli("solve", SEALED, "--json", capsys=capsys)
        assert code == 1
        data = json.loads(out)
        assert data["reached"] is False and data["paths"]["count"] == 0

    def test_search_algos_emit_search_results(self, capsys):
        code, out, _ = run_cli(
            "solve", TRAP, "--algo", "astar", "--heuristic", "euclidean", "--json",
            capsys=capsys,
        )
        assert code == 0
        data = json.loads(out)
        jsonschema.validate(data, SEARCH_RESULT_SCHEMA)
        assert data["algo"] == "astar"
        assert data["heuristic"] == "euclidean"
        assert data["path"]["length"] == 5

    def test_dijkstra_human_output(self, capsys):
        code, out, _ = run_cli("solve", DETOUR, "--algo", "dijkstra", capsys=capsys)
        assert code == 0
        assert "path length 4" in out and "expansions" in out

    def test_search_no_path_json(self, capsys):
        code, out, _ = run_cli("solve", SEALED, "--algo", "dijkstra", "--json", capsys=capsys)
        assert code == 1
        data = json.loads(out)
        assert data["path"] is None and data["expansions"] == 3

    def test_trace_file_is_schema_valid(self, tmp_path, capsys):
        trace_file = tmp_path / "trace.json"
        code, _, _ = run_cli("solve", DETOUR, "--trace", str(trace_file), capsys=capsys)
        assert code == 0
        data = json.loads(trace_file.read_text())
        jsonschema.validate(data, TRACE_SCHEMA)
        assert len(data["iterations"]) == 4

    def test_out_redirects_stdout(self, tmp_path, capsys):
        out_file = tmp_path / "answer.txt"
        code, out, _ = run_cli("solve", DETOUR, "--out", str(out_file), capsys=capsys)
        assert code == 0 and out == ""
        assert "path length 4" in out_file.read_text()

    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", DETOUR, "--algo", "dijkstra", "--all-paths"),
            ("solve", DETOUR, "--algo", "dijkstra", "--trace", "x.json"),
            ("solve", DETOUR, "--algo", "astar", "--max-paths", "3"),
            ("solve", DETOUR, "--algo", "wavefront", "--heuristic", "euclidean"),
        ],
    )
    def test_flag_algo_mismatches_exit_two(self, argv, capsys):
        code, _, err = run_cli(*argv, capsys=capsys)
        assert code == 2
        assert "only applies" in err

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run_cli("solve", "nowhere.map", capsys=capsys)
        assert code == 2 and err != ""

    def test_malformed_map_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.map"
        bad.write_text("###\n#?#\n###\n")
        code, _, err = run_cli("solve", str(bad), capsys=capsys)
        assert code == 2 and "unknown symbol" in err

    @pytest.mark.parametrize(
        "text,line",
        [
            ("###\n#S##\n###\n", "gridwave: error: row 1 has length 4, expected 3\n"),
            ("###\n#X#\n###\n", "gridwave: error: unknown symbol 'X' at row 1, col 1\n"),
            ("###\n#.#\n###\n", "gridwave: error: map has no source cell\n"),
            ("####\n#SS#\n####\n", "gridwave: error: second source at row 1, col 2\n"),
            ("#####\n#SDD#\n#####\n", "gridwave: error: second destination at row 1, col 3\n"),
            ("", "gridwave: error: map text is empty\n"),
        ],
        ids=["ragged", "unknown-symbol", "no-source", "second-source", "second-destination", "empty"],
    )
    def test_malformed_map_error_line_is_pinned(self, text, line, tmp_path, capsys):
        bad = tmp_path / "bad.map"
        bad.write_bytes(text.encode())
        assert run_cli("solve", str(bad), capsys=capsys) == (2, "", line)

    def test_destination_less_map_exits_two(self, tmp_path, capsys):
        plain = tmp_path / "plain.map"
        plain.write_text("###\n#S#\n###\n")
        code, _, err = run_cli("solve", str(plain), capsys=capsys)
        assert code == 2 and "destination" in err

    def test_unknown_flag_exits_two(self, capsys):
        assert run_cli("solve", DETOUR, "--warp", capsys=capsys)[0] == 2


class TestCompare:
    def test_three_explicit_algos(self, capsys):
        code, out, _ = run_cli(
            "compare", DETOUR, "--algos", "wavefront,dijkstra,astar", "--json",
            capsys=capsys,
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert [r["algo"] for r in results] == ["wavefront", "dijkstra", "astar-chebyshev"]
        assert {r["path_length"] for r in results} == {4}
        assert all("elapsed_us" in r for r in results)

    def test_default_runs_four_records(self, capsys):
        code, out, _ = run_cli("compare", ROOM, "--json", capsys=capsys)
        assert code == 0
        assert len(json.loads(out)["results"]) == 4

    def test_human_table(self, capsys):
        code, out, _ = run_cli("compare", ROOM, capsys=capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split()[:2] == ["algo", "length"]
        assert len(lines) == 5

    def test_unreachable_map_reports_and_exits_one(self, capsys):
        code, out, _ = run_cli("compare", SEALED, "--algos", "wavefront", "--json", capsys=capsys)
        assert code == 1
        record = json.loads(out)["results"][0]
        assert record["path_length"] is None

    def test_unknown_algo_exits_two(self, capsys):
        code, _, err = run_cli("compare", ROOM, "--algos", "quantum", capsys=capsys)
        assert code == 2 and "unknown algorithm" in err

    def test_destination_less_map_exits_two(self, tmp_path, capsys):
        plain = tmp_path / "plain.map"
        plain.write_text("###\n#S#\n###\n")
        assert run_cli("compare", str(plain), capsys=capsys)[0] == 2


class TestGen:
    def test_fixed_seed_is_reproducible(self, capsys):
        first = run_cli("gen", "--width", "10", "--height", "8", "--density", "0.2",
                        "--seed", "3", capsys=capsys)
        second = run_cli("gen", "--width", "10", "--height", "8", "--density", "0.2",
                         "--seed", "3", capsys=capsys)
        assert first[0] == 0 and first == second
        assert first[1].count("\n") == 8

    def test_generated_map_parses_and_solves(self, tmp_path, capsys):
        code, out, _ = run_cli("gen", "--width", "12", "--height", "9", "--seed", "5",
                               "--solvable", capsys=capsys)
        assert code == 0
        map_file = tmp_path / "generated.map"
        map_file.write_text(out)
        assert run_cli("solve", str(map_file), capsys=capsys)[0] == 0

    def test_below_minimum_exits_two(self, capsys):
        code, _, err = run_cli("gen", "--width", "2", "--height", "2", capsys=capsys)
        assert code == 2 and "at least 3x3" in err

    def test_unsatisfiable_exits_one(self, capsys):
        code, _, err = run_cli("gen", "--width", "5", "--height", "5", "--density", "1.0",
                               "--solvable", capsys=capsys)
        assert code == 1 and "no acceptable" in err


class TestRender:
    def test_marks_frames_on_stdout(self, capsys):
        code, out, _ = run_cli("render", DETOUR, capsys=capsys)
        assert code == 0
        assert out.startswith("k=0\n#######\n#S.@.D#\n")
        assert "k=4" in out

    def test_costs_style_final_frame(self, capsys):
        code, out, _ = run_cli("render", ROOM, "--style", "costs", "--full", capsys=capsys)
        assert code == 0
        assert "#012#" in out and "#222#" in out

    def test_trace_sidecar(self, tmp_path, capsys):
        trace_file = tmp_path / "t.json"
        code, _, _ = run_cli("render", DETOUR, "--trace", str(trace_file), capsys=capsys)
        assert code == 0
        jsonschema.validate(json.loads(trace_file.read_text()), TRACE_SCHEMA)

    def test_unreachable_destination_renders_but_exits_one(self, capsys):
        code, out, _ = run_cli("render", SEALED, capsys=capsys)
        assert code == 1
        assert "k=2" in out

    def test_bad_style_exits_two(self, capsys):
        assert run_cli("render", ROOM, "--style", "neon", capsys=capsys)[0] == 2


class TestRobustness:
    def test_long_corridor_all_paths_exits_zero_with_json(self, tmp_path, capsys):
        # A 3x1202 map whose interior is one 1,200-cell row, S to D end to end:
        # the descent takes 1,199 steps, past any recursion limit.
        corridor = tmp_path / "corridor.map"
        wall = "#" * 1202
        corridor.write_text(f"{wall}\n#S{'.' * 1198}D#\n{wall}\n")
        code, out, err = run_cli("solve", str(corridor), "--all-paths", "--json", capsys=capsys)
        assert code == 0 and err == ""
        paths = json.loads(out)["paths"]
        assert paths["count"] == 1
        assert paths["paths"][0]["length"] == 1199

    @pytest.mark.parametrize("error", [RuntimeError, TypeError])
    def test_unexpected_exception_exits_three_with_one_line(self, error, monkeypatch, capsys):
        def crash(args):
            raise error("boom\nsecond line")

        monkeypatch.setattr(cli, "_cmd_solve", crash)
        code, out, err = run_cli("solve", DETOUR, capsys=capsys)
        assert code == cli.EXIT_INTERNAL_ERROR == 3
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("gridwave: internal error:")
        assert "boom" in err


class TestEntryPoints:
    def test_module_invocation(self):
        completed = subprocess.run(
            [sys.executable, "-m", "gridwave", "solve", DETOUR, "--json"],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0
        assert json.loads(completed.stdout)["reached"] is True

    def test_no_command_exits_two(self, capsys):
        assert run_cli(capsys=capsys)[0] == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli("--help", capsys=capsys)
        assert code == 0
        assert "solve" in out and "render" in out
