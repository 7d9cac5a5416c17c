"""Self-checks of the benchmark itself.

    python3 -m pytest -q perfbench/test_selfcheck.py

Traced runs with one seed must repeat their counters and input fingerprints
exactly, the checks must reject a wrong answer, a layer whose function is
gone must be reported absent without stopping the run, and BENCHMARK.json
must list exactly the metrics and workloads the code reports.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COUNTERS = (
    "wavefront.iterations",
    "wavefront.cells_costed",
    "wavefront.peak_wave_width",
    "baselines.dijkstra_expansions",
    "baselines.astar_chebyshev_expansions",
    "baselines.astar_euclidean_expansions",
    "backtrack.paths_enumerated",
    "render.bytes_out",
    "serialize.bytes_out",
)


def traced(name: str, seed: int, n_requests: int, table: dict = tracing.LAYERS) -> dict:
    run.OUTPUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUTPUT) as workdir:
        return run.run_traced(workloads.WORKLOADS[name], seed, workdir, n_requests, table)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counters_and_fingerprints_repeat(name):
    first, second = traced(name, 7, 6), traced(name, 7, 6)
    for result in (first, second):
        assert result["outcomes"].failed == 0, result["outcomes"].failures
        assert result["absent_layers"] == {} and result["replay_errors"] == []
    counts = [{key: r["metrics"][key]["value"] for key in COUNTERS} for r in (first, second)]
    assert None not in counts[0].values()
    assert counts[0] == counts[1]
    assert first["counters"] == second["counters"]
    assert first["outcomes"].fingerprint.hexdigest() == second["outcomes"].fingerprint.hexdigest()
    assert first["outcomes"].fingerprinted == 6


def test_seeds_and_requests_get_distinct_maps(tmp_path):
    texts = []
    for seed in (7, 8):
        sequence = workloads.WORKLOADS["wave-solve"].requests(seed, str(tmp_path), salt=str(seed))
        texts += [next(sequence).text for _ in range(3)]
    assert len(set(texts)) == len(texts)


def test_checks_reject_wrong_answers(tmp_path):
    main = run.import_main()
    request = next(workloads.WORKLOADS["wave-solve"].requests(7, str(tmp_path)))
    assert request.kind == "solve-text"
    code, out, _, _ = run.call(main, request.argv)
    workloads.check(request, code, out)
    length = request.ref.length
    wrong = (
        out.replace(f"path length {length} ", f"path length {length + 1} ", 1),
        out.replace("cells costed ", "cells costed 1", 1),
        out.replace("*", ".", 1),
    )
    for output in wrong:
        with pytest.raises(workloads.CheckError):
            workloads.check(request, code, output)
    with pytest.raises(workloads.CheckError):
        workloads.check(request, 1, out)


def test_exceptions_count_as_failures_and_the_run_goes_on():
    outcomes = run.Outcomes(1)
    request = workloads.Request(0, "solve-text", ["solve"], text="")
    outcomes.check([(request, SystemExit(2), "", ""), (request, RecursionError("deep"), "", "")])
    assert outcomes.attempted == 2 and outcomes.failed == 2
    assert [f["error"].split(":")[0] for f in outcomes.failures] == ["SystemExit", "RecursionError"]


def test_absent_layer_is_reported_and_the_run_goes_on():
    table = dict(tracing.LAYERS)
    flood = table["wavefront.flood"]
    table["wavefront.flood"] = tracing.Layer(("gridwave.wavefront:no_such_flood",), flood.call, flood.count)
    result = traced("wave-solve", 7, 3, table)
    assert "wavefront.flood" in result["absent_layers"]
    assert result["metrics"]["wavefront.flood_ms"]["value"] is None
    assert result["metrics"]["grid.parse_ms"]["value"] is not None
    assert result["outcomes"].failed == 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in tracing.LAYER_METRICS
    ]
