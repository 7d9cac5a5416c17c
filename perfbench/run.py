"""The gridwave benchmark: one workload, end to end or traced layer by layer.

    python3 perfbench/run.py --workload wave-solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout; the program is imported from ``src/``.  The
end-to-end run (``--trace 0``) is a closed loop with one client in this one
process: each request is ``gridwave.cli.main(argv)`` from a map file to the
stdout bytes, every request on a map no earlier request used.  Inputs are made
and outputs checked between batches, outside the timed intervals.  The traced
run (``--trace 1``) takes the first requests of the same sequence, runs each
once untraced and once traced with a replay of its public calls, and reports
the per-layer metrics (see ``tracing.py``).

Every time is scaled by the host's speed at that moment (see ``HostSpeed``),
so that the seconds-long slowdowns of a shared host do not swamp a change to
the program; the unscaled times are printed and recorded next to them.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller record, with provenance, the input
fingerprint, failures and (traced) every span, is written under
``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import islice
from pathlib import Path
from time import perf_counter_ns

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUTPUT = ROOT / ".bench_build" / "perfbench"

#: A run's p90 needs at least ten samples beyond it.
MIN_REQUESTS = 100
#: Requests in a traced run; a multiple of 12 and 3, so every combination of
#: density, corner rule and request kind appears equally often.
TRACE_REQUESTS = 36
#: Inputs are made and outputs checked between batches of this many requests.
BATCH = 12
#: Fresh interpreters whose set-up time is measured; setup_s is their median.
SETUP_RUNS = 5
#: The timed loop stops here even below MIN_REQUESTS, so a run on a very slow
#: host still ends within its time limit.
LOOP_LIMIT_S = 120

E2E_METRICS = (
    ("setup_s", "s"),
    ("req_p50_ms", "ms"),
    ("req_p90_ms", "ms"),
    ("throughput_rps", "req/s"),
    ("peak_rss_mb", "MB"),
)


def call(main, argv: list) -> tuple:
    """One request; returns (exit code or exception, stdout, stderr, ns)."""
    out = io.BytesIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8", newline="\n")
    stderr = io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        started = perf_counter_ns()
        try:
            code = main(argv)
            stdout.flush()
        except (Exception, SystemExit) as exc:  # the run records it and goes on
            code = exc
        elapsed = perf_counter_ns() - started
    text = out.getvalue().decode("utf-8", errors="replace")
    stdout.detach()
    return code, text, stderr.getvalue(), elapsed


class Outcomes:
    """Checks finished requests, counts failures, fingerprints the inputs.

    ``fingerprint`` covers the first ``fingerprint_requests`` requests, which
    every run of a seed makes, so it is comparable between runs;
    ``fingerprint_all`` covers every request this run checked.
    """

    def __init__(self, fingerprint_requests: int):
        self.attempted = 0
        self.failures: list = []
        self.fingerprint = hashlib.sha256()
        self.fingerprint_all = hashlib.sha256()
        self.fingerprinted = 0
        self.fingerprint_requests = fingerprint_requests

    def check(self, done: list) -> None:
        for request, code, out, err in done:
            self.attempted += 1
            error = code if isinstance(code, BaseException) else None
            if error is None:
                try:
                    workloads.check(request, code, out)
                except Exception as exc:  # any failure is counted, never fatal
                    error = exc
            if error is not None:
                self.failures.append(
                    {"argv": request.argv, "error": f"{type(error).__name__}: {error}", "stderr": err[-500:]}
                )
            try:
                part = workloads.fingerprint_part(request)
            except OSError as exc:  # gen failed to write its map
                part = type(exc).__name__.encode()
            self.fingerprint_all.update(part)
            # A traced run checks each request twice; fingerprint it once.
            if self.fingerprinted < self.fingerprint_requests and request.index == self.fingerprinted:
                self.fingerprint.update(part)
                self.fingerprinted += 1

    @property
    def failed(self) -> int:
        return len(self.failures)


def _remove_files(requests) -> None:
    for request in requests:
        for path in (request.map_path, request.out_path, request.trace_path):
            if path is not None and os.path.exists(path):
                os.remove(path)


class HostSpeed:
    """How fast the host runs right now, from a fixed kernel of the benchmark's own.

    On a shared host the same work can take up to 2x longer for seconds at
    a time while other tenants load the cores.  The kernel (the benchmark's BFS
    over a fixed 48x48 map, twice) is timed next to every request, and each
    time is scaled to a host on which the kernel takes ``REFERENCE_NS``.
    The scale changes no count, and the unscaled times are kept as well.
    """

    REFERENCE_NS = 2_000_000

    def __init__(self):
        rng = workloads.stream(0, "host-speed")
        self.rows = workloads.reachable_map(rng, 48, 0.2, "allow", ((1, 4), (40, 44))).rows

    def sample(self) -> int:
        started = perf_counter_ns()
        for _ in range(2):
            workloads.reference(self.rows, "allow", full=True)
        return perf_counter_ns() - started

    def scale(self, before: int, after: int) -> float:
        """Factor for work timed between two samples."""
        return 2 * self.REFERENCE_NS / (before + after)


def measure_setup(workload, seed: int, workdir: str, speed: HostSpeed) -> tuple:
    """Median set-up time over fresh interpreters: (scaled, unscaled) seconds."""
    warm = next(workload.requests(seed, workdir, salt=":warm-up"))
    scaled, raw = [], []
    for _ in range(SETUP_RUNS):
        before = speed.sample()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("setup_probe.py")), str(SRC), *warm.argv],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        after = speed.sample()
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({done.returncode}): {done.stderr.strip()[-500:]}")
        raw.append(float(done.stdout.split()[-1]))
        scaled.append(raw[-1] * speed.scale(before, after))
    return statistics.median(scaled), statistics.median(raw)


def import_main():
    sys.path.insert(0, str(SRC))
    from gridwave.cli import main

    return main


def warm_up(main, workload, seed: int, workdir: str) -> None:
    """One untimed request on a map of its own, so lazy set-up is done."""
    call(main, next(workload.requests(seed, workdir, salt=":warm-up")).argv)


def _latency_metrics(setup_s: float, latencies: list) -> dict:
    return {
        "setup_s": setup_s,
        "req_p50_ms": statistics.median(latencies) / 1e6,
        "req_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] / 1e6,
        "throughput_rps": len(latencies) / (sum(latencies) / 1e9),
    }


def run_e2e(workload, seed: int, seconds: float, workdir: str) -> dict:
    speed = HostSpeed()
    setup_s, raw_setup_s = measure_setup(workload, seed, workdir, speed)
    main = import_main()
    warm_up(main, workload, seed, workdir)

    outcomes = Outcomes(TRACE_REQUESTS)
    sequence = workload.requests(seed, workdir)
    latencies, raw = [], []
    wall_ns = 0
    budget_ns, limit_ns = seconds * 1e9, LOOP_LIMIT_S * 1e9
    finished = False
    while not finished:
        batch = list(islice(sequence, BATCH))
        done = []
        started = perf_counter_ns()
        before = speed.sample()
        for request in batch:
            code, out, err, ns = call(main, request.argv)
            after = speed.sample()
            raw.append(ns)
            latencies.append(ns * speed.scale(before, after))
            before = after
            done.append((request, code, out, err))
            elapsed = wall_ns + perf_counter_ns() - started
            if (elapsed >= budget_ns and len(latencies) >= MIN_REQUESTS) or elapsed >= limit_ns:
                finished = True
                break
        wall_ns += perf_counter_ns() - started
        outcomes.check(done)
        _remove_files(batch)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_mb = peak_kb / (1024 * 1024) if sys.platform == "darwin" else peak_kb / 1024

    metrics = dict(_latency_metrics(setup_s, latencies), peak_rss_mb=peak_mb)
    return {
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in E2E_METRICS},
        "unscaled": _latency_metrics(raw_setup_s, raw),
        "outcomes": outcomes,
        "requests": len(latencies),
        "samples": len(latencies),
        "setup_runs": SETUP_RUNS,
        "loop_seconds": wall_ns / 1e9,
    }


def run_traced(workload, seed: int, workdir: str, n_requests: int = TRACE_REQUESTS,
               table: dict = tracing.LAYERS) -> dict:
    speed = HostSpeed()
    main = import_main()
    fns, absent = tracing.resolve(table)
    warm_up(main, workload, seed, workdir)
    requests = list(islice(workload.requests(seed, workdir), n_requests))
    outcomes = Outcomes(n_requests)

    untraced_ms, done = [], []
    before = speed.sample()
    for request in requests:
        code, out, err, ns = call(main, request.argv)
        after = speed.sample()
        untraced_ms.append(ns * speed.scale(before, after) / 1e6)
        before = after
        done.append((request, code, out, err))
    outcomes.check(done)

    recorder, own, probes, errors, done = tracing.SpanRecorder(), tracing.Tally(), tracing.Tally(), [], []
    scales = []
    for request, base_ms in zip(requests, untraced_ms):
        tally = tracing.Tally()
        before = speed.sample()
        recorder.begin("request", request.index)
        recorder.begin("cli.main", request.index)
        code, out, err, _ = call(main, request.argv)
        cli_ns = recorder.end()
        done.append((request, code, out, err))
        ctx = {
            "rule": request.rule,
            "gen": (workloads.GEN_SIZE, workloads.GEN_SIZE, workloads.GEN_DENSITY, request.gen_seed),
        }
        if request.kind != "gen":
            ctx["text"] = workloads.load_text(request)
        plan = tracing.PLANS[request.kind]
        top_level_ns = tracing.replay(plan, ctx, fns, recorder, tally, request.index, errors)
        total_ns = recorder.end()
        scales.append(speed.scale(before, speed.sample()))
        tally.sample("cli.overhead", (cli_ns - top_level_ns) / 1e6)
        own.merge(tally, scales[-1])
        own.sample("trace.overhead", total_ns * scales[-1] / 1e6 - base_ms)
    outcomes.check(done)
    _remove_files(requests)

    for probe_id, ctx in tracing.probe_requests(seed):
        tally = tracing.Tally()
        before = speed.sample()
        recorder.begin("probe", probe_id)
        tracing.replay(tracing.PROBE_PLAN, ctx, fns, recorder, tally, probe_id, errors)
        recorder.end()
        probes.merge(tally, speed.scale(before, speed.sample()))
    values, probed = tracing.layer_metrics(own, probes)
    units = {m.name: m.unit for m in tracing.LAYER_METRICS}
    return {
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
        "outcomes": outcomes,
        "requests": len(requests),
        "samples": len(requests),
        "absent_layers": absent,
        "probed_metrics": probed,
        "replay_errors": errors[:50],
        "layer_map": {m.name: m.moves for m in tracing.LAYER_METRICS},
        "host_scale_per_request": scales,
        "spans": recorder.records(),
        "counters": dict(own.counts, **own.peaks),
    }


def git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, result: dict, outcomes: Outcomes) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "requests": result["requests"],
        "samples": result["samples"],
        "inputs_sha256": outcomes.fingerprint.hexdigest(),
        "inputs_fingerprinted": outcomes.fingerprinted,
        "inputs_all_sha256": outcomes.fingerprint_all.hexdigest(),
    }


def run_one(args) -> int:
    workload = workloads.WORKLOADS[args.workload]
    OUTPUT.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUTPUT)
    try:
        if args.trace:
            result = run_traced(workload, args.seed, workdir)
        else:
            result = run_e2e(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = result.pop("outcomes")
    record = {
        "provenance": provenance(args, result, outcomes),
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "failures": outcomes.failures[:20],
        **result,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUTPUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    metrics = result["metrics"]
    ratio = outcomes.failed / outcomes.attempted if outcomes.attempted else 1.0
    parts = [f"{name} {m['value']:.6g} {m['unit']}" if m["value"] is not None else f"{name} absent"
             for name, m in metrics.items()]
    print(f"{args.workload}: " + " | ".join(parts))
    if "unscaled" in result:
        print(f"{args.workload}: unscaled by host speed: "
              + " | ".join(f"{name} {value:.6g}" for name, value in result["unscaled"].items()))
    print(f"{args.workload}: fail_ratio {ratio:.6g} failed/attempted "
          f"({outcomes.failed}/{outcomes.attempted}); requests {result['requests']}, "
          f"samples {result['samples']}")
    for failure in outcomes.failures[:5]:
        print(f"{args.workload}: FAILED {' '.join(failure['argv'])}: {failure['error']}")
    if args.trace:
        print(f"{args.workload}: metrics taken from probe maps: {', '.join(result['probed_metrics']) or 'none'}")
        if result["absent_layers"]:
            print(f"{args.workload}: absent layers: {json.dumps(result['absent_layers'])}")
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, then one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not lines:
            print(f"{name}: run failed with exit code {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["workloads"][name] = result["metrics"]
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gridwave" / "cli.py").is_file():
        print(f"perfbench: no gridwave sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
