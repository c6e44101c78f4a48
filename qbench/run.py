"""qnearest benchmark: closed-loop search workloads, checked end to end.

One single-threaded caller sends each ``SearchRequest`` to
``qnearest.cli.run_search`` only after the previous search has returned and
been checked (see ``checks.py``). BLAS runs on one thread.

    python3 qbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 qbench/run.py --workload all [--seed N] [--seconds S]

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics from a traced pass (see
``spans.py``). The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload all``
runs each workload of ``BENCHMARK.json`` in its own process and prints a
table. The exit code is nonzero when any search failed. Timing starts after
``WARMUP_SECONDS`` of checked searches. Each run also writes its host, workload
descriptors and metrics (and, traced, its spans) under ``qbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
BENCHMARK = ROOT / "BENCHMARK.json"

SETUP_PROBES = 9  # set-ups per run; setup_s is their median
RESAMPLE_EVERY = 4  # re-run sampling with the same seed on every 4th search
PEAK_SHARE = 0.1  # share of --seconds spent on the tracemalloc pass, traced runs
PEAK_MIN_SEARCHES = 3  # at least one of each full-crosscheck shape
PEAK_MAX_SEARCHES = 200
CHUNK_SECONDS = 1.0  # untraced stretch before the same requests run traced
WARMUP_SECONDS = 2.0  # checked but untimed searches before timing starts
MAX_LOGGED_PROBLEMS = 20
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap() -> Path:
    """Pin BLAS to one thread and import qnearest from this checkout's ``src``."""
    package = ROOT / "src" / "qnearest"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no qnearest sources at {package}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import qnearest

    if Path(qnearest.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported qnearest from {qnearest.__file__}, not {package}")
    return package


def load_spec() -> dict:
    return json.loads(BENCHMARK.read_text())


def tail_latency(latencies) -> tuple[float, float]:
    """p90 by nearest rank, or, with fewer than 100 samples, the highest
    percentile that still has ten samples beyond it. Returns (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n >= 100:
        return ordered[math.ceil(0.9 * n) - 1], 90.0
    if n > 10:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return ordered[-1], 100.0


def measure_setup(name: str, seed: int) -> list[float]:
    """Seconds from starting a process to the end of its warm-up search."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        times.append(elapsed)
    return times


class Pass:
    """Outcome of one closed-loop pass over a request sequence."""

    def __init__(self) -> None:
        self.requests: list = []
        # seconds, successful calls only; compact, since the process's peak
        # resident memory is a metric
        self.latencies = array("d")
        self.walls_ns: dict[int, int] = {}  # by search index, traced passes only
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.max_err = 0.0
        self.agreed = 0
        self.shots_requested = 0
        self.shots_accepted = 0
        self.support: list[float] = []

    def fail(self, where: str, problems: list[str]) -> None:
        self.failed += 1
        if len(self.problems) < MAX_LOGGED_PROBLEMS:
            self.problems.append(f"{where}: {'; '.join(problems)}")


def drive(requests, seconds: float | None = None, tracer=None, probe=None,
          keep: bool = False, out: Pass | None = None) -> Pass:
    """Closed loop: each search is sent after the previous one returned and
    was checked. Stops after ``seconds`` or at the end of ``requests``;
    ``keep`` keeps the requests sent, for a second pass over them. Results
    are added to ``out`` when given."""
    import numpy
    import qnearest.cli as cli
    import checks

    out = Pass() if out is None else out
    begin = time.perf_counter()
    for i, request in enumerate(requests, out.attempted):
        if seconds is not None and time.perf_counter() - begin >= seconds:
            break
        if keep:
            out.requests.append(request)
        out.attempted += 1
        if tracer is not None:
            tracer.search, tracer.phase, tracer.last_state = i, "search", None
        if probe is not None:
            probe.peaks.clear()
        start = time.perf_counter_ns()
        try:
            response = cli.run_search(request)
        except Exception as exc:  # a search that raises is a failed search
            out.fail(f"search {i} {request}", [f"{type(exc).__name__}: {exc}"])
            continue
        wall = time.perf_counter_ns() - start
        out.latencies.append(wall * 1e-9)
        if tracer is not None:
            out.walls_ns[i] = wall
            tracer.phase = "check"
            state = tracer.last_state
            if state is not None:
                out.support.append(numpy.count_nonzero(state.amplitudes) / state.amplitudes.size)
        if probe is not None:
            probe.end_search()
        try:
            problems, err = checks.verify(request, response, rerun_sample=i % RESAMPLE_EVERY == 0)
        except Exception as exc:
            problems, err = [f"check raised {type(exc).__name__}: {exc}"], math.inf
        out.max_err = max(out.max_err, err)
        out.agreed += response.agreement
        if response.counts is not None:
            out.shots_requested += request.shots
            out.shots_accepted += response.counts.shots
        if problems:
            out.fail(f"search {i} {request}", problems)
    return out


def end_to_end(run: Pass, setup: list[float]) -> tuple[dict, dict]:
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before sorting
    lat = run.latencies
    tail, pct = tail_latency(lat)
    passed = run.attempted - run.failed
    metrics = {
        "searches_per_s": passed / sum(lat),
        "search_p50_ms": statistics.median(lat) * 1e3,
        "search_p90_ms": tail * 1e3,
        "peak_rss_mib": rss_mib,
        "setup_s": statistics.median(setup),
    }
    notes = {"latency_samples": len(lat), "tail_percentile": pct,
             "failed_frac": run.failed / run.attempted, "setup_samples_s": setup}
    return metrics, notes


def per_layer(stream, seconds: int) -> tuple[Pass, dict, list]:
    """Alternate short untraced and traced passes over the same requests,
    so that drift in the host's speed cancels from the tracing overhead,
    then a short tracemalloc pass for peak bytes."""
    import tracemalloc

    import spans

    tracer = spans.Tracer()
    plain, traced = Pass(), Pass()
    begin = time.perf_counter()
    while time.perf_counter() - begin < (1 - PEAK_SHARE) * seconds:
        start = len(plain.requests)
        drive(stream, CHUNK_SECONDS, keep=True, out=plain)
        with tracer.installed():
            drive(plain.requests[start:], tracer=tracer, out=traced)
    probe = spans.PeakProbe()
    tracemalloc.start()
    try:
        with probe.installed():
            peaked = drive(plain.requests[:PEAK_MAX_SEARCHES], PEAK_SHARE * seconds, probe=probe)
            if peaked.attempted < PEAK_MIN_SEARCHES:
                drive(plain.requests[peaked.attempted:PEAK_MIN_SEARCHES], probe=probe, out=peaked)
    finally:
        tracemalloc.stop()

    searches = traced.attempted
    wall = sum(traced.walls_ns.values())
    selfs = spans.self_times(tracer.spans)
    metrics = spans.layer_metrics(tracer.spans, selfs, searches, wall)
    over = spans.spans_over_wall(tracer.spans, selfs, traced.walls_ns)
    if over:
        traced.fail(f"traced search {over[0]}", [f"spans exceed wall time on {len(over)} searches"])
    metrics.update({
        "state.support_frac": statistics.fmean(traced.support) if traced.support else 0.0,
        "state.peak_bytes": probe.totals["state"] / peaked.attempted,
        "measure.sample.peak_bytes": probe.totals["sample"] / peaked.attempted,
        "measure.accept_ratio": (traced.shots_accepted / traced.shots_requested
                                 if traced.shots_requested else 0.0),
        "oracle.agree_ratio": traced.agreed / searches,
        "oracle.max_prob_err": traced.max_err,
        "trace.overhead_frac": wall / (1e9 * sum(plain.latencies)) - 1.0,
    })
    combined = Pass()
    for part in (plain, traced, peaked):
        combined.attempted += part.attempted
        combined.failed += part.failed
        combined.problems += part.problems
    return combined, metrics, tracer.spans


def run_one(name: str, seed: int, seconds: int, trace: int) -> int:
    package = bootstrap()
    spec = load_spec()
    import numpy

    import hostinfo
    import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}")
    setup = [] if trace else measure_setup(name, seed)
    stream = workloads.requests(name, seed)
    # the set-up probes' warm-up search, then more, so that every shape of a
    # workload has run and the allocator has grown before timing starts
    warm = drive(stream, WARMUP_SECONDS)
    host = hostinfo.describe_host(numpy, package)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "host": host, "workload_descriptors":
              workloads.describe(name, seed, l2_bytes=host["l2_bytes"])}
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{name}-seed{seed}-trace{trace}"
    if trace:
        run, values, recorded = per_layer(stream, seconds)
        wanted = spec["per_layer"]
        import spans

        spans.write_spans(stem.with_suffix(".spans.jsonl.gz"), recorded)
        notes = {}
    else:
        run = drive(stream, seconds)
        values, notes = end_to_end(run, setup)
        wanted = spec["end_to_end"]
    attempted = run.attempted + warm.attempted
    failed = run.failed + warm.failed
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record.update(notes=notes, metrics=metrics, attempted=attempted, failed=failed,
                  problems=warm.problems + run.problems)
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {name} (seed {seed}, {seconds} s, trace {trace}): "
          f"{record['workload_descriptors']['why']}")
    for key, value in metrics.items():
        counted = f" ({notes['latency_samples']} samples)" if key.startswith("search_p") else ""
        print(f"  {key} = {value['value']:.6g} {value['unit']}{counted}")
    if not trace:
        print(f"  failed_frac = {failed / attempted:.6g} ({failed} of {attempted} searches)")
        if notes["tail_percentile"] < 90:
            print(f"  note: fewer than 100 searches, so search_p90_ms reports "
                  f"p{notes['tail_percentile']:.1f}, the highest percentile with ten beyond it")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def invoke(name: str, seed: int, seconds: int, trace: int = 0) -> tuple[int, dict | None, str]:
    """Run one workload in its own process; returns (exit code, result, stdout)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout


def run_all(seed: int, seconds: int) -> int:
    spec = load_spec()
    rows, status = [], 0
    for workload in spec["workloads"]:
        code, result, _ = invoke(workload["name"], seed, seconds)
        if code != 0 or result is None:
            status = 1
        rows.append((workload["name"], result))
    names = [m["name"] for m in spec["end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print("workload,metric,value,unit")
    for name, result in rows:
        if result is None:
            print(f"{name},error,,")
            continue
        for metric in names:
            print(f"{name},{metric},{result['metrics'][metric]['value']!r},{units[metric]}")
        print(f"{name},failed_frac,{result['failed'] / result['attempted']!r},frac")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.workload == "all":
        bootstrap()
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
