"""Steadiness check: runs the benchmark in sets and compares them with the
bounds fixed in ``BENCHMARK.json``.

    python3 qbench/steady.py [--sets 2] [--runs 5] [--seconds S] [--workloads a,b]

Each set runs every workload once per seed, a new seed per run, workloads
interleaved. For each (workload, end-to-end metric) it prints each set's
median and spread, the distance between the first and third quartile (as
``statistics.quantiles(values, n=4)`` gives them) as a share of the median,
and the change of the last set's median against the first set's, signed so
that positive is worse, next to the metric's bound. It exits nonzero when a
run fails, a spread other than ``setup_s``'s exceeds its bound, or the
change is worse than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import run


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, last: float, better: str) -> float:
    change = (last - first) / first
    return change if better == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    spec = run.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5, help="runs (seeds) per workload per set")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2 or args.sets < 1:
        parser.error("need --runs >= 2 and --sets >= 1")
    run.bootstrap()
    names = args.workloads.split(",")
    values: dict = {(w, s): {} for w in names for s in range(args.sets)}
    status = 0
    for s in range(args.sets):
        for i in range(args.runs):
            seed = args.first_seed + s * args.runs + i
            for w in names:
                code, result, out = run.invoke(w, seed, args.seconds)
                if code != 0 or result is None or not result["correct"]:
                    print(f"run failed: {w} seed {seed} (exit {code})\n{out}", file=sys.stderr)
                    status = 1
                    continue
                for metric, entry in result["metrics"].items():
                    values[w, s].setdefault(metric, []).append(entry["value"])
                print(f"set {s + 1} seed {seed} {w}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    report = []
    print("workload,metric,bound," + ",".join(
        f"median{s + 1},spread{s + 1}" for s in range(args.sets)) + ",worse_by,verdict")
    for w in names:
        for m in spec["end_to_end"]:
            series = [values[w, s].get(m["name"], []) for s in range(args.sets)]
            if any(len(v) < 2 for v in series):
                continue
            medians = [statistics.median(v) for v in series]
            spreads = [spread(v) for v in series]
            worse = worse_by(medians[0], medians[-1], m["better"]) if args.sets > 1 else 0.0
            ok = worse <= m["bound"] and (m["name"] == "setup_s"
                                          or max(spreads) <= m["bound"])
            status |= not ok
            report.append({"workload": w, "metric": m["name"], "bound": m["bound"],
                           "values": series, "medians": medians, "spreads": spreads,
                           "worse_by": worse, "ok": ok})
            cells = ",".join(f"{md:.6g},{sp:.4f}" for md, sp in zip(medians, spreads))
            print(f"{w},{m['name']},{m['bound']},{cells},{worse:+.4f},"
                  f"{'ok' if ok else 'OUT OF BOUND'}")
    run.RESULTS.mkdir(exist_ok=True)
    (run.RESULTS / "steady.json").write_text(json.dumps(report, indent=2) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
