#!/usr/bin/env python3
"""Print where the time of a warm search goes, stage by stage.

Usage: ``python3 scripts/search_cost.py [--mode general] [--bits 10] [--m 64]
[--count 500] [--repeat 15] [--seed 1]``. It draws ``count`` seeded
requests of one shape (mode, n, m) and runs them through every stage once,
so every memo is warm, then times each stage over the whole stream in
``repeat`` more rounds, in this process. Each stage runs on what the stage
before it returned, on problems made afresh in the same round, as
``run_search`` runs them. The output is CSV, one row per stage: the best
round's mean time per search, in microseconds. ``scan`` is the classical
scan ``run_search`` makes, and the last row is the whole ``run_search``.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from qnearest import Mode, SearchProblem, build_circuit, decide, execute_circuit
from qnearest import index_distribution
from qnearest.cli import SearchRequest, run_search
from qnearest.oracle import _nearest


def _round(requests: list) -> dict[str, float]:
    """Seconds each stage took over ``requests``, stage after stage."""
    spent = {}

    def timed(stage, fn, items):
        start = time.perf_counter()
        out = [fn(*item) for item in items]
        spent[stage] = time.perf_counter() - start
        return out

    problems = timed("SearchProblem", SearchProblem, [(r.n, r.a, r.b, r.mode) for r in requests])
    circuits = timed("build_circuit", build_circuit, [(p,) for p in problems])
    states = timed("execute_circuit", execute_circuit, [(c,) for c in circuits])
    dists = timed("index_distribution", index_distribution, list(zip(states, problems)))
    decisions = timed("decide", decide, [(d,) for d in dists])
    timed("scan", _nearest, [(p, chosen) for p, (chosen, _) in zip(problems, decisions)])
    timed("run_search", run_search, [(r,) for r in requests])
    return spent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=[m.value for m in Mode], default=Mode.GENERAL.value)
    parser.add_argument("--bits", type=int, default=10)
    parser.add_argument("--m", type=int, default=64)
    parser.add_argument("--count", type=int, default=500)
    parser.add_argument("--repeat", type=int, default=15)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    mode, n, m = Mode(args.mode), args.bits, args.m
    rng = np.random.default_rng(args.seed)
    requests = [SearchRequest(n, int(rng.integers(1 << n)),
                              tuple(rng.integers(0, 1 << n, m).tolist()), mode)
                for _ in range(args.count)]
    _round(requests)  # warms every memo
    rounds = [_round(requests) for _ in range(args.repeat)]
    print("mode,n,m,stage,best_us_per_search")
    for stage in rounds[0]:
        best = min(spent[stage] for spent in rounds)
        print(f"{mode.value},{n},{m},{stage},{best / args.count * 1e6:.2f}")


if __name__ == "__main__":
    main()
