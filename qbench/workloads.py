"""Seeded request streams for the benchmark's workloads.

Each generator takes the run's seed and yields ``SearchRequest`` objects
forever; the program under test sees only these requests. Inputs come from
``random.Random`` seeded with the workload name and the seed, so a seed
gives the same stream on every platform.

``sweep-small`` is runnable by name but is not one of ``BENCHMARK.json``'s
workloads: its time is almost all interpreter overhead, whose speed on a
shared host drifts by 25-30% between runs, wider than the 0.24 timing bound.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from qnearest.builder import Mode, SearchProblem, build_circuit, uses_score
from qnearest.cli import SearchRequest

SHOTS = 2_000_000
FULL_SHAPES = ((3, 3), (2, 6), (3, 4))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[random.Random], Iterator[SearchRequest]]


def _values(rng: random.Random, n: int, m: int) -> tuple[int, ...]:
    return tuple(rng.randrange(1 << n) for _ in range(m))


def _sweep_small(rng):
    # the agreement sweep's stream: general always, paper as well when m = 2
    while True:
        n, m = rng.randint(1, 6), rng.randint(1, 8)
        a, b = _values(rng, n, m), rng.randrange(1 << n)
        yield SearchRequest(n, b, a, Mode.GENERAL)
        if m == 2:
            yield SearchRequest(n, b, a, Mode.PAPER)


def _general_large(rng):
    while True:
        yield SearchRequest(10, rng.randrange(1 << 10), _values(rng, 10, 64), Mode.GENERAL)


def _half_set_values(rng: random.Random, n: int, m: int) -> tuple[int, ...]:
    # values with floor(n*m/2) set bits in all: one copy gate per set bit,
    # so every search of a shape runs the same number of gates
    bits = set(rng.sample(range(n * m), n * m // 2))
    return tuple(sum(1 << k for k in range(n) if j * n + k in bits) for j in range(m))


def _full_crosscheck(rng):
    # a fixed shape cycle keeps the size mix identical across seeds
    for n, m in itertools.cycle(FULL_SHAPES):
        yield SearchRequest(n, rng.randrange(1 << n), _half_set_values(rng, n, m), Mode.FULL)


def _shots(rng):
    while True:
        yield SearchRequest(6, rng.randrange(1 << 6), _values(rng, 6, 16), Mode.GENERAL,
                            shots=SHOTS, seed=rng.randrange(1 << 32))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-small",
                 "Many tiny searches (n<=6, m<=8): fixed per-call costs such as validation, "
                 "layout rebuilds and gate construction dominate, not amplitude bandwidth.",
                 _sweep_small),
        Workload("general-large",
                 "general mode at n=10, m=64 (131,072 amplitudes, ~320 gates): per-gate "
                 "passes over the full dense state dominate, the target of a block-local kernel.",
                 _general_large),
        Workload("full-crosscheck",
                 "full mode at (3,3), (2,6), (3,4): up to 2M amplitudes with at most 2m nonzero "
                 "and ~10 gates, so state bytes, marginals and memory dominate.",
                 _full_crosscheck),
        Workload("shots",
                 "general mode at n=6, m=16 with 2,000,000 shots per search: the only workload "
                 "on which sampling runs, and it dominates time and memory.",
                 _shots),
    )
}


def requests(name: str, seed: int) -> Iterator[SearchRequest]:
    return WORKLOADS[name].generate(random.Random(f"{name}:{seed}"))


def describe(name: str, seed: int, count: int = 64, l2_bytes: int | None = None) -> dict:
    """Static descriptors of a workload's first ``count`` requests.

    State size and gate counts come from the builder without allocating a
    state; the support bound is analytic: a final state holds at most two
    nonzero amplitudes (score 0 and 1) per index branch, four without a score
    qubit.
    """
    sizes, gates, support = [], [], []
    for req in itertools.islice(requests(name, seed), count):
        problem = SearchProblem(req.n, req.a, req.b, req.mode)
        size = problem.state_size()
        sizes.append(size)
        gates.append(len(build_circuit(problem).gates))
        support.append(min(size, 2 * len(req.a) if uses_score(problem) else 4) / size)
    state_bytes = 16 * max(sizes)
    return {
        "why": WORKLOADS[name].why,
        "requests_described": count,
        "state_amplitudes": {"min": min(sizes), "max": max(sizes),
                             "mean": sum(sizes) / len(sizes)},
        "gates_per_search": {"min": min(gates), "max": max(gates),
                             "mean": sum(gates) / len(gates)},
        "support_frac_bound": {"min": min(support), "max": max(support)},
        "largest_state_bytes": state_bytes,
        "largest_state_vs_l2": state_bytes / l2_bytes if l2_bytes else None,
    }
