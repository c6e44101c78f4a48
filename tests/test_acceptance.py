"""End-to-end acceptance checks, one test per shipped guarantee.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one [PASS]/[FAIL]
line per criterion. Every tolerance is pinned here as a literal; nothing is
left to later calibration.
"""

from __future__ import annotations

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import make_layout, random_state, random_unitary
from dense import flatten, from_amplitudes
from qnearest import (
    Mode,
    SearchProblem,
    apply_controlled,
    classical_nearest,
    closed_form_generalized,
    closed_form_paper,
    comparison_gate,
    decide,
    index_distribution,
    load_superposition,
    run,
    sample,
)

PAPER_P0 = 0.3647
PAPER_P1 = 0.6353
PAPER_P1_EXACT = 0.6352990250365492
SAMPLING_SEED = 42


@contextmanager
def criterion(tag: str, description: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {tag}: {description}")
        raise
    print(f"[PASS] {tag}: {description}")


def paper_distribution(n: int, a: tuple[int, ...], b: int) -> tuple[float, ...]:
    problem = SearchProblem(n, a, b, Mode.PAPER)
    return index_distribution(run(problem), problem).probabilities


@pytest.fixture(scope="module")
def paper_sweep():
    """Simulated two-element distributions for every (b, a0, a1) with n <= 4."""
    dists = {}
    for n in range(1, 5):
        values = range(1 << n)
        for b, a0, a1 in itertools.product(values, values, values):
            dists[(n, b, a0, a1)] = paper_distribution(n, (a0, a1), b)
    return dists


@pytest.fixture(scope="module")
def full_sweep():
    """Full-circuit vs compiled two-element distributions, exhaustive n <= 3, timed."""
    started = time.perf_counter()
    pairs = {}
    for n in range(1, 4):
        values = range(1 << n)
        for b, a0, a1 in itertools.product(values, values, values):
            full = SearchProblem(n, (a0, a1), b, Mode.FULL)
            dist_full = index_distribution(run(full), full).probabilities
            pairs[(n, b, a0, a1)] = (dist_full, paper_distribution(n, (a0, a1), b))
    return pairs, time.perf_counter() - started


@pytest.fixture(scope="module")
def random_large_instances():
    """1000 seeded random (n=6, m=16) instances with a unique minimum distance,
    run through the generalized pipeline."""
    rng = np.random.default_rng(20260811)
    results = []
    while len(results) < 1000:
        a = tuple(int(v) for v in rng.integers(0, 64, 16))
        b = int(rng.integers(0, 64))
        report = classical_nearest(a, b)
        if len(report.tied_indices) != 1:
            continue
        problem = SearchProblem(6, a, b, Mode.GENERAL)
        dist = index_distribution(run(problem), problem)
        results.append((a, b, report, dist))
    return results


def test_criterion_01_worked_example_probabilities():
    with criterion("C1", "two-element example lands within 0.005 of 0.3647/0.6353 in < 1 s"):
        started = time.perf_counter()
        probs = paper_distribution(3, (2, 6), 5)
        elapsed = time.perf_counter() - started
        assert abs(probs[0] - PAPER_P0) <= 0.005
        assert abs(probs[1] - PAPER_P1) <= 0.005
        assert elapsed < 1.0


def test_criterion_02_superposition_golden_state():
    with criterion("C2", "loaded state equals (|010>|0> + |110>|1>)/sqrt(2) to 1e-12"):
        state = load_superposition(SearchProblem(3, (2, 6), 5, Mode.PAPER))
        expected = np.zeros(16, dtype=complex)
        expected[flatten(state.layout, (0, 1, 0, 0))] = 2 ** -0.5
        expected[flatten(state.layout, (1, 1, 0, 1))] = 2 ** -0.5
        assert np.max(np.abs(state.amplitudes - expected)) <= 1e-12


def test_criterion_03_comparison_matrix_entries():
    with criterion("C3", "8x8 comparison matrix matches its block form entry-for-entry to 1e-12"):
        for theta in (math.pi / 2, math.pi / 4, math.pi / 8):
            c, s = math.cos(theta / 2), math.sin(theta / 2)
            golden = np.eye(8, dtype=complex)
            golden[2, 2] = golden[3, 3] = c
            golden[2, 3] = golden[3, 2] = 1j * s
            golden[4, 4] = golden[5, 5] = c
            golden[4, 5] = golden[5, 4] = -1j * s
            assert np.max(np.abs(comparison_gate(theta).matrix - golden)) <= 1e-12


def test_criterion_04_sign_irrelevance(paper_sweep):
    with criterion("C4", "bitwise-complemented instances give identical distributions (n <= 4, 1e-12)"):
        for (n, b, a0, a1), probs in paper_sweep.items():
            mask = (1 << n) - 1
            flipped = paper_sweep[(n, mask - b, mask - a0, mask - a1)]
            assert abs(probs[0] - flipped[0]) <= 1e-12
            assert abs(probs[1] - flipped[1]) <= 1e-12


def test_criterion_05_mode_equivalence(full_sweep):
    with criterion("C5", "full-circuit and compiled modes agree to 1e-10 on all n <= 3 pairs in < 60 s"):
        pairs, elapsed = full_sweep
        assert len(pairs) == 8 + 64 + 512
        for dist_full, dist_paper in pairs.values():
            assert abs(dist_full[0] - dist_paper[0]) <= 1e-10
            assert abs(dist_full[1] - dist_paper[1]) <= 1e-10
        assert elapsed < 60.0


def test_criterion_06_oracle_agreement(random_large_instances):
    with criterion("C6", "decisions match the classical scan: exhaustive n <= 4, m <= 4 plus 1000 random n=6, m=16"):
        # Exhaustive grid, vectorized. Probability order equals weight order
        # (shared normalizer), so the decision is the argmax over a per-distance
        # weight table. Two lemmas make the vectorization faithful to decide():
        # the table is pinned to product code exactly, and its nonzero gaps are
        # orders of magnitude above decide()'s 1e-9 tie tolerance, so argmax's
        # first-maximum rule and decide()'s lowest-tied-index rule coincide.
        for n in range(1, 5):
            span = 1 << n
            # single-element post-selection probability IS the weight of one distance
            table = np.array([
                closed_form_generalized((0,), d, n).postselect_probability
                for d in range(span)
            ])
            gaps = -np.diff(table)
            assert np.all(gaps > 1e-3)  # strictly decreasing, far above 1e-9
            for m in range(1, 5):
                grid = np.stack(
                    np.meshgrid(*([np.arange(span)] * m), indexing="ij"), axis=-1
                ).reshape(-1, m)
                for b in range(span):
                    distances = np.abs(b - grid)
                    weights = table[distances]
                    predicted = weights.argmax(axis=1)
                    dmin = distances.min(axis=1)
                    rows = np.arange(len(grid))
                    # every decision attains the minimum distance, ties included
                    assert np.array_equal(distances[rows, predicted], dmin)
                    unique = (distances == dmin[:, None]).sum(axis=1) == 1
                    assert np.array_equal(
                        predicted[unique], distances.argmin(axis=1)[unique]
                    )
        # The same property through the actual pipeline on a seeded sample.
        rng = np.random.default_rng(4242)
        for _ in range(300):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            a = tuple(int(v) for v in rng.integers(0, 1 << n, m))
            b = int(rng.integers(0, 1 << n))
            problem = SearchProblem(n, a, b, Mode.GENERAL)
            chosen, _ = decide(index_distribution(run(problem), problem))
            report = classical_nearest(a, b)
            assert abs(b - a[chosen]) == report.distance
            if len(report.tied_indices) == 1:
                assert chosen == report.nearest_index
        # 1000 random unique-minimum large instances, full pipeline.
        for a, b, report, dist in random_large_instances:
            chosen, is_tie = decide(dist)
            assert chosen == report.nearest_index
            assert not is_tie


def test_criterion_07_two_element_argmax_law(paper_sweep):
    with criterion("C7", "P(1) > P(0) iff |b-a1| < |b-a0|, exhaustive n <= 4, tie equality to 1e-12"):
        for (n, b, a0, a1), probs in paper_sweep.items():
            d0, d1 = abs(b - a0), abs(b - a1)
            if d1 < d0:
                assert probs[1] > probs[0]
            elif d0 < d1:
                assert probs[0] > probs[1]
            else:
                assert abs(probs[0] - probs[1]) <= 1e-12


def test_criterion_08_closed_forms_match_the_state_vector(
    paper_sweep, full_sweep, random_large_instances
):
    with criterion("C8", "closed forms match state-vector probabilities to 1e-12"):
        # every exhaustive two-element instance, both simulated modes
        for (n, b, a0, a1), probs in paper_sweep.items():
            closed = closed_form_paper((a0, a1), b, n).probabilities
            assert abs(probs[0] - closed[0]) <= 1e-12
            assert abs(probs[1] - closed[1]) <= 1e-12
        for (n, b, a0, a1), (dist_full, _) in full_sweep[0].items():
            closed = closed_form_paper((a0, a1), b, n).probabilities
            assert abs(dist_full[0] - closed[0]) <= 1e-12
            assert abs(dist_full[1] - closed[1]) <= 1e-12
        # the large random pipeline instances
        for a, b, _, dist in random_large_instances:
            closed = closed_form_generalized(a, b, 6)
            assert np.max(np.abs(np.array(dist.probabilities) - closed.probabilities)) <= 1e-12
            assert abs(dist.postselect_probability - closed.postselect_probability) <= 1e-12
        # seeded subsample of the exhaustive generalized grid
        rng = np.random.default_rng(31415)
        for _ in range(1500):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            a = tuple(int(v) for v in rng.integers(0, 1 << n, m))
            b = int(rng.integers(0, 1 << n))
            problem = SearchProblem(n, a, b, Mode.GENERAL)
            sim = index_distribution(run(problem), problem)
            closed = closed_form_generalized(a, b, n)
            assert np.max(np.abs(np.array(sim.probabilities) - closed.probabilities)) <= 1e-12
            assert abs(sim.postselect_probability - closed.postselect_probability) <= 1e-12


def test_criterion_09_norm_survives_long_circuits():
    with criterion("C9", "norm drift stays within 1e-10 after 1000 random gates"):
        rng = np.random.default_rng(999)
        layout = make_layout(2, 2, 3, 4, 2)
        nsites = len(layout.dims)
        state = from_amplitudes(layout, random_state(rng, layout.total_dimension))
        for _ in range(1000):
            target = int(rng.integers(nsites))
            free = [s for s in range(nsites) if s != target]
            controls = tuple(
                (s, int(rng.integers(layout.dims[s])))
                for s in rng.choice(free, size=int(rng.integers(3)), replace=False)
            )
            state = apply_controlled(
                state, controls, target, random_unitary(rng, layout.dims[target])
            )
        assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) <= 1e-10


def test_criterion_10_sampling_soundness():
    with criterion("C10", "100k seeded shots land within 3 sigma of the exact index-1 probability"):
        shots = 100_000
        problem = SearchProblem(3, (2, 6), 5, Mode.PAPER)
        dist = index_distribution(run(problem), problem)
        counts = sample(dist, shots, seed=SAMPLING_SEED)
        bound = 3 * math.sqrt(PAPER_P1_EXACT * (1 - PAPER_P1_EXACT) / shots)
        assert abs(counts.counts[1] / shots - PAPER_P1_EXACT) <= bound
