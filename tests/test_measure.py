from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from qnearest import (
    IndexDistribution,
    Mode,
    SearchProblem,
    decide,
    index_distribution,
    run,
    sample,
)
from qnearest.errors import InvalidInputError
from qnearest.measure import SAMPLE_CHUNK

from test_builder import (
    GENERAL_INSTANCE,
    GENERAL_P,
    GENERAL_POSTSELECT,
    PAPER_P,
    paper_problem,
)


def test_paper_distribution_via_measurement():
    problem = paper_problem()
    dist = index_distribution(run(problem), problem)
    assert np.max(np.abs(np.array(dist.probabilities) - PAPER_P)) <= 1e-12
    assert dist.postselect_probability == 1.0


def test_all_matching_elements_give_uniform_distribution():
    problem = SearchProblem(3, (5, 5, 5), 5, Mode.GENERAL)
    dist = index_distribution(run(problem), problem)
    assert dist.probabilities == pytest.approx((1 / 3,) * 3, abs=1e-12)
    assert dist.postselect_probability == pytest.approx(1.0, abs=1e-12)


def test_generalized_distribution_and_postselect():
    problem = SearchProblem(mode=Mode.GENERAL, **GENERAL_INSTANCE)
    dist = index_distribution(run(problem), problem)
    assert np.max(np.abs(np.array(dist.probabilities) - GENERAL_P)) <= 1e-12
    assert dist.postselect_probability == pytest.approx(GENERAL_POSTSELECT, abs=1e-12)


def test_single_element_is_certain_after_postselection():
    problem = SearchProblem(3, (2,), 5, Mode.GENERAL)
    dist = index_distribution(run(problem), problem)
    assert dist.probabilities == (pytest.approx(1.0, abs=1e-12),)
    # the score qubit still rotates by the net angle 3*pi/8
    assert dist.postselect_probability == pytest.approx(
        math.cos(3 * math.pi / 16) ** 2, abs=1e-12
    )


def test_distribution_rejects_mismatched_state():
    state = run(paper_problem())
    other = SearchProblem(3, (2, 6), 5, Mode.GENERAL)
    with pytest.raises(InvalidInputError):
        index_distribution(state, other)


def test_distribution_validation():
    with pytest.raises(InvalidInputError):
        IndexDistribution((0.7, 0.7))
    with pytest.raises(InvalidInputError):
        IndexDistribution((1.5, -0.5))
    with pytest.raises(InvalidInputError):
        IndexDistribution((1.0,), postselect_probability=0.0)
    with pytest.raises(InvalidInputError):
        IndexDistribution(())


def test_decide_picks_the_peak():
    assert decide(IndexDistribution(PAPER_P)) == (1, False)
    assert decide(IndexDistribution(GENERAL_P)) == (2, False)


def test_decide_breaks_ties_toward_the_lowest_index():
    assert decide(IndexDistribution((0.5, 0.5))) == (0, True)
    assert decide(IndexDistribution((0.2, 0.4, 0.4))) == (1, True)
    # a gap above the tolerance is not a tie
    assert decide(IndexDistribution((0.5 - 1e-6, 0.5 + 1e-6))) == (1, False)


def test_certain_distribution_samples_one_index():
    counts = sample(IndexDistribution((1.0,)), shots=257, seed=9)
    assert counts.counts == {0: 257}
    assert counts.shots == 257
    assert counts.rejected == 0


def test_sampling_is_deterministic_for_a_seed():
    dist = IndexDistribution(GENERAL_P, GENERAL_POSTSELECT)
    first = sample(dist, 5000, seed=1234)
    second = sample(dist, 5000, seed=1234)
    assert first == second
    assert sum(first.counts.values()) == first.shots
    assert first.shots + first.rejected == 5000


def test_sampled_frequencies_track_probabilities():
    shots = 100_000
    dist = IndexDistribution(PAPER_P)
    counts = sample(dist, shots, seed=42)
    for j, p in enumerate(PAPER_P):
        bound = 3 * math.sqrt(p * (1 - p) / shots)
        assert abs(counts.counts[j] / shots - p) <= bound


def test_rejections_track_postselect_probability():
    shots = 100_000
    dist = IndexDistribution(GENERAL_P, GENERAL_POSTSELECT)
    counts = sample(dist, shots, seed=42)
    assert counts.shots + counts.rejected == shots
    bound = 3 * math.sqrt(GENERAL_POSTSELECT * (1 - GENERAL_POSTSELECT) / shots)
    assert abs(counts.shots / shots - GENERAL_POSTSELECT) <= bound
    # frequencies among kept shots follow the conditional distribution
    for j, p in enumerate(GENERAL_P):
        bound = 3 * math.sqrt(p * (1 - p) / counts.shots)
        assert abs(counts.counts[j] / counts.shots - p) <= bound


def test_zero_shots_is_rejected():
    with pytest.raises(InvalidInputError):
        sample(IndexDistribution((1.0,)), shots=0)


def one_draw_sample(dist, shots, seed):
    """Reference: every uniform of each phase drawn in one call."""
    rng = np.random.default_rng(seed)
    accepted = int(np.count_nonzero(rng.random(shots) < dist.postselect_probability))
    cdf = np.cumsum(dist.probabilities)
    draws = np.minimum(np.searchsorted(cdf, rng.random(accepted), side="right"), len(cdf) - 1)
    return accepted, np.bincount(draws, minlength=len(cdf))


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_chunked_sampling_matches_one_draw(seed):
    shots = 3 * SAMPLE_CHUNK + 7
    dist = IndexDistribution(GENERAL_P, GENERAL_POSTSELECT)
    counts = sample(dist, shots, seed)
    accepted, tallies = one_draw_sample(dist, shots, seed)
    assert accepted > 2 * SAMPLE_CHUNK  # the index draws span chunks as well
    assert counts.shots == accepted
    assert counts.rejected == shots - accepted
    assert counts.counts == {j: int(c) for j, c in enumerate(tallies)}


def test_sampling_memory_is_bounded_by_the_chunk():
    dist = IndexDistribution(tuple([1 / 16] * 16), 0.7)
    sample(dist, 100, seed=3)  # NumPy's one-time lazy allocations stay out of the peak
    tracemalloc.start()
    try:
        sample(dist, 16 * SAMPLE_CHUNK, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one draw of every uniform would need 16 chunks of float64
    assert peak < 4 * SAMPLE_CHUNK * 8
