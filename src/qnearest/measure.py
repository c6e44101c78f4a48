"""Decision extraction: exact index distributions, seeded sampling, argmax."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .builder import Mode, SearchProblem, build_layout, uses_score
from .errors import InvalidInputError
from .state import Role, StateVector, marginal_probabilities

PROBABILITY_SUM_TOLERANCE = 1e-10
TIE_TOLERANCE = 1e-9
# uniforms drawn per call to the PRNG while sampling; bounds sampling memory
SAMPLE_CHUNK = 1 << 16


@dataclass(frozen=True)
class IndexDistribution:
    """Probability of each array index being selected.

    ``postselect_probability`` is the chance the score qubit reads 0, i.e.
    the fraction of shots the conditional distribution keeps; it is 1.0 for
    modes without a score qubit.
    """

    probabilities: tuple[float, ...]
    postselect_probability: float = 1.0
    mode: Mode | None = None

    def __post_init__(self) -> None:
        probs = tuple(float(p) for p in self.probabilities)
        object.__setattr__(self, "probabilities", probs)
        if not probs:
            raise InvalidInputError("distribution must cover at least one index")
        if any(p < -1e-12 for p in probs):
            raise InvalidInputError("negative probability")
        if abs(sum(probs) - 1.0) > PROBABILITY_SUM_TOLERANCE:
            raise InvalidInputError(f"probabilities sum to {sum(probs)!r}, not 1")
        if not 0.0 < self.postselect_probability <= 1.0 + 1e-12:
            raise InvalidInputError(
                f"post-selection probability {self.postselect_probability!r} outside (0, 1]"
            )


@dataclass(frozen=True)
class ShotCounts:
    """Measurement tallies. ``shots`` counts post-selection survivors only;
    rejected attempts are reported, never resampled."""

    counts: dict[int, int]
    shots: int
    rejected: int
    seed: int


def index_distribution(state: StateVector, problem: SearchProblem) -> IndexDistribution:
    """Exact index distribution of a final state.

    Modes whose rotations target the index qubit read its marginal directly;
    score-qubit modes condition the index marginal on score = 0.
    """
    layout = build_layout(problem)
    if state.layout != layout:
        raise InvalidInputError("state layout does not match the problem")
    index = layout.single(Role.INDEX)
    if not uses_score(problem):
        marg = marginal_probabilities(state, (index,))
        return IndexDistribution(
            tuple(marg[(j,)] for j in range(problem.m)), 1.0, problem.mode
        )
    score = layout.single(Role.SCORE)
    joint = marginal_probabilities(state, (index, score))
    keep = sum(joint[(j, 0)] for j in range(layout.dims[index]))
    probs = tuple(joint[(j, 0)] / keep for j in range(problem.m))
    return IndexDistribution(probs, keep, problem.mode)


def decide(dist: IndexDistribution) -> tuple[int, bool]:
    """Argmax index; ties within ``TIE_TOLERANCE`` resolve to the lowest index."""
    probs = dist.probabilities
    best = max(probs)
    tied = [j for j, p in enumerate(probs) if best - p <= TIE_TOLERANCE]
    return tied[0], len(tied) > 1


def sample(dist: IndexDistribution, shots: int, seed: int = 0) -> ShotCounts:
    """Deterministic shot sampling.

    The PRNG is NumPy's ``default_rng`` (PCG64) seeded with ``seed``; results
    reproduce across platforms. One uniform per requested shot decides
    post-selection acceptance, then one uniform per surviving shot picks the
    index by inverse CDF over the probabilities. Uniforms are drawn
    ``SAMPLE_CHUNK`` at a time, which yields the same stream as one draw, so
    memory stays bounded for any shot count.
    """
    if shots < 1:
        raise InvalidInputError(f"shots must be >= 1, got {shots}")
    rng = np.random.default_rng(int(seed) % (1 << 64))
    accepted = sum(
        int(np.count_nonzero(u < dist.postselect_probability))
        for u in _uniform_chunks(rng, shots)
    )
    cdf = np.cumsum(dist.probabilities)
    tallies = np.zeros(len(cdf), dtype=np.int64)
    for u in _uniform_chunks(rng, accepted):
        draws = np.searchsorted(cdf, u, side="right")
        tallies += np.bincount(np.minimum(draws, len(cdf) - 1, out=draws), minlength=len(cdf))
    return ShotCounts(
        counts={j: int(c) for j, c in enumerate(tallies)},
        shots=accepted,
        rejected=shots - accepted,
        seed=int(seed),
    )


def _uniform_chunks(rng: np.random.Generator, count: int):
    for start in range(0, count, SAMPLE_CHUNK):
        yield rng.random(min(SAMPLE_CHUNK, count - start))
