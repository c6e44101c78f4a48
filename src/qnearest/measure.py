"""Decision extraction: exact index distributions, seeded sampling, argmax."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .builder import Mode, SearchProblem, uses_score
from .errors import InvalidInputError, _integer
from .state import Role, StateVector, marginal_probabilities

PROBABILITY_SUM_TOLERANCE = 1e-10
TIE_TOLERANCE = 1e-9
# the largest count NumPy's binomial draw takes (int64)
MAX_SHOTS = (1 << 63) - 1


@dataclass(frozen=True)
class IndexDistribution:
    """Probability of each array index being selected.

    ``postselect_probability`` is the chance the score qubit reads 0, i.e.
    the fraction of shots the conditional distribution keeps; it is 1.0 for
    modes without a score qubit. Both are stored as floats; a value that is
    not a real number raises :class:`InvalidInputError`.
    """

    probabilities: tuple[float, ...]
    postselect_probability: float = 1.0
    mode: Mode | None = None

    def __post_init__(self) -> None:
        try:
            probs = tuple(map(float, self.probabilities))
            keep = float(self.postselect_probability)
        except (TypeError, ValueError) as err:
            raise InvalidInputError(f"malformed distribution: {err}") from None
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "postselect_probability", keep)
        if not probs:
            raise InvalidInputError("distribution must cover at least one index")
        if not all(p >= -1e-12 for p in probs):  # also true for NaN
            raise InvalidInputError("negative or NaN probability")
        if not abs(sum(probs) - 1.0) <= PROBABILITY_SUM_TOLERANCE:
            raise InvalidInputError(f"probabilities sum to {sum(probs)!r}, not 1")
        if not 0.0 < keep <= 1.0 + 1e-12:
            raise InvalidInputError(f"post-selection probability {keep!r} outside (0, 1]")


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
    layout = problem.layout
    if state.layout != layout:
        raise InvalidInputError("state layout does not match the problem")
    index = layout.single(Role.INDEX)
    if not uses_score(problem):
        cells = marginal_probabilities(state, (index,)).tolist()
        return IndexDistribution(tuple(cells[: problem.m]), 1.0, problem.mode)
    score = layout.single(Role.SCORE)
    cells = marginal_probabilities(state, (index, score))[:, 0].tolist()
    keep = sum(cells)
    probs = tuple(p / keep for p in cells[: problem.m])
    return IndexDistribution(probs, keep, problem.mode)


def decide(dist: IndexDistribution) -> tuple[int, bool]:
    """Argmax index; ties within ``TIE_TOLERANCE`` resolve to the lowest index."""
    probs = dist.probabilities
    best = max(probs)
    tied = [j for j, p in enumerate(probs) if best - p <= TIE_TOLERANCE]
    return tied[0], len(tied) > 1


def check_shots(shots: int) -> None:
    """Reject shot counts that are not integers or lie outside ``[1, MAX_SHOTS]``."""
    if not 1 <= _integer(shots, "shots") <= MAX_SHOTS:
        raise InvalidInputError(f"shots must be in [1, 2^63 - 1], got {shots}")


def sample(dist: IndexDistribution, shots: int, seed: int = 0) -> ShotCounts:
    """Deterministic shot counts, drawn as counts rather than shot by shot.

    The PRNG is NumPy's ``default_rng`` (PCG64) seeded with ``seed``; results
    reproduce across platforms. One binomial draw gives the number of shots
    that survive post-selection, and one multinomial draw splits them over
    the indices. That is the joint law of the per-shot tallies, in O(m) time
    and memory for any ``shots`` in ``[1, 2^63 - 1]``. The acceptance
    probability is clamped to 1 and the probabilities clipped at 0 and
    renormalised, since :class:`IndexDistribution` admits rounding slack
    that NumPy's draws reject.
    """
    check_shots(shots)
    seed = _integer(seed, "seed")
    rng = np.random.default_rng(seed % (1 << 64))
    accepted = int(rng.binomial(shots, min(dist.postselect_probability, 1.0)))
    probs = np.clip(dist.probabilities, 0.0, None)
    tallies = rng.multinomial(accepted, probs / probs.sum())
    return ShotCounts(
        counts={j: int(c) for j, c in enumerate(tallies)},
        shots=accepted,
        rejected=shots - accepted,
        seed=seed,
    )
