"""Decision extraction: exact index distributions, seeded sampling, argmax."""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .builder import Mode, SearchProblem, _mode
from .errors import InvalidInputError, _instance, _integer
from .state import StateVector, _bind, marginal_probabilities

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
    not a real number (a string included) raises :class:`InvalidInputError`.
    ``mode``, unless None, is checked and stored as a :class:`Mode`. The
    values are checked in array form (:meth:`_check`), NaN-safe.
    """

    probabilities: tuple[float, ...]
    postselect_probability: float = 1.0
    mode: Mode | None = None

    def __post_init__(self) -> None:
        try:
            given = tuple(self.probabilities)
            probs, keep = tuple(map(float, given)), float(self.postselect_probability)
        except (TypeError, ValueError, OverflowError) as err:
            raise InvalidInputError(f"malformed distribution: {err}") from None
        # float() also parses strings; if it changed no probability, none was one
        for value in (given if probs != given else ()) + (self.postselect_probability,):
            if not isinstance(value, Real):
                raise InvalidInputError(f"malformed distribution: {value!r} is not a real number")
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "postselect_probability", keep)
        if not isinstance(self.mode, (Mode, type(None))):
            object.__setattr__(self, "mode", _mode(self.mode))
        self._check(np.array(probs))

    @classmethod
    def _from_array(cls, probs: np.ndarray, keep: float, mode: Mode) -> IndexDistribution:
        """The distribution of a float64 array and a float, which need no
        conversion, so only :meth:`_check` runs."""
        dist = _bind(cls, probabilities=tuple(probs.tolist()), postselect_probability=keep,
                     mode=mode)
        dist._check(probs)
        return dist

    def _check(self, probs: np.ndarray) -> None:
        # ``probs`` is ``probabilities`` as a float64 array
        if not probs.size:
            raise InvalidInputError("distribution must cover at least one index")
        if not (probs >= -1e-12).all():  # also true for NaN
            raise InvalidInputError("negative or NaN probability")
        if not abs(probs.sum() - 1.0) <= PROBABILITY_SUM_TOLERANCE:
            raise InvalidInputError(f"probabilities sum to {float(probs.sum())!r}, not 1")
        if not 0.0 < self.postselect_probability <= 1.0 + 1e-12:
            raise InvalidInputError(
                f"post-selection probability {self.postselect_probability!r} outside (0, 1]")


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
    score-qubit modes condition the index marginal on score = 0. The sites
    are read off the problem's shape template. The distribution is built
    from the marginal's array, checked in array form.
    """
    template = _instance(problem, SearchProblem, "problem")._shape_template
    if _instance(state, StateVector, "state").layout != template.layout:
        raise InvalidInputError("state layout does not match the problem")
    cells = marginal_probabilities(state, template.marginal)
    if cells.ndim == 1:  # no score qubit
        return IndexDistribution._from_array(cells[: problem.m], 1.0, problem.mode)
    cells = cells[:, 0]
    # Python's left-to-right float sum: NumPy's pairwise sum can round differently
    keep = sum(cells.tolist())
    return IndexDistribution._from_array(cells[: problem.m] / keep, keep, problem.mode)


def decide(dist: IndexDistribution) -> tuple[int, bool]:
    """Argmax index; ties within ``TIE_TOLERANCE`` resolve to the lowest index."""
    probs = _instance(dist, IndexDistribution, "distribution").probabilities
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
    return _sample(_instance(dist, IndexDistribution, "distribution"), shots,
                   _integer(seed, "seed"))


def _sample(dist: IndexDistribution, shots: int, seed: int) -> ShotCounts:
    """:func:`sample` for a caller that has run :func:`check_shots` itself
    and passes the seed as an int."""
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
