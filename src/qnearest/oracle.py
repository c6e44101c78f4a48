"""Classical ground truth and closed-form distributions for cross-validation.

The closed forms were derived by hand once and are pinned against the
state-vector pipeline by the test suite before anything trusts them, so the
validation is not circular: small instances are checked exhaustively by
brute force.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .builder import Mode, SearchProblem, _index_dimension, _shape, run, validate_instance
from .errors import InvalidInputError, _integer, _integers
from .gates import _matrix_dimension
from .measure import IndexDistribution, decide, index_distribution


@dataclass(frozen=True)
class OracleReport:
    """Classical nearest-neighbor answer. ``agreement`` stays None until a
    simulator decision has been compared against it."""

    nearest_index: int
    distance: int
    tied_indices: tuple[int, ...]
    agreement: bool | None = None


def classical_nearest(a: Sequence[int], b: int) -> OracleReport:
    """Exact integer scan: all minimizers listed, lowest index chosen.

    ``b`` and every value must be integers, so a float such as 2.5 is
    rejected, not truncated.
    """
    values = _integers(a, "array value")
    if not values:
        raise InvalidInputError("array must be nonempty")
    # Python ints (an object array), so the scan is exact for any integers
    return _scan(np.array(values, dtype=object), _integer(b, "b ="))


def _nearest(problem: SearchProblem, chosen: int | None = None) -> OracleReport:
    """:func:`classical_nearest` of a problem's values, which construction
    has checked: scanned as int64, exact since construction keeps n < 63.
    Given a ``chosen`` index, ``agreement`` says whether it is a nearest one."""
    return _scan(problem._values[1:], problem.b, chosen)


def _scan(values: np.ndarray, b: int, chosen: int | None = None) -> OracleReport:
    distances = np.abs(values - b)
    best = distances.min()
    tied = tuple((distances == best).nonzero()[0].tolist())
    return OracleReport(tied[0], int(best), tied, None if chosen is None else chosen in tied)


def _cos2_half_angles(n: int, values: tuple[int, ...], b: int) -> list[float]:
    # takes validate_instance's (n, a, b); computed from integer distances so
    # equal distances give bit-equal floats
    return [math.cos(math.pi * abs(b - v) / (1 << (n + 1))) ** 2 for v in values]


def closed_form_paper(a: Sequence[int], b: int, n: int) -> IndexDistribution:
    """Exact index distribution of the two-element direct-rotation scheme.

    P(0) = [cos^2(t0/2) + sin^2(t1/2)] / 2 with t_j = pi (b - a_j) / 2^n;
    both terms are even in the angle, so only distances matter.
    """
    n, values, b = validate_instance(a, b, n)
    if len(values) != 2:
        raise InvalidInputError(f"closed form covers exactly 2 elements, got {len(values)}")
    c0, c1 = _cos2_half_angles(n, values, b)
    p0 = (c0 + (1.0 - c1)) / 2.0
    return IndexDistribution((p0, 1.0 - p0), 1.0, Mode.PAPER)


def closed_form_generalized(a: Sequence[int], b: int, n: int) -> IndexDistribution:
    """Index distribution conditioned on the score qubit reading 0.

    P(j) is proportional to cos^2(t_j/2); the normalizer over m elements is
    the post-selection probability times m. Every weight is positive because
    |t_j| < pi for n-bit values, so post-selection never starves.
    """
    weights = _cos2_half_angles(*validate_instance(a, b, n))
    total = sum(weights)
    return IndexDistribution(
        tuple(w / total for w in weights), total / len(weights), Mode.GENERAL
    )


@dataclass(frozen=True)
class SweepRow:
    """Agreement statistics for one (bit width, element count) cell.

    Agreement rates are over unique-minimum instances; ``ties_attain_min``
    is the fraction of tie decisions that still reach the minimum distance.
    Cells with no qualifying instances report 1.0 vacuously. ``agree_paper``
    is None unless m = 2.
    """

    n: int
    m: int
    instances: int
    unique_minima: int
    agree_general: float
    agree_paper: float | None
    ties_attain_min: float


def _pipeline_decision(n: int, a: tuple[int, ...], b: int, mode: Mode) -> int:
    problem = SearchProblem(n, a, b, mode)
    chosen, _ = decide(index_distribution(run(problem), problem))
    return chosen


def agreement_sweep(
    max_bits: int, max_m: int, count: int, seed: int = 0
) -> list[SweepRow]:
    """Random-instance agreement between the simulator's decision and the scan.

    Runs the general pipeline on every cell and the paper pipeline where
    m = 2, ``count`` instances per (n, m) cell, reproducibly seeded. The
    largest cell's limits are checked before any cell runs: a layout and a
    superposition gate only grow with n and m, so a grid past either limit
    raises :class:`CapacityError` at once.
    """
    max_bits, max_m = _integers((max_bits, max_m), "sweep bound")
    count = _integer(count, "instance count")
    if max_bits < 1 or max_m < 1:
        raise InvalidInputError("sweep bounds must be >= 1")
    if count < 1:
        raise InvalidInputError(f"instance count must be >= 1, got {count}")
    _shape(Mode.GENERAL, max_bits, max_m)
    _matrix_dimension(_index_dimension(max_m))
    rng = np.random.default_rng(_integer(seed, "seed") % (1 << 64))
    rows = []
    for n in range(1, max_bits + 1):
        for m in range(1, max_m + 1):
            unique = agreed_general = agreed_paper = ties = ties_ok = 0
            for _ in range(count):
                a = tuple(rng.integers(0, 1 << n, m).tolist())
                b = rng.integers(0, 1 << n).item()
                report = classical_nearest(a, b)
                decided = _pipeline_decision(n, a, b, Mode.GENERAL)
                decisions = [decided]
                if m == 2:
                    decided_paper = _pipeline_decision(n, a, b, Mode.PAPER)
                    decisions.append(decided_paper)
                if len(report.tied_indices) == 1:
                    unique += 1
                    agreed_general += decided == report.nearest_index
                    if m == 2:
                        agreed_paper += decided_paper == report.nearest_index
                else:
                    for d in decisions:
                        ties += 1
                        ties_ok += abs(b - a[d]) == report.distance
            rows.append(
                SweepRow(
                    n=n,
                    m=m,
                    instances=count,
                    unique_minima=unique,
                    agree_general=agreed_general / unique if unique else 1.0,
                    agree_paper=(agreed_paper / unique if unique else 1.0) if m == 2 else None,
                    ties_attain_min=ties_ok / ties if ties else 1.0,
                )
            )
    return rows


def sweep_table(rows: Sequence[SweepRow]) -> str:
    """Comma-separated table with a header line; '-' marks inapplicable cells."""
    lines = ["n,m,instances,unique_minima,agree_general,agree_paper,ties_attain_min"]
    for r in rows:
        paper = "-" if r.agree_paper is None else repr(r.agree_paper)
        lines.append(
            f"{r.n},{r.m},{r.instances},{r.unique_minima},"
            f"{r.agree_general!r},{paper},{r.ties_attain_min!r}"
        )
    return "\n".join(lines) + "\n"
