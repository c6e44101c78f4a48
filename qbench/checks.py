"""Correctness checks applied to every search the benchmark makes.

A response passes when its distribution matches the closed form, its
decision is one of the classical scan's nearest indices, its rendered
document carries the same numbers, a ``full``-mode result matches the
compiled mode, and sampled counts are consistent with the exact
distribution. Any problem counts the search as failed.
"""

from __future__ import annotations

import math
from dataclasses import replace

import qnearest.cli as cli
import qnearest.measure as measure
import qnearest.oracle as oracle
from qnearest.builder import Mode

TOLERANCE = 1e-10
# Each index's count is checked against its exact probability. At 3 sigma a
# correct sampler would fail one of 16 indices on about 4% of searches; at 6
# sigma the false-alarm rate is about 2e-9 per index, while a bias of 0.1%
# in any probability is still caught at 2,000,000 shots.
SHOT_SIGMAS = 6.0


def tied_set(a, b) -> set[int]:
    """Indices at the minimum distance from ``b``, by integer scan."""
    distances = [abs(b - v) for v in a]
    best = min(distances)
    return {j for j, d in enumerate(distances) if d == best}


def compiled_mode(request) -> Mode:
    """The mode that compiles the classical inputs away for this element count."""
    return Mode.PAPER if len(request.a) == 2 else Mode.GENERAL


def expected_distribution(request):
    """Closed-form distribution for the request's mode."""
    if request.mode is Mode.PAPER or (request.mode is Mode.FULL and len(request.a) == 2):
        return oracle.closed_form_paper(request.a, request.b, request.n)
    return oracle.closed_form_generalized(request.a, request.b, request.n)


def max_error(got, want) -> float:
    if len(got) != len(want):
        return math.inf
    return max(abs(p - q) for p, q in zip(got, want))


def parse_document(text: str) -> dict[str, str]:
    fields = {}
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        fields[key] = value
    return fields


def check_document(document: str, response) -> list[str]:
    fields = parse_document(document)
    req = response.request
    want = {
        "n": str(req.n),
        "b": str(req.b),
        "a": ",".join(str(v) for v in req.a),
        "probabilities": ",".join(repr(float(p)) for p in response.probabilities),
        "argmax": str(response.argmax),
    }
    return [f"document {k} = {fields.get(k)!r}, expected {v!r}"
            for k, v in want.items() if fields.get(k) != v]


def check_counts(counts, shots: int, probabilities, postselect: float,
                 sigmas: float = SHOT_SIGMAS) -> list[str]:
    """Sampled counts against the exact distribution, within ``sigmas``
    binomial standard deviations for acceptance and for each index."""
    problems = []
    accepted = counts.shots
    if accepted + counts.rejected != shots:
        problems.append(f"{accepted} accepted + {counts.rejected} rejected != {shots} shots")
    if sum(counts.counts.values()) != accepted:
        problems.append(f"counts sum to {sum(counts.counts.values())}, not {accepted}")
    q = min(postselect, 1.0)
    if abs(accepted - shots * q) > sigmas * math.sqrt(shots * q * (1 - q)):
        problems.append(f"{accepted} of {shots} accepted, expected {shots * q:.1f}")
    for j, p in enumerate(probabilities):
        got = counts.counts.get(j, 0)
        if abs(got - accepted * p) > sigmas * math.sqrt(accepted * p * (1 - p)):
            problems.append(f"index {j}: {got} counts, expected {accepted * p:.1f}")
    return problems


def check_response(request, response, document: str, expected, compiled=None) -> list[str]:
    """Problems with one response; ``expected`` is the closed-form
    distribution and ``compiled`` the compiled mode's probabilities."""
    problems = []
    probs = response.probabilities
    err = max_error(probs, expected.probabilities)
    if not err <= TOLERANCE:
        problems.append(f"distribution differs from the closed form by {err:.3e}")
    err = abs(response.postselect_probability - expected.postselect_probability)
    if not err <= TOLERANCE:
        problems.append(f"post-selection probability differs by {err:.3e}")
    if compiled is not None:
        err = max_error(probs, compiled)
        if not err <= TOLERANCE:
            problems.append(f"full mode differs from the compiled mode by {err:.3e}")
    tied = tied_set(request.a, request.b)
    if response.argmax not in tied:
        problems.append(f"decision {response.argmax} not among nearest indices {sorted(tied)}")
    problems += check_document(document, response)
    if request.shots is not None:
        if response.counts is None:
            problems.append("no counts for a sampling request")
        else:
            problems += check_counts(response.counts, request.shots, probs,
                                     response.postselect_probability)
    return problems


def verify(request, response, rerun_sample: bool = False) -> tuple[list[str], float]:
    """Check one response through the program's own public functions.

    Returns the problems found and the largest deviation from the closed
    form. With ``rerun_sample`` the sampling is repeated with the same seed
    and must give identical counts.
    """
    expected = expected_distribution(request)
    compiled = None
    if request.mode is Mode.FULL:
        compiled = cli.run_search(replace(request, mode=compiled_mode(request))).probabilities
    document = cli.render_search_document(response)
    problems = check_response(request, response, document, expected, compiled)
    if rerun_sample and response.counts is not None:
        dist = measure.IndexDistribution(response.probabilities,
                                         response.postselect_probability, request.mode)
        again = measure.sample(dist, request.shots, request.seed)
        if (again.counts, again.rejected) != (response.counts.counts, response.counts.rejected):
            problems.append("re-sampling with the same seed gave different counts")
    return problems, max_error(response.probabilities, expected.probabilities)
