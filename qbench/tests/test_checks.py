"""The checker accepts correct responses and flags perturbed ones."""

from dataclasses import replace

import pytest

import checks
from qnearest.builder import Mode
from qnearest.cli import SearchRequest, render_search_document, run_search

GENERAL = SearchRequest(3, 5, (2, 6, 5, 0), Mode.GENERAL)


def problems_of(request, response, compiled=None):
    return checks.check_response(request, response, render_search_document(response),
                                 checks.expected_distribution(request), compiled)


@pytest.mark.parametrize("request_", [
    GENERAL,
    SearchRequest(3, 5, (2, 6), Mode.PAPER),
    SearchRequest(2, 1, (0, 3, 2), Mode.FULL),
    SearchRequest(4, 9, (1, 12, 7), Mode.GENERAL, shots=20000, seed=3),
])
def test_correct_responses_pass(request_):
    problems, err = checks.verify(request_, run_search(request_), rerun_sample=True)
    assert problems == []
    assert err <= checks.TOLERANCE


def test_perturbed_distribution_is_flagged():
    resp = run_search(GENERAL)
    p = list(resp.probabilities)
    p[0] += 1e-8
    p[1] -= 1e-8
    problems = problems_of(GENERAL, replace(resp, probabilities=tuple(p)))
    assert any("closed form" in msg for msg in problems)


def test_wrong_decision_is_flagged():
    resp = run_search(GENERAL)
    assert checks.tied_set(GENERAL.a, GENERAL.b) == {2}
    problems = problems_of(GENERAL, replace(resp, argmax=1))
    assert any("not among nearest" in msg for msg in problems)


def test_document_mismatch_is_flagged():
    resp = run_search(GENERAL)
    document = render_search_document(replace(resp, argmax=0))
    problems = checks.check_response(GENERAL, resp, document,
                                     checks.expected_distribution(GENERAL))
    assert any("document argmax" in msg for msg in problems)


def test_full_mode_mismatch_with_compiled_mode_is_flagged():
    request = SearchRequest(2, 1, (0, 3, 2), Mode.FULL)
    resp = run_search(request)
    compiled = list(resp.probabilities)
    compiled[0] += 1e-9
    compiled[2] -= 1e-9
    problems = problems_of(request, resp, compiled)
    assert any("compiled mode" in msg for msg in problems)


def test_biased_counts_are_flagged():
    request = SearchRequest(4, 9, (1, 12, 7), Mode.GENERAL, shots=200000, seed=5)
    resp = run_search(request)
    counts = dict(resp.counts.counts)
    counts[0] += 2000
    counts[1] -= 2000
    biased = replace(resp, counts=replace(resp.counts, counts=counts))
    assert any("index 0" in msg for msg in problems_of(request, biased))
