from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from conftest import instances
from qnearest import (
    Mode,
    Role,
    SearchProblem,
    agreement_sweep,
    classical_nearest,
    closed_form_generalized,
    closed_form_paper,
    index_distribution,
    run,
    sweep_table,
)
import qnearest.oracle as oracle
from qnearest.errors import CapacityError, InvalidInputError

from test_builder import GENERAL_P, GENERAL_POSTSELECT, PAPER_P


def test_scan_finds_the_nearest_element():
    report = classical_nearest((2, 6), 5)
    assert (report.nearest_index, report.distance, report.tied_indices) == (1, 1, (1,))


def test_scan_exact_match_and_tie():
    assert classical_nearest((7,), 7).distance == 0
    tie = classical_nearest((4, 6), 5)
    assert tie.nearest_index == 0
    assert tie.tied_indices == (0, 1)


def test_scan_rejects_empty_arrays():
    with pytest.raises(InvalidInputError):
        classical_nearest((), 5)


@pytest.mark.parametrize("a,b", [((2.5, 3), 2), ((2, 3), 2.5), ((2, 3), "2")])
def test_scan_rejects_non_integers_instead_of_truncating_them(a, b):
    # (2.5, 3) against 2 used to report index 0 at distance 0
    with pytest.raises(InvalidInputError, match="is not an integer"):
        classical_nearest(a, b)


def test_scan_accepts_numpy_integers():
    report = classical_nearest(np.array([2, 6], dtype=np.int16), np.int64(5))
    assert (report.nearest_index, report.distance, report.tied_indices) == (1, 1, (1,))
    assert type(report.distance) is int


@pytest.mark.parametrize("closed_form", [closed_form_paper, closed_form_generalized])
def test_closed_forms_reject_non_integers_instead_of_truncating_them(closed_form):
    for n, a, b in ((3, (2.9, 6), 5), (3, (2, 6), 5.7), (3.0, (2, 6), 5)):
        with pytest.raises(InvalidInputError, match="is not an integer"):
            closed_form(a, b, n)
    assert closed_form(np.array([2, 6]), np.int64(5), np.int8(3)) == closed_form((2, 6), 5, 3)


def test_paper_closed_form_frozen_values():
    dist = closed_form_paper((2, 6), 5, 3)
    assert np.max(np.abs(np.array(dist.probabilities) - PAPER_P)) <= 1e-15


def test_paper_closed_form_equal_elements():
    assert closed_form_paper((5, 5), 5, 3).probabilities == (0.5, 0.5)


def test_paper_closed_form_complement_symmetry():
    original = closed_form_paper((2, 6), 5, 3).probabilities
    flipped = closed_form_paper((5, 1), 2, 3).probabilities
    assert original == flipped


def test_paper_closed_form_requires_two_elements():
    with pytest.raises(InvalidInputError):
        closed_form_paper((2, 6, 7), 5, 3)
    with pytest.raises(InvalidInputError):
        closed_form_paper((2, 9), 5, 3)


def test_generalized_closed_form_frozen_values():
    dist = closed_form_generalized((2, 6, 5, 0), 5, 3)
    assert np.max(np.abs(np.array(dist.probabilities) - GENERAL_P)) <= 1e-15
    assert dist.postselect_probability == pytest.approx(GENERAL_POSTSELECT, abs=1e-15)


def test_generalized_closed_form_degenerate_cases():
    assert closed_form_generalized((3,), 5, 3).probabilities == (1.0,)
    uniform = closed_form_generalized((5, 5, 5), 5, 3)
    assert uniform.probabilities == pytest.approx((1 / 3,) * 3, abs=1e-15)
    assert uniform.postselect_probability == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(InvalidInputError):
        closed_form_generalized((), 5, 3)


@given(instances(max_bits=5, min_m=2, max_m=2))
def test_paper_closed_form_matches_the_simulator(inst):
    n, a, b = inst
    problem = SearchProblem(n, a, b, Mode.PAPER)
    sim = index_distribution(run(problem), problem)
    closed = closed_form_paper(a, b, n)
    assert np.max(np.abs(np.array(sim.probabilities) - closed.probabilities)) <= 1e-12


@given(instances(max_bits=5, max_m=8))
def test_generalized_closed_form_matches_the_simulator(inst):
    n, a, b = inst
    problem = SearchProblem(n, a, b, Mode.GENERAL)
    sim = index_distribution(run(problem), problem)
    closed = closed_form_generalized(a, b, n)
    assert np.max(np.abs(np.array(sim.probabilities) - closed.probabilities)) <= 1e-12
    assert abs(sim.postselect_probability - closed.postselect_probability) <= 1e-12


def test_a_300_element_general_search_matches_the_closed_form():
    # index digits reach 299, past any 8-bit digit type
    rng = np.random.default_rng(300)
    n, b = 8, 77
    a = tuple(int(v) for v in rng.integers(0, 1 << n, 300))
    problem = SearchProblem(n, a, b, Mode.GENERAL)
    state = run(problem)
    assert state.digits[state.layout.single(Role.INDEX)].max() == 299
    sim = index_distribution(state, problem)
    closed = closed_form_generalized(a, b, n)
    assert np.max(np.abs(np.array(sim.probabilities) - closed.probabilities)) <= 1e-10
    assert abs(sim.postselect_probability - closed.postselect_probability) <= 1e-10


@given(instances(max_bits=6, max_m=10))
def test_probability_is_strictly_monotone_in_distance(inst):
    n, a, b = inst
    probs = closed_form_generalized(a, b, n).probabilities
    for i, vi in enumerate(a):
        for j, vj in enumerate(a):
            if abs(b - vi) < abs(b - vj):
                assert probs[i] > probs[j]
            elif abs(b - vi) == abs(b - vj):
                assert probs[i] == probs[j]


@given(st.integers(2, 6), st.data())
def test_distribution_depends_only_on_distances(n, data):
    b = data.draw(st.integers(0, (1 << n) - 1))
    margin = min(b, (1 << n) - 1 - b)
    assume(margin >= 1)
    m = data.draw(st.integers(1, 6))
    dist_list = data.draw(st.lists(st.integers(0, margin), min_size=m, max_size=m))
    signs = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=m, max_size=m))
    above = tuple(b + s * d for s, d in zip(signs, dist_list))
    below = tuple(b - s * d for s, d in zip(signs, dist_list))
    one = closed_form_generalized(above, b, n)
    other = closed_form_generalized(below, b, n)
    assert one.probabilities == other.probabilities
    assert one.postselect_probability == other.postselect_probability


@settings(max_examples=15)
@given(instances(max_bits=4, max_m=4))
def test_decision_attains_the_minimum_distance(inst):
    n, a, b = inst
    from qnearest import decide

    problem = SearchProblem(n, a, b, Mode.GENERAL)
    chosen, is_tie = decide(index_distribution(run(problem), problem))
    report = classical_nearest(a, b)
    assert abs(b - a[chosen]) == report.distance
    if len(report.tied_indices) == 1:
        assert chosen == report.nearest_index
        assert not is_tie


def test_sweep_reports_full_agreement_on_unique_minima():
    rows = agreement_sweep(max_bits=3, max_m=3, count=25, seed=7)
    assert len(rows) == 9
    for row in rows:
        assert row.agree_general == 1.0
        assert row.ties_attain_min == 1.0
        if row.m == 2:
            assert row.agree_paper == 1.0
        else:
            assert row.agree_paper is None


def test_sweep_is_deterministic():
    first = agreement_sweep(max_bits=2, max_m=2, count=10, seed=3)
    second = agreement_sweep(max_bits=2, max_m=2, count=10, seed=3)
    assert first == second
    assert sweep_table(first) == sweep_table(second)


def test_sweep_table_format():
    rows = agreement_sweep(max_bits=1, max_m=3, count=5, seed=0)
    table = sweep_table(rows).splitlines()
    assert table[0] == "n,m,instances,unique_minima,agree_general,agree_paper,ties_attain_min"
    assert len(table) == 4
    assert table[1].startswith("1,1,5,")
    assert ",-," in table[1]  # no paper column for m = 1


def test_sweep_validates_bounds():
    with pytest.raises(InvalidInputError):
        agreement_sweep(2, 2, 0)
    with pytest.raises(InvalidInputError):
        agreement_sweep(0, 2, 5)


@pytest.mark.parametrize("max_bits, max_m, message", [
    (62, 2, "int64 flat indices stop at"),  # general (62, 2) holds 2^64 amplitudes
    (1, 8193, "67125249 matrix entries"),
])
def test_a_sweep_checks_its_largest_cell_before_it_runs_any(monkeypatch, max_bits, max_m,
                                                            message):
    # both limits grow with n and m, so the largest cell bounds the grid
    ran = []
    monkeypatch.setattr(oracle, "_pipeline_decision", lambda *args: ran.append(args))
    with pytest.raises(CapacityError, match=message):
        agreement_sweep(max_bits, max_m, 1)
    assert ran == []


@pytest.mark.parametrize(
    "args, message",
    [((1, 1, 1, 1.5), "seed 1.5"), ((2, 2, 1.5), "instance count 1.5"),
     ((2.0, 2, 1), "sweep bound 2.0"), ((2, "2", 1), "sweep bound '2'")],
    ids=["seed", "count", "max-bits", "max-m"],
)
def test_sweep_rejects_non_integer_bounds_and_seeds(args, message):
    # a 1.5 seed used to run as seed 1, and a 1.5 count raised a bare TypeError
    with pytest.raises(InvalidInputError, match=f"{message} is not an integer"):
        agreement_sweep(*args)


def test_sweep_accepts_numpy_integers_and_negative_seeds():
    rows = agreement_sweep(np.int64(2), np.uint8(2), np.int32(3), np.int64(-5))
    assert rows == agreement_sweep(2, 2, 3, -5)
    assert all(type(row.instances) is int for row in rows)
    assert agreement_sweep(1, 2, 3, -5) == agreement_sweep(1, 2, 3, (1 << 64) - 5)
