"""A circuit's structure is checked once per shape (mode, n, m), in its
template, and each search binds its values to it as arrays: the bound steps
equal the checked ``Circuit`` form, and a bad value still fails. Full mode
binds the same two tables, each entry also on its wire."""

from __future__ import annotations

import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

import qnearest.builder as builder
import qnearest.measure as measure
import qnearest.oracle as oracle
import qnearest.state as state
from conftest import instances
from qnearest import (
    Circuit,
    CircuitGate,
    IndexDistribution,
    Mode,
    MultiplexedFlip,
    MultiplexedRotation,
    RegisterLayout,
    Role,
    SearchProblem,
    build_circuit,
    classical_nearest,
    execute_circuit,
    index_distribution,
    rotation_schedule,
    run,
    superposition_gates,
    uses_score,
)
from qnearest.cli import SearchRequest, run_search
from qnearest.errors import InvalidInputError


def _checked_circuit(problem: SearchProblem) -> Circuit:
    """The problem's circuit built through the public, checked constructors,
    row by row from its bits, as it was before templates; in full mode each
    flip and rotation row is also controlled on its wire, and the wires
    start at the values' bits."""
    layout, n, full = problem.layout, problem.n, problem.mode is Mode.FULL
    index, copies = layout.single(Role.INDEX), layout.sites_of(Role.COPY)
    refs, arrs = layout.sites_of(Role.REFERENCE), layout.sites_of(Role.ARRAY)
    parity = np.zeros((layout.dims[index], len(layout.sites)), dtype=np.uint8)
    parity[: problem.m, list(copies)] = problem.bit_table
    wires = None
    if full:  # array wire (j, k) on every element's index digit j and copy site k
        wires = np.full(parity.shape, -1)
        wires[: problem.m, list(copies)] = np.reshape(arrs, (problem.m, n))
    steps = superposition_gates(problem, layout) + (MultiplexedFlip(index, parity, wires),)
    b_bits = [(problem.b >> (n - 1 - k)) & 1 for k in range(n)]
    rows = [k for k in range(n) if any((v >> (n - 1 - k)) & 1 != b_bits[k] for v in problem.a)]
    weights = rotation_schedule(n)
    target = layout.single(Role.SCORE if uses_score(problem) else Role.INDEX)
    if rows:
        steps += (MultiplexedRotation(target, [(copies[k], 1 - b_bits[k]) for k in rows],
                                      [weights[k] if b_bits[k] else -weights[k] for k in rows],
                                      [(refs[k], b_bits[k]) for k in rows] if full else None),)
    digits = [0] * len(layout.sites)
    if full:
        for site, bit in zip(refs + arrs, b_bits + [bit for v in problem.a for bit in
                                                     ((v >> (n - 1 - k)) & 1 for k in range(n))]):
            digits[site] = bit
    return Circuit(layout, digits, steps)


def _counting(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("mode, a", [(Mode.PAPER, (2, 6)), (Mode.GENERAL, (2, 6, 5)),
                                     (Mode.FULL, (2, 6, 5))])
def test_the_second_search_of_a_shape_checks_no_structure(monkeypatch, mode, a):
    calls = {}
    _counting(monkeypatch, state, "check_gate_sites", calls)
    _counting(monkeypatch, MultiplexedFlip, "check", calls)
    _counting(monkeypatch, MultiplexedRotation, "check", calls)
    _counting(monkeypatch, CircuitGate, "__init__", calls)
    builder._template.cache_clear()
    run_search(SearchRequest(3, 5, a, mode))
    assert calls["check_gate_sites"] > 0 and calls["check"] == 3  # one flip, two rotation tables
    calls.clear()
    run_search(SearchRequest(3, 1, a[::-1], mode))
    assert calls == {}


@pytest.mark.parametrize("mode, a", [(Mode.PAPER, (2, 6)), (Mode.GENERAL, (2, 6, 5)),
                                     (Mode.FULL, (2, 6, 5))])
def test_the_second_search_of_a_shape_recomputes_no_shape_fact(monkeypatch, mode, a):
    # the capacity check, the start's squared norm and the index and score
    # sites are worked out once per shape, not once per search
    calls = {}
    _counting(monkeypatch, builder, "_check_capacity", calls)
    _counting(monkeypatch, builder, "squared_norm", calls)
    _counting(monkeypatch, RegisterLayout, "single", calls)
    builder._shape.cache_clear()
    builder._template.cache_clear()
    run_search(SearchRequest(3, 5, a, mode))
    assert calls.keys() == {"_check_capacity", "squared_norm", "single"}
    calls.clear()
    run_search(SearchRequest(3, 1, a[::-1], mode))
    assert calls == {}


@pytest.mark.parametrize("mode", list(Mode))
@given(data=st.data())
def test_a_problem_holds_its_values_and_bits_read_only(mode, data):
    max_bits, min_m, max_m = {Mode.PAPER: (20, 2, 2), Mode.GENERAL: (20, 1, 12),
                              Mode.FULL: (3, 1, 4)}[mode]
    n, a, b = data.draw(instances(max_bits=max_bits, min_m=min_m, max_m=max_m))
    problem = SearchProblem(n, a, b, mode)
    by_hand = [[(v >> (n - 1 - k)) & 1 for k in range(n)] for v in (b, *a)]
    for name, dtype, expected in (("_values", np.int64, [b, *a]), ("_bits", np.uint8, by_hand),
                                  ("bit_table", np.uint8, by_hand[1:])):
        array = getattr(problem, name)
        assert array.dtype == dtype and not array.flags.writeable, name
        assert array.tolist() == expected, name


STEP_ARRAYS = {
    MultiplexedFlip: ("control", "parity", "wires"),
    MultiplexedRotation: ("target", "controls", "angles", "wires"),
}


@pytest.mark.parametrize("mode", [Mode.PAPER, Mode.GENERAL, Mode.FULL])
@given(data=st.data())
def test_template_bound_steps_equal_the_checked_circuit(mode, data):
    max_bits, min_m, max_m = {Mode.PAPER: (12, 2, 2), Mode.GENERAL: (12, 1, 40),
                              Mode.FULL: (3, 1, 5)}[mode]
    n, a, b = data.draw(instances(max_bits=max_bits, min_m=min_m, max_m=max_m))
    problem = SearchProblem(n, a, b, mode)
    bound, checked = build_circuit(problem), _checked_circuit(problem)
    assert bound.layout is checked.layout and bound.initial_digits == checked.initial_digits
    assert len(bound.steps) == len(checked.steps)
    if problem.m > 1:
        # the same gate by value: a memoized Fourier gate may have been rebuilt since
        # the template took it, when a draw cycled over more element counts than its memo keeps
        ours, theirs = bound.steps[0], checked.steps[0]
        assert (ours.controls, ours.target, ours.gate.label) == \
            (theirs.controls, theirs.target, theirs.gate.label)
        assert np.array_equal(ours.gate.matrix, theirs.gate.matrix)
    for ours, theirs in zip(bound.steps, checked.steps):
        assert type(ours) is type(theirs)
        for name in STEP_ARRAYS.get(type(ours), ()):
            ours_value, theirs_value = getattr(ours, name), getattr(theirs, name)
            assert (ours_value is None) == (theirs_value is None) == (mode is not Mode.FULL) \
                or "wire" not in name, name
            if isinstance(theirs_value, np.ndarray):
                assert ours_value.dtype == theirs_value.dtype, name
                assert not ours_value.flags.writeable, name
            assert np.array_equal(ours_value, theirs_value), name
    assert bound.dump() == checked.dump()
    ours, theirs = execute_circuit(bound), execute_circuit(checked)
    assert np.array_equal(ours.digits, theirs.digits)
    assert np.array_equal(ours.values, theirs.values)


def test_a_bound_table_still_passes_a_circuits_checks():
    # a search's tables, handed to a hand-built circuit, pass its checks
    problem = SearchProblem(4, (3, 9, 12), 6)
    steps = build_circuit(problem).steps
    assert Circuit(problem.layout, (0,) * len(problem.layout.sites), steps).dump() == \
        build_circuit(problem).dump()


def _with_bits(problem: SearchProblem, bits: np.ndarray) -> SearchProblem:
    # below the template: a bit table that construction could never produce
    problem.__dict__["_bits"] = bits
    return problem


def test_a_two_in_the_flip_rows_is_rejected_when_bound():
    bits = SearchProblem(3, (2, 6), 5)._bits.copy()
    bits[1, 0] = 2
    with pytest.raises(InvalidInputError, match="multiplexed flip: parity table entries"):
        build_circuit(_with_bits(SearchProblem(3, (2, 6), 5), bits))


def test_a_nan_angle_is_rejected_when_bound(monkeypatch):
    problem = SearchProblem(3, (2, 6), 5, Mode.PAPER)
    template = problem._shape_template
    signed = template.signed.copy()
    signed[:, 0] = math.nan
    monkeypatch.setattr(builder, "_template", lambda *key: template._replace(signed=signed))
    with pytest.raises(InvalidInputError, match="multiplexed rotation: angles must be finite"):
        build_circuit(SearchProblem(3, (2, 6), 5, Mode.PAPER))


def _with_digit(pairs: np.ndarray, digit: int) -> np.ndarray:
    # the template's first two pairs, the second read at ``digit``, as uint8
    pairs = pairs[:2].astype(np.uint8)
    pairs[1, 1] = digit
    return pairs


@pytest.mark.parametrize("digit", [2, 255])
def test_an_out_of_range_digit_is_rejected_when_bound(digit):
    # a search reads its control digits off the template's checked pair
    # table; any other digit on a copy qubit fails a circuit's check
    problem = SearchProblem(3, (2, 6), 5)
    template, site = problem._shape_template, problem._shape_template.controls[0, 1, 0]
    table = MultiplexedRotation(template.target, _with_digit(template.controls[0], digit),
                                template.signed[0, :2])
    message = f"control digit {digit} out of range for site {site}"
    with pytest.raises(InvalidInputError, match=message):
        Circuit(problem.layout, (0,) * len(problem.layout.sites), (table,))


def test_a_bad_value_below_the_full_template_is_rejected(monkeypatch):
    # full mode binds its tables as the compiled modes do, wires included,
    # and checks each value that could break them
    bits = SearchProblem(3, (2, 6), 5, Mode.FULL)._bits.copy()
    bits[1, 0] = 2
    with pytest.raises(InvalidInputError, match="multiplexed flip: parity table entries"):
        build_circuit(_with_bits(SearchProblem(3, (2, 6), 5, Mode.FULL), bits))
    template = SearchProblem(3, (2, 6), 5, Mode.FULL)._shape_template
    signed = template.signed.copy()
    signed[:, 0] = math.nan
    monkeypatch.setattr(builder, "_template", lambda *key: template._replace(signed=signed))
    with pytest.raises(InvalidInputError, match="multiplexed rotation: angles must be finite"):
        build_circuit(SearchProblem(3, (2, 6), 5, Mode.FULL))


@pytest.mark.parametrize("digit", [2, 255])
def test_an_out_of_range_wire_digit_is_rejected_when_bound(digit):
    problem = SearchProblem(3, (2, 6), 5, Mode.FULL)
    template, site = problem._shape_template, problem._shape_template.references[0, 1, 0]
    table = MultiplexedRotation(template.target, template.controls[0, :2], template.signed[0, :2],
                                _with_digit(template.references[0], digit))
    message = f"control digit {digit} out of range for site {site}"
    with pytest.raises(InvalidInputError, match=message):
        Circuit(problem.layout, (0,) * len(problem.layout.sites), (table,))


def test_a_wide_template_checks_its_tables_in_array_form(monkeypatch):
    # the tables' checks test every entry at once: a general (14, 512)
    # template, with 7,168 flips, lists no more gates to check_gate_sites
    # than a general (3, 4) one
    calls, counts = {}, []
    _counting(monkeypatch, state, "check_gate_sites", calls)
    for n, m in ((3, 4), (14, 512)):
        calls.clear()
        builder._template.cache_clear()
        builder._template(Mode.GENERAL, n, m)
        counts.append(calls["check_gate_sites"])
    assert counts[1] <= counts[0]


def test_a_search_checks_its_shot_count_and_values_once(monkeypatch):
    calls = {}
    _counting(monkeypatch, measure, "check_shots", calls)
    monkeypatch.setattr("qnearest.cli.check_shots", measure.check_shots)
    _counting(monkeypatch, oracle, "_integer", calls)
    _counting(monkeypatch, oracle, "_integers", calls)
    run_search(SearchRequest(3, 5, (2, 6, 5), shots=100, seed=3))
    assert calls == {"check_shots": 1}


@given(instances(max_bits=58, max_m=12), st.sampled_from([Mode.PAPER, Mode.GENERAL]))
def test_the_search_scan_is_the_public_scan(instance, mode):
    # general (58, 12) is near the widest general layout int64 flat indices reach
    n, a, b = instance
    if mode is Mode.PAPER:
        a = (a * 2)[:2]
    assert oracle._nearest(SearchProblem(n, a, b, mode)) == classical_nearest(a, b)


@pytest.mark.parametrize("mode, n, a, b", [
    (Mode.GENERAL, 60, ((1 << 60) - 1, 0), (1 << 59)),
    (Mode.GENERAL, 60, ((1 << 60) - 1, 1), 0),
    (Mode.PAPER, 61, ((1 << 61) - 1, 0), (1 << 61) - 1),
    (Mode.PAPER, 61, ((1 << 61) - 2, 2), (1 << 60)),
])
def test_the_search_scan_is_exact_at_the_widest_problems(mode, n, a, b):
    # the widest problems that construct: ties and near-ties of 2^60-sized distances
    report = oracle._nearest(SearchProblem(n, a, b, mode))
    assert report == classical_nearest(a, b)
    assert report.distance == min(abs(b - v) for v in a)


@pytest.mark.parametrize("mode, a", [(Mode.PAPER, (2, 6)), (Mode.GENERAL, (2, 6, 5, 0))])
def test_the_array_built_distribution_is_the_public_one(mode, a):
    problem = SearchProblem(3, a, 5, mode)
    dist = index_distribution(run(problem), problem)
    assert all(type(p) is float for p in dist.probabilities)
    assert dist == IndexDistribution(dist.probabilities, dist.postselect_probability, mode)


@pytest.mark.parametrize("probs, message", [
    ([math.nan, 1.0], "negative or NaN probability"),
    ([-0.5, 1.5], "negative or NaN probability"),
    ([0.5, 0.25], "sum to 0.75"),
    ([], "at least one index"),
])
def test_an_array_built_distribution_keeps_every_check(probs, message):
    with pytest.raises(InvalidInputError, match=message):
        IndexDistribution._from_array(np.array(probs, dtype=np.float64), 1.0, Mode.GENERAL)
    with pytest.raises(InvalidInputError, match=message):
        IndexDistribution(tuple(probs))
