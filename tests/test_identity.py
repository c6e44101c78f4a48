"""Bit-identity of the exact distributions over 300 seeded requests.

``tests/golden/identity.txt`` holds one line per request, ``mode n b a
digest``, where ``digest`` is the first 16 hex digits of the SHA-256 of
``repr(probabilities) + repr(postselect_probability)``. A kernel or
measurement change that moves any probability by one ulp changes a digest.
The requests are 100 per mode, drawn from fixed seeds: paper n <= 12;
general n <= 10, m <= 70; full n <= 3, m <= 5.

Regenerate (only when a change is meant to move the floats) with
``python tests/test_identity.py``.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from conftest import FULL_MAX_M
from qnearest import Mode, SearchProblem, index_distribution, run

GOLDEN = Path(__file__).resolve().parent / "golden" / "identity.txt"
PER_MODE = 100
# mode: (seed, max n, min m, max m)
DRAWS = {Mode.PAPER: (11, 12, 2, 2), Mode.GENERAL: (12, 10, 1, 70), Mode.FULL: (13, 3, 1, 5)}


def requests() -> list[tuple[Mode, int, int, tuple[int, ...]]]:
    """The seeded ``(mode, n, b, a)`` requests, in file order."""
    out = []
    for mode, (seed, max_n, min_m, max_m) in DRAWS.items():
        rng = random.Random(seed)
        for _ in range(PER_MODE):
            n = rng.randint(1, max_n)
            m = rng.randint(min_m, max_m)
            hi = (1 << n) - 1
            a = tuple(rng.randint(0, hi) for _ in range(m))
            out.append((mode, n, rng.randint(0, hi), a))
    return out


def digest(mode: Mode, n: int, b: int, a: tuple[int, ...]) -> str:
    problem = SearchProblem(n, a, b, mode)
    dist = index_distribution(run(problem), problem)
    text = repr(dist.probabilities) + repr(dist.postselect_probability)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _line(mode: Mode, n: int, b: int, a: tuple[int, ...]) -> str:
    return f"{mode.value} {n} {b} {','.join(map(str, a))}"


def _golden() -> list[tuple[str, str]]:
    rows = GOLDEN.read_text(encoding="utf-8").splitlines()
    return [tuple(row.rsplit(" ", 1)) for row in rows if not row.startswith("#")]


def test_the_golden_file_lists_the_seeded_requests():
    assert [line for line, _ in _golden()] == [_line(*req) for req in requests()]


@pytest.mark.parametrize("mode", list(Mode))
def test_distributions_are_bit_identical_to_the_golden_digests(mode):
    expected = dict(_golden())
    for req in requests():
        if req[0] is mode:
            assert digest(*req) == expected[_line(*req)], _line(*req)


def test_full_mode_equals_the_compiled_mode_bit_for_bit():
    # full mode runs the compiled mode's two tables, each entry also on its
    # wire, from the same superposed support, so every float is the same
    for mode, n, b, a in requests():
        if mode is Mode.FULL:
            _assert_full_is_compiled(n, a, b)


def _assert_full_is_compiled(n: int, a: tuple[int, ...], b: int) -> None:
    full = SearchProblem(n, a, b, Mode.FULL)
    compiled = SearchProblem(n, a, b, Mode.PAPER if len(a) == 2 else Mode.GENERAL)
    ours, theirs = run(full), run(compiled)
    assert np.array_equal(ours.values, theirs.values), (n, a, b)
    assert index_distribution(ours, full).probabilities == \
        index_distribution(theirs, compiled).probabilities, (n, a, b)
    assert index_distribution(ours, full).postselect_probability == \
        index_distribution(theirs, compiled).postselect_probability, (n, a, b)


@given(data=st.data())
def test_full_mode_equals_the_compiled_mode_bit_for_bit_on_any_shape(data):
    # n <= 4 and m up to the full-mode bound the dump pin draws from
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, FULL_MAX_M[n]))
    values = st.integers(0, (1 << n) - 1)
    _assert_full_is_compiled(n, tuple(data.draw(st.lists(values, min_size=m, max_size=m))),
                             data.draw(values))


def test_only_searches_turning_the_index_qubit_group_their_support(monkeypatch):
    # paper mode and full mode with m = 2 turn the index qubit, which holds
    # both digits, so their support is grouped (np.unique); every other
    # search turns a score qubit reading 0, where each entry is its own
    # column and grouping is skipped. No benchmark workload runs the
    # grouped path, so it is pinned here, together with its digests.
    import qnearest.state as state_module

    grouped = []
    original = state_module._fibres

    def spy(digits, values, target, d, strides):
        grouped.append(bool(digits[target].any()))
        return original(digits, values, target, d, strides)

    monkeypatch.setattr(state_module, "_fibres", spy)
    expected = dict(_golden())
    seen = {True: 0, False: 0}
    for req in requests():
        mode, _, _, a = req
        turns_index = mode is Mode.PAPER or (mode is Mode.FULL and len(a) == 2)
        grouped.clear()
        assert digest(*req) == expected[_line(*req)], _line(*req)
        assert grouped == [turns_index] * len(grouped), _line(*req)
        seen[turns_index] += bool(grouped)
    assert seen[True] >= 100 and seen[False] >= 150


if __name__ == "__main__":
    lines = ["# mode n b a sha256(repr(probabilities) + repr(postselect_probability))[:16]"]
    lines += [f"{_line(*req)} {digest(*req)}" for req in requests()]
    GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")
