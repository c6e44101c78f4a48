from __future__ import annotations

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

import qnearest.builder as builder
from qnearest import RegisterLayout, Role, Site

hypothesis.settings.register_profile(
    "suite", deadline=None, max_examples=50, derandomize=True
)
hypothesis.settings.load_profile("suite")

# the most elements a full-mode draw takes at each bit width n <= 4
FULL_MAX_M = {1: 16, 2: 8, 3: 5, 4: 3}


@pytest.fixture(autouse=True)
def _no_template_outlives_its_test():
    # a compiled shape's template is memoized for the process; a test that
    # patches a builder function (the rotation signs, say) must not leave a
    # template built from the patch to the tests after it
    yield
    builder._template.cache_clear()


def make_layout(*dims: int) -> RegisterLayout:
    """Generic mixed-radix layout for kernel tests; roles are immaterial here."""
    return RegisterLayout(tuple(Site(Role.COPY, d, f"s{i}") for i, d in enumerate(dims)))


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng: np.random.Generator, total: int) -> np.ndarray:
    v = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    return v / np.linalg.norm(v)


@st.composite
def instances(draw, max_bits: int = 4, min_m: int = 1, max_m: int = 6,
              unique_values: bool = False):
    """A search instance (n, a, b) with every value in [0, 2^n)."""
    n = draw(st.integers(1, max_bits))
    hi = (1 << n) - 1
    if unique_values:
        cap = min(max_m, hi + 1)
        m = draw(st.integers(min(min_m, cap), cap))
        values = draw(st.sets(st.integers(0, hi), min_size=m, max_size=m))
        a = tuple(draw(st.permutations(sorted(values))))
    else:
        m = draw(st.integers(min_m, max_m))
        a = tuple(draw(st.lists(st.integers(0, hi), min_size=m, max_size=m)))
    b = draw(st.integers(0, hi))
    return n, a, b
