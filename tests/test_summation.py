"""Compensated summation against exact oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphdesign.summation import comp_sum


def test_empty_and_single():
    assert comp_sum(np.array([])) == 0.0
    assert comp_sum(np.array([3.5])) == 3.5


def test_matches_fsum_small():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(513) * 10.0 ** rng.integers(-8, 8, 513)
    assert comp_sum(x) == math.fsum(x)


def test_matches_fsum_large_blocked():
    # exercises the blocked path (more than one lane block)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(100003) * 10.0 ** rng.integers(-10, 10, 100003)
    assert comp_sum(x) == pytest.approx(math.fsum(x), rel=0, abs=1e-9)


def test_cancellation():
    # naive summation loses all digits here; compensated keeps them
    x = np.array([1e16, 1.0, -1e16, 1.0] * 4000)
    assert comp_sum(x) == 8000.0


def test_order_determinism():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(5000)
    assert comp_sum(x) == comp_sum(x.copy())


def test_axis_sums_each_row_alone():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((3, 4, 1500)) * 10.0 ** rng.integers(
        -8, 8, (3, 4, 1500))
    for axis in (0, 1, 2, -1):
        got = comp_sum(x, axis=axis)
        rows = np.moveaxis(x, axis, -1)
        assert got.shape == rows.shape[:-1]
        assert all(got[i] == comp_sum(rows[i]) for i in np.ndindex(got.shape))
    assert np.array_equal(comp_sum(np.zeros((4, 0)), axis=1), np.zeros(4))


@given(st.lists(st.floats(min_value=-1e12, max_value=1e12,
                          allow_nan=False), max_size=300))
@settings(max_examples=50, deadline=None)
def test_agrees_with_fsum_property(values):
    x = np.array(values, dtype=float)
    expect = math.fsum(values)
    assert comp_sum(x) == pytest.approx(expect, rel=1e-15, abs=1e-6)
