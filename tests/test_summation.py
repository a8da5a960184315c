"""Correctly rounded summation against math.fsum."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphdesign.summation import (_CHUNK, _FSUM_ELEMENTS, _certified_sums,
                                 comp_sum)


def _bits(x):
    return float(x).hex()


def _hard_rows(R, n, seed):
    """R rows of n floats, in turn: plain, exponents spread over +-300,
    heavy cancellation, near a rounding midpoint, and mirrored to an
    exact zero."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((R, n))
    x[1::5] *= 10.0 ** rng.integers(-300, 300, x[1::5].shape)
    x[2::5] *= 10.0 ** rng.integers(-8, 8, x[2::5].shape)
    x[2::5, 0] -= x[2::5].sum(axis=1)
    x[2::5, -1] -= x[2::5].sum(axis=1)
    x[3::5] = 0.0
    x[3::5, 0] = 1.0
    if n > 1:
        x[3::5, 1] = 2.0 ** -53  # the midpoint of 1 and its successor
    if n > 2:
        x[3::5, 2] = rng.choice([-1.0, 1.0], x[3::5, 2].shape) * 2.0 ** -200
    half = n // 2
    x[4::5, half:2 * half] = -x[4::5, :half]
    return x


def _fsum_or_error(row):
    try:
        return _bits(math.fsum(row))
    except (ValueError, OverflowError) as exc:
        return type(exc)


def test_empty_and_single():
    assert comp_sum(np.array([])) == 0.0
    assert comp_sum(np.array([3.5])) == 3.5


def test_matches_fsum_small():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(513) * 10.0 ** rng.integers(-8, 8, 513)
    assert comp_sum(x) == math.fsum(x)


def test_matches_fsum_large_blocked():
    # a row of several column chunks of the certified path
    rng = np.random.default_rng(7)
    x = rng.standard_normal(100003) * 10.0 ** rng.integers(-10, 10, 100003)
    assert _bits(comp_sum(x)) == _bits(math.fsum(x))


def test_cancellation():
    # naive summation loses all digits here; the correctly rounded sum
    # keeps them
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
    assert comp_sum(np.zeros((0, 3 * _CHUNK)), axis=1).shape == (0,)


@given(st.lists(st.floats(min_value=-1e12, max_value=1e12,
                          allow_nan=False), max_size=300))
@settings(max_examples=50, deadline=None)
def test_agrees_with_fsum_property(values):
    x = np.array(values, dtype=float)
    assert comp_sum(x) == math.fsum(values)


@pytest.mark.parametrize("R,n", [
    (_FSUM_ELEMENTS // 16 - 1, 16), (_FSUM_ELEMENTS // 16, 16),
    (1, 1023), (1, 1024), (2, 1024), (40, 1024), (300, 3),
    (2000, 18), (399, 202)])
def test_rows_have_fsum_bits(R, n):
    # each side of the fsum/certified size threshold, and many rows of
    # one certified pass
    x = _hard_rows(R, n, seed=R * n)
    got = comp_sum(x, axis=1)
    assert [_bits(v) for v in got] == [_bits(math.fsum(row)) for row in x]
    assert _bits(comp_sum(x[-1])) == _bits(math.fsum(x[-1]))


@pytest.mark.parametrize("scale", [2.0 ** -1000, 2.0 ** -1060, 2.0 ** 900])
def test_rows_near_underflow_and_overflow_have_fsum_bits(scale):
    x = _hard_rows(400, 8, seed=3)
    x = x / np.max(np.abs(x), axis=1, keepdims=True) * scale
    got = comp_sum(x, axis=1)
    assert [_bits(v) for v in got] == [_bits(math.fsum(row)) for row in x]


def test_certificate_never_holds_for_a_wrong_sum():
    x = _hard_rows(500, 64, seed=5)
    total, certified = _certified_sums(x)
    expect = [math.fsum(row) for row in x]
    assert all(_bits(total[i]) == _bits(expect[i])
               for i in np.flatnonzero(certified))
    # both outcomes occur: the midpoint rows cannot be certified
    assert certified.any() and not certified.all()
    assert not certified[3::5].any()


def test_remainders_of_every_chunk_count():
    # the tiny values of the first column chunk reach the sum only as
    # remainders; 1 and -1 in the last chunk cancel, and the sum they
    # leave, 2^-30 plus those remainders, is certified
    rng = np.random.default_rng(4)
    x = np.zeros(2 * _CHUNK + 12)
    x[:_CHUNK] = rng.uniform(0.5, 1.0, _CHUNK) * 2.0 ** -72
    x[-3:] = [1.0, -1.0, 2.0 ** -30]
    total, certified = _certified_sums(x[None, :])
    assert certified[0]
    assert _bits(total[0]) == _bits(math.fsum(x)) != _bits(2.0 ** -30)


@pytest.mark.parametrize("n", [
    1025, 1302, 2049, _CHUNK - 1, _CHUNK, _CHUNK + 1, 100003, 1302 ** 2])
def test_long_rows_have_fsum_bits(n):
    # rows of one and of many column chunks, up to the pair sum of
    # 1302 points, each in its own pass or several to a pass
    R = 3 if n > 10 ** 6 else 5 if n > 10000 else 40
    x = _hard_rows(R, n, seed=n)
    got = comp_sum(x, axis=1)
    assert [_bits(v) for v in got] == [_bits(math.fsum(row)) for row in x]


@pytest.mark.filterwarnings("error")  # and no numpy warning on the way
@pytest.mark.parametrize("R", [1, 200])
@pytest.mark.parametrize("bad", [
    [math.inf], [math.nan], [math.inf, -math.inf], [-math.inf, math.nan],
    [1.7e308, 1.7e308], [1.7e308, -1.7e308], [1.7e308, 1e300],
    [1.7e308, 1.7e308, -1.7e308], [-1.7e308, -1e292]])
def test_nonfinite_rows_act_as_fsum(R, bad):
    # a lone row takes the fsum path; among 200 rows the certified one;
    # then one or two long rows, the bad values in a later column chunk
    rng = np.random.default_rng(len(bad))
    x = rng.standard_normal((R, 12))
    x[R // 2, :len(bad)] = bad
    _assert_acts_as_fsum(x)
    x = rng.standard_normal((min(R, 2), 2 * _CHUNK + 12))
    x[-1, _CHUNK + 5:_CHUNK + 5 + len(bad)] = bad
    _assert_acts_as_fsum(x)


def _assert_acts_as_fsum(x):
    expect = [_fsum_or_error(row) for row in x.tolist()]
    errors = [e for e in expect if isinstance(e, type)]
    if errors:
        with pytest.raises(errors[0]):
            comp_sum(x, axis=1)
    else:
        assert [_bits(v) for v in comp_sum(x, axis=1)] == expect
