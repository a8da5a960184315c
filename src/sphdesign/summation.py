"""Deterministic compensated summation.

Large double sums over point pairs cancel heavily (diagonal against
off-diagonal terms), so plain accumulation loses digits.  An input of
at most BLOCK entries goes through math.fsum and is correctly rounded.
A longer one is split into fixed-width blocks, summed by a compensated
(Kahan) accumulation vectorized across the block lanes, and the lane
totals and corrections are combined by math.fsum.  The reduction
shape depends only on the input length, so the result is bitwise
reproducible.  Summing along an axis treats every row as its own
input: each row gets the bits it would get alone.
"""

import math

import numpy as np

BLOCK = 1024


def comp_sum(values, axis=None):
    """Sum a float array in a fixed deterministic order with compensation.

    With axis=None the whole array is summed and a float is returned;
    otherwise the sums along that axis, as an array of the remaining
    shape, each equal bit for bit to comp_sum of its own row.
    """
    a = np.asarray(values, dtype=float)
    if axis is None:
        return _row_sums(a.reshape(1, -1))[0]
    if axis not in (-1, a.ndim - 1):
        a = np.moveaxis(a, axis, -1)
    rows = a.reshape(math.prod(a.shape[:-1]), a.shape[-1])
    return np.array(_row_sums(rows), dtype=float).reshape(a.shape[:-1])


def _row_sums(rows):
    """comp_sum of each row of a 2-d array, as a list of floats."""
    n = rows.shape[1]
    if n == 0:
        return [0.0] * rows.shape[0]
    if n <= BLOCK:
        return list(map(math.fsum, rows.tolist()))
    R = rows.shape[0]
    s = np.zeros((R, BLOCK))
    c = np.zeros((R, BLOCK))
    for start in range(0, n, BLOCK):
        block = rows[:, start:start + BLOCK]
        if block.shape[1] < BLOCK:  # the last block, padded with zeros
            block = np.concatenate([block, np.zeros((R, start + BLOCK - n))],
                                   axis=1)
        y = block - c
        t = s + y
        c = (t - s) - y
        s = t
    c = -c
    return [math.fsum(s[i].tolist() + c[i].tolist()) for i in range(R)]

