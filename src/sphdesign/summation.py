"""Deterministic compensated summation.

Large double sums over point pairs cancel heavily (diagonal against
off-diagonal terms), so plain accumulation loses digits.  An input of
at most BLOCK entries gets the bits of math.fsum, the correctly
rounded sum.  A longer one is split into fixed-width blocks, summed by
a compensated (Kahan) accumulation vectorized across the block lanes,
and the lane totals and corrections get the bits of math.fsum of them.
The reduction shape depends only on the input length, so the result
is bitwise reproducible.  Summing along an axis treats every row as
its own input: each row gets the bits it would get alone.

Many rows at once are summed at array speed by the error-free
extraction of Ogita, Rump and Oishi ("Accurate sum and dot product",
SIAM J. Sci. Comput. 26(6), 2005; "Accurate floating-point summation
I/II", SIAM J. Sci. Comput. 31, 2008), with a certificate that the
result is correctly rounded.  A row whose certificate fails, or that
is not finite or lies near the overflow or underflow threshold, goes
through math.fsum, so every row has fsum's bits and raises fsum's
exceptions.
"""

import math

import numpy as np

BLOCK = 1024
# calls of fewer elements go through math.fsum, which is faster there
# (measured: the two cross near 1.5k elements on an Intel Xeon host);
# both paths give the same bits
_FSUM_ELEMENTS = 1600
# elements per certified pass, which bounds its temporaries
_CHUNK = 1 << 15


def comp_sum(values, axis=None):
    """Sum a float array in a fixed deterministic order with compensation.

    With axis=None the whole array is summed and a float is returned;
    otherwise the sums along that axis, as an array of the remaining
    shape, each equal bit for bit to comp_sum of its own row.
    """
    a = np.asarray(values, dtype=float)
    if axis is None:
        return float(_row_sums(a.reshape(1, -1))[0])
    if axis not in (-1, a.ndim - 1):
        a = np.moveaxis(a, axis, -1)
    rows = a.reshape(math.prod(a.shape[:-1]), a.shape[-1])
    return _row_sums(rows).reshape(a.shape[:-1])


def _row_sums(rows):
    """comp_sum of each row of a 2-d array, as a float array."""
    R, n = rows.shape
    if n <= BLOCK:
        return _fsum_rows(rows)
    # rows in groups whose lanes fill one certified pass
    out = np.empty(R)
    step = _CHUNK // (2 * BLOCK)
    for start in range(0, R, step):
        out[start:start + step] = _fsum_rows(
            _kahan_lanes(rows[start:start + step]))
    return out


def _kahan_lanes(rows):
    """The lane totals and negated corrections of compensated sums down
    BLOCK lanes of each row, side by side."""
    R, n = rows.shape
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
    return np.concatenate([s, -c], axis=1)


def _fsum_rows(rows):
    """math.fsum of each row of a 2-d float array, bit for bit."""
    R, n = rows.shape
    if R * n < _FSUM_ELEMENTS:
        return np.array(list(map(math.fsum, rows.tolist())), dtype=float)
    out = np.empty(R)
    step = max(1, _CHUNK // n)
    for start in range(0, R, step):
        x = rows[start:start + step]
        total, certified = _certified_sums(x)
        for i in np.flatnonzero(~certified):
            total[i] = math.fsum(x[i].tolist())
        out[start:start + step] = total
    return out


def _certified_sums(x):
    """Row sums of x and a mask of the rows proven correctly rounded.

    With 2^m >= n + 2 and every |x_i| < 2^e, sigma = 2^(e+m).  One
    ExtractVector split q = (sigma + x) - sigma, r = x - q is error-free,
    leaves |r| <= u sigma (u = 2^-53), and the q are multiples of
    u sigma whose partial sums stay below sigma, so sum(q) is exact in
    any order.  A second split against 2^m u sigma does the same to r.
    Of the two exact parts, TwoSum gives h + l; the remainders' plain
    sum s is within B = 2^(2m+1) u^2 sigma_2 >= gamma_(n-1) n u sigma_2
    of theirs, so the true tail l + sum(r) lies within B + u|w| of
    w = fl(l + s).  E = 2B + 4u|w| covers that and the rounding of
    w -+ E, so fl(h + (w - E)) <= fl(true sum) <= fl(h + (w + E)) by
    monotone rounding, and equal ends certify the correctly rounded
    sum.  Ties and exact zeros leave the ends apart; where no remainder
    is left, h rounds the exact sum tau1 + tau2 and is certified alone.
    """
    n = x.shape[1]
    m = (n + 1).bit_length()
    top = np.max(np.abs(x), axis=1)
    e = np.frexp(top)[1]
    # sigma, 2 sigma and B = 2^(e+4m-158) must be finite normal numbers
    usable = np.isfinite(top) & (e + m <= 1022) & (e + 4 * m - 158 >= -1022)
    if not usable.all():
        e = np.where(usable, e, 0)
        x = np.where(usable[:, None], x, 0.0)
    sigma = np.ldexp(1.0, e + m)[:, None]
    q = (sigma + x) - sigma
    r = x - q
    tau1 = q.sum(axis=1)
    sigma = np.ldexp(sigma, m - 53)
    q = (sigma + r) - sigma
    r -= q
    tau2 = q.sum(axis=1)
    bound = np.ldexp(sigma[:, 0], 2 * m + 1 - 106)
    h = tau1 + tau2
    v = h - tau1
    w = ((tau1 - (h - v)) + (tau2 - v)) + r.sum(axis=1)
    err = 2.0 * bound + np.ldexp(np.abs(w), -51)
    total = h + (w - err)
    certified = usable & (total == h + (w + err))
    open_rows = np.flatnonzero(usable & ~certified)
    exact = open_rows[~r[open_rows].any(axis=1)]
    total[exact] = h[exact]
    certified[exact] = True
    return total, certified
