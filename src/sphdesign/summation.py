"""Correctly rounded summation.

Large double sums over point pairs cancel heavily (diagonal against
off-diagonal terms), so plain accumulation loses digits.  Every sum
here has the bits of math.fsum, the correctly rounded sum, and raises
fsum's exceptions, so it does not depend on the order of the input or
on how it is split.  Summing along an axis treats every row as its own
input: each row gets the bits it would get alone.

Small calls go through math.fsum.  Larger ones are summed at array
speed by the error-free extraction of Ogita, Rump and Oishi ("Accurate
sum and dot product", SIAM J. Sci. Comput. 26(6), 2005; "Accurate
floating-point summation I/II", SIAM J. Sci. Comput. 31, 2008), with a
certificate that the result is correctly rounded.  A row whose
certificate fails, or that is not finite or lies near the overflow or
underflow threshold, goes through math.fsum.
"""

import math

import numpy as np

# calls of fewer elements go through math.fsum, which is faster there
# (measured: the two cross near 1.5k elements on an Intel Xeon host);
# both paths give the same bits
_FSUM_ELEMENTS = 1600
# elements per certified pass, which bounds its temporaries
_CHUNK = 1 << 15


def comp_sum(values, axis=None):
    """Sum a float array, correctly rounded (math.fsum's bits).

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
    sum s, in any order, is within B = 2^(2m+1) u^2 sigma_2 >=
    gamma_(n-1) n u sigma_2 of theirs, so the true tail l + sum(r) lies
    within B + u|w| of w = fl(l + s).  E = 2B + 4u|w| covers that and
    the rounding of w -+ E, so fl(h + (w - E)) <= fl(true sum) <=
    fl(h + (w + E)) by monotone rounding, and equal ends certify the
    correctly rounded sum.  Ties and exact zeros leave the ends apart;
    where no remainder is left, h rounds the exact sum tau1 + tau2 and
    is certified alone.

    sigma comes from the whole row, and the splits then run over
    column chunks of _CHUNK elements, so a long row keeps its
    temporaries bounded without changing a bit.
    """
    R, n = x.shape
    m = (n + 1).bit_length()
    # max |x| without a temporary the size of x
    top = np.maximum(x.max(axis=1), -x.min(axis=1))
    e = np.frexp(top)[1]
    # sigma, 2 sigma and B = 2^(e+4m-158) must be finite normal numbers
    usable = np.isfinite(top) & (e + m <= 1022) & (e + 4 * m - 158 >= -1022)
    e = np.where(usable, e, 0)
    sigma1 = np.ldexp(1.0, e + m)[:, None]
    sigma2 = np.ldexp(sigma1, m - 53)
    tau1, tau2, rest = np.zeros(R), np.zeros(R), np.zeros(R)
    left = np.zeros(R, dtype=bool)
    for start in range(0, n, _CHUNK):
        c = x[:, start:start + _CHUNK]
        if not usable.all():
            c = np.where(usable[:, None], c, 0.0)
        q = (sigma1 + c) - sigma1
        r = c - q
        tau1 += q.sum(axis=1)
        q = (sigma2 + r) - sigma2
        r -= q
        tau2 += q.sum(axis=1)
        rest += r.sum(axis=1)
        left |= r.any(axis=1)
    bound = np.ldexp(sigma2[:, 0], 2 * m + 1 - 106)
    h = tau1 + tau2
    v = h - tau1
    w = ((tau1 - (h - v)) + (tau2 - v)) + rest
    err = 2.0 * bound + np.ldexp(np.abs(w), -51)
    total = h + (w - err)
    certified = usable & (total == h + (w + err))
    exact = usable & ~certified & ~left
    total[exact] = h[exact]
    return total, certified | exact
