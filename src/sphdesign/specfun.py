"""Jacobi polynomials, normalized Legendre polynomials, real spherical
harmonics on S^2, harmonic-space dimensions, and largest Jacobi zeros.

Every function takes plain numbers and arrays: the Jacobi functions
take alpha, beta and the degree n (jacobi_eval(alpha, beta, n, z)), the
S^2 harmonics an (M, 3) array of unit vectors (sph_harmonics_s2(L,
coords) returns the values and the tables they were built from).  The
harmonic basis holds degrees 1..L, degree l in rows l^2 - 1 ..
(l+1)^2 - 2 (row_degrees).

All harmonic evaluation uses stable three-term recurrences in double
precision; every ratio of gamma functions goes through log-gamma
differences so large degrees do not overflow.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb, lgamma, exp
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import InvalidDimensionError, InvalidParameterError

MAX_HARMONIC_DEGREE = 2000


def dim_harmonic(d, ell):
    """Dimension Z(d, ell) of degree-ell spherical harmonics on S^d.

    Computed in exact integer arithmetic.
    """
    if d < 1:
        raise InvalidDimensionError("d must be >= 1, got %r" % (d,))
    if ell < 0:
        raise InvalidParameterError("degree must be >= 0, got %r" % (ell,))
    if ell == 0:
        return 1
    if ell == 1:
        return d + 1
    return comb(d + ell, ell) - comb(d + ell - 2, ell - 2)


def dim_poly(d, t):
    """Dimension D(d, t) of spherical polynomials of degree <= t on S^d."""
    if d < 1:
        raise InvalidDimensionError("d must be >= 1, got %r" % (d,))
    if t < 0:
        raise InvalidParameterError("degree must be >= 0, got %r" % (t,))
    return dim_harmonic(d + 1, t)


def _check_jacobi(alpha, beta, n):
    if alpha <= -1 or beta <= -1:
        raise InvalidParameterError("jacobi parameters must exceed -1")
    if n < 0:
        raise InvalidParameterError("jacobi degree must be >= 0")


def jacobi_batch(alpha, beta, L, z):
    """Values of P_ell^(alpha,beta)(z) for ell = 0..L.

    Returns an array of shape (L+1,) + shape(z), filled by the standard
    three-term recurrence.
    """
    _check_jacobi(alpha, beta, L)
    z = np.asarray(z, dtype=float)
    out = np.empty((L + 1,) + z.shape)
    out[0] = 1.0
    if L == 0:
        return out
    ab = alpha + beta
    out[1] = 0.5 * (ab + 2.0) * z + 0.5 * (alpha - beta)
    for n in range(2, L + 1):
        c = 2.0 * n + ab
        a1 = 2.0 * n * (n + ab) * (c - 2.0)
        a2 = (c - 1.0) * (alpha * alpha - beta * beta)
        a3 = (c - 2.0) * (c - 1.0) * c
        a4 = 2.0 * (n + alpha - 1.0) * (n + beta - 1.0) * c
        out[n] = ((a2 + a3 * z) * out[n - 1] - a4 * out[n - 2]) / a1
    return out


def jacobi_eval(alpha, beta, n, z):
    """Value of P_n^(alpha,beta) at z.

    Runs the recurrence of jacobi_batch, with the same arithmetic, but
    keeps only the last two degrees.
    """
    _check_jacobi(alpha, beta, n)
    z = np.asarray(z, dtype=float)
    prev = np.ones(z.shape)
    if n == 0:
        return prev
    ab = alpha + beta
    cur = 0.5 * (ab + 2.0) * z + 0.5 * (alpha - beta)
    for k in range(2, n + 1):
        c = 2.0 * k + ab
        a1 = 2.0 * k * (k + ab) * (c - 2.0)
        a2 = (c - 1.0) * (alpha * alpha - beta * beta)
        a3 = (c - 2.0) * (c - 1.0) * c
        a4 = 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * c
        nxt = a3 * z
        nxt += a2
        nxt *= cur
        prev *= a4
        nxt -= prev
        nxt /= a1
        prev, cur = cur, nxt
    return cur


def jacobi_at_one(alpha, ell):
    """P_ell^(alpha,beta)(1) = Gamma(ell+alpha+1)/(Gamma(ell+1)Gamma(alpha+1))."""
    return exp(lgamma(ell + alpha + 1.0) - lgamma(ell + 1.0) - lgamma(alpha + 1.0))


def jacobi_deriv(alpha, beta, n, z):
    """Derivative of P_n^(alpha,beta) at z."""
    _check_jacobi(alpha, beta, n)
    if n == 0:
        return np.zeros_like(np.asarray(z, dtype=float))
    return 0.5 * (n + alpha + beta + 1.0) * jacobi_eval(
        alpha + 1.0, beta + 1.0, n - 1, z)


def legendre_norm(d, ell, z):
    """Normalized Legendre polynomial P_ell^(d+1), equal to 1 at z = 1."""
    if d < 2:
        raise InvalidDimensionError("normalized Legendre needs d >= 2")
    alpha = 0.5 * (d - 2.0)
    return jacobi_eval(alpha, alpha, ell, z) / jacobi_at_one(alpha, ell)


def legendre_norm_batch(d, L, z):
    """P_ell^(d+1)(z) for all ell = 0..L at once."""
    if d < 2:
        raise InvalidDimensionError("normalized Legendre needs d >= 2")
    alpha = 0.5 * (d - 2.0)
    vals = jacobi_batch(alpha, alpha, L, z)
    scale = np.array([jacobi_at_one(alpha, ell) for ell in range(L + 1)])
    return vals / scale.reshape((L + 1,) + (1,) * (vals.ndim - 1))


def jacobi_largest_zero(alpha, beta, n, polish=True):
    """Largest zero of P_n^(alpha,beta) via the symmetric eigenvalue method.

    The zeros are the eigenvalues of the symmetric tridiagonal matrix
    built from the monic recurrence coefficients; one Newton step then
    polishes the largest one.
    """
    _check_jacobi(alpha, beta, n)
    if n == 0:
        raise InvalidParameterError("a degree-0 polynomial has no zero")
    ab = alpha + beta
    diag = np.empty(n)
    diag[0] = (beta - alpha) / (ab + 2.0)
    for k in range(1, n):
        c = 2.0 * k + ab
        diag[k] = (beta * beta - alpha * alpha) / (c * (c + 2.0))
    off = np.empty(max(n - 1, 0))
    for k in range(1, n):
        c = 2.0 * k + ab
        num = 4.0 * k * (k + alpha) * (k + beta) * (k + ab)
        den = c * c * (c + 1.0) * (c - 1.0)
        off[k - 1] = np.sqrt(num / den)
    if n == 1:
        gamma = diag[0]
    else:
        gamma = eigh_tridiagonal(diag, off, eigvals_only=True)[-1]
    if polish:
        f = float(jacobi_eval(alpha, beta, n, gamma))
        fp = float(jacobi_deriv(alpha, beta, n, gamma))
        if fp != 0.0:
            step = f / fp
            if abs(step) < 1e-6:
                gamma = gamma - step
    return float(gamma)


def _row(l, k):
    """Row of Q_l^k in the flat Schmidt table."""
    return l * (l + 1) // 2 + k


def _frozen(*arrays):
    """The arrays, made read-only (they are shared through a cache)."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _degree_runs(degrees, counts):
    """Each degree repeated counts times, with the position 0..count-1
    within its run."""
    deg = np.repeat(degrees, counts)
    start = np.repeat(np.cumsum(counts) - counts, counts)
    return deg, np.arange(deg.size) - start


@lru_cache(maxsize=None)
def _schmidt_coefficients(L):
    """Rows and coefficients of the Schmidt-table recurrences up to L.

    Q_k^k = sqrt((2k-1)/(2k)) u Q_(k-1)^(k-1) fills the rows `diag`;
    Q_l^(l-1) = sqrt(2l-1) x Q_(l-1)^(l-1) fills `sub` from `sub_from`;
    for l = 2..L, entry l-2 of `steps` advances the block k = 0..l-2 of
    degree l as (c x Q_(l-1)^k - b Q_(l-2)^k) / a, with c[l-2] = 2l-1,
    a = sqrt(l^2-k^2) and b = sqrt((l-1)^2-k^2).
    """
    l = np.arange(1, L + 1)
    diag = _frozen(_row(l, l), np.sqrt((2.0 * l - 1.0) / (2.0 * l))[:, None])
    sub = _frozen(_row(l, l - 1), _row(l - 1, l - 1),
                  np.sqrt(2.0 * (l - 1.0) + 1.0)[:, None])
    c, = _frozen((2.0 * l[1:] - 1.0)[:, None])
    steps = []
    for l in range(2, L + 1):
        k = np.arange(l - 1, dtype=float)
        steps.append((slice(_row(l, 0), _row(l, l - 1)),
                      slice(_row(l - 1, 0), _row(l - 1, l - 1)),
                      slice(_row(l - 2, 0), _row(l - 1, 0)),
                      *_frozen(np.sqrt(l * l - k * k)[:, None],
                               np.sqrt((l - 1) * (l - 1) - k * k)[:, None])))
    return diag, sub, c, steps


def _schmidt_table(L, x):
    """Semi-normalized associated Legendre values Q_l^k(x) for l <= L.

    Q_l^k = sqrt((l-k)!/(l+k)!) * P_l^k without the Condon-Shortley
    phase, including the (1-x^2)^(k/2) factor.  Returned as a flat
    array indexed by row l(l+1)/2 + k, one column per entry of the
    1-d array x.  The l-recurrence runs on whole degree blocks.
    """
    x = np.asarray(x, dtype=float)
    u = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    q = np.empty(((L + 1) * (L + 2) // 2, x.size))
    q[0] = 1.0
    if L == 0:
        return q
    (diag, cd), (sub, sub_from, cs), c, steps = _schmidt_coefficients(L)
    q[diag] = np.cumprod(cd * u, axis=0)
    q[sub] = (cs * x) * q[sub_from]
    cx = c * x
    for cx_l, (new, prev, prev2, a, b) in zip(cx, steps):
        block = q[new]
        np.multiply(cx_l, q[prev], out=block)
        block -= b * q[prev2]
        block /= a
    return q


@lru_cache(maxsize=None)
def _theta_coefficients(L):
    """Rows and coefficients of dQ_l^k/dtheta for 1 <= l <= L, in three
    groups: k = 0, 0 < k < l, and k = l."""
    l = np.arange(1, L + 1)
    lm, km = _degree_runs(l, l - 1)
    km = km + 1
    zonal = _frozen(_row(l, 0), -np.sqrt(l * (l + 1.0))[:, None])
    mid = _frozen(_row(lm, km), np.sqrt((lm + km) * (lm - km + 1.0))[:, None],
                  np.sqrt((lm - km) * (lm + km + 1.0))[:, None])
    top = _frozen(_row(l, l), np.sqrt(2.0 * l)[:, None])
    return zonal, mid, top


def _schmidt_theta_deriv(L, q):
    """Colatitude derivatives dQ_l^k/dtheta from the Q table itself."""
    dq = np.empty_like(q)
    dq[0] = 0.0
    if L == 0:
        return dq
    (zr, zc), (mr, lo, hi), (tr, tc) = _theta_coefficients(L)
    dq[zr] = zc * q[zr + 1]
    if mr.size:
        dq[mr] = 0.5 * (lo * q[mr - 1] - hi * q[mr + 1])
    dq[tr] = 0.5 * (tc * q[tr - 1])
    return dq


@dataclass
class HarmonicTables:
    """The per-point tables every harmonic of degree <= L is built from.

    q is the Schmidt table of the colatitude cosines; trig has 2L+1 rows
    sin(L phi2)..sin(phi2), ones, cos(phi2)..cos(L phi2), so row L+s
    holds the azimuthal factor of in-degree index s.
    """
    L: int
    q: np.ndarray
    trig: np.ndarray


def _harmonic_tables(L, coords):
    """Schmidt and trigonometric tables of the (M, 3) array coords."""
    coords = _check_s2(coords, L)
    x, phi2 = _s2_angles(coords)
    kphi = np.multiply.outer(np.arange(1, L + 1), phi2)
    trig = np.empty((2 * L + 1, coords.shape[0]))
    trig[:L] = np.sin(kphi)[::-1]
    trig[L] = 1.0
    trig[L + 1:] = np.cos(kphi)
    return HarmonicTables(L=L, q=_schmidt_table(L, x), trig=trig)


@lru_cache(maxsize=None)
def row_degrees(L):
    """Degree of each row of the harmonic basis up to degree L: degree
    l fills its 2l+1 rows l^2 - 1 .. (l+1)^2 - 2 (read-only)."""
    l = np.arange(1, L + 1)
    deg, = _frozen(np.repeat(l, 2 * l + 1))
    return deg


class _BasisLayout(NamedTuple):
    """Where each basis row takes its factors from (read-only arrays).

    A value row is coef * q[rows] * trig[trig_rows]; its phi2
    derivative is (coef2 * q[rows]) * k * trig[trig_rows2], zero on
    the zonal rows.
    """
    rows: np.ndarray
    trig_rows: np.ndarray
    coef: np.ndarray
    trig_rows2: np.ndarray
    coef2: np.ndarray
    k: np.ndarray
    zonal: np.ndarray


@lru_cache(maxsize=None)
def _basis_layout(L):
    """Row layout of the basis up to degree L.  In-degree index s runs
    -l..l; the normalization is sqrt(2l+1) for s = 0, else sqrt(2(2l+1))."""
    ls = row_degrees(L)
    # the zonal row of degree l is row l^2 - 1 + l
    s = np.arange(ls.size) + 1 - ls * (ls + 1)
    coef = np.where(s == 0, np.sqrt(2.0 * ls + 1.0),
                    np.sqrt(2.0 * (2.0 * ls + 1.0)))
    return _BasisLayout(*_frozen(
        _row(ls, np.abs(s)), L + s, coef[:, None], L - s,
        np.where(s > 0, -coef, coef)[:, None],
        np.abs(s).astype(float)[:, None], s == 0))


def _s2_angles(coords):
    """Colatitude cosine (about the first axis) and azimuth of S^2 points."""
    x = np.clip(coords[:, 0], -1.0, 1.0)
    phi2 = np.arctan2(coords[:, 2], coords[:, 1])
    return x, phi2


def _check_s2(coords, L):
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise InvalidDimensionError("spherical harmonics here require d = 2")
    if L > MAX_HARMONIC_DEGREE:
        raise InvalidParameterError(
            "degree %d exceeds the stability cap %d" % (L, MAX_HARMONIC_DEGREE))
    return coords


def sph_harmonics_s2(L, coords):
    """The real orthonormal harmonic basis of degrees 1..L at the rows
    of the (M, 3) array coords of unit vectors.

    Returns (values, tables).  values has one row per basis function;
    the block of degree l holds 2l+1 rows ordered sin(l phi2)..sin(phi2),
    the zonal term, then cos(phi2)..cos(l phi2).  tables are the tables
    the values were built from, for reuse by sph_harmonics_s2_jacobian.
    """
    tables = _harmonic_tables(L, coords)
    lay = _basis_layout(L)
    out = tables.q[lay.rows]
    out *= lay.coef
    out *= tables.trig[lay.trig_rows]
    return out, tables


def sph_harmonics_s2_jacobian(L, coords, tables=None):
    """Analytic derivatives of the harmonic basis w.r.t. (phi1, phi2).

    phi1 is the colatitude from the first axis, phi2 the azimuth in the
    plane of the second and third axes.  Returns (dY_dphi1, dY_dphi2),
    each shaped like the value matrix.  At the poles the azimuthal
    chain-rule entries are taken at their finite limits.  tables, the
    tables of a value evaluation of the same points and degree, spare
    building them again.
    """
    if tables is None:
        tables = _harmonic_tables(L, coords)
    elif tables.L != L or tables.trig.shape[1] != _check_s2(coords, L).shape[0]:
        raise InvalidParameterError("harmonic tables of other points or degree")
    lay = _basis_layout(L)
    d1 = _schmidt_theta_deriv(L, tables.q)[lay.rows]
    d1 *= lay.coef
    d1 *= tables.trig[lay.trig_rows]
    # d/dphi2 of sin(k phi2) is k cos(k phi2), of cos(k phi2) -k sin(k phi2)
    d2 = tables.q[lay.rows]
    d2 *= lay.coef2
    d2 *= lay.k
    d2 *= tables.trig[lay.trig_rows2]
    d2[lay.zonal] = 0.0
    return d1, d2
