"""Variational design criteria and Weyl-sum residuals.

A configuration is a t-design exactly when the quadratic form

    V = (1/N^2) sum_i sum_j psi(x_i . x_j)

vanishes, where psi is a zonal polynomial with strictly positive
Legendre coefficients a_ell for 1 <= ell <= t and zero mean.  Three
standard choices are provided.  On S^2 the equivalent weighted
least-squares form r^T D r over Weyl sums, with the constant diagonal
of psi_3, is available together with its Jacobian for
Levenberg-Marquardt iterations.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from math import lgamma, exp

import numpy as np

from . import specfun
from .errors import InvalidDimensionError, InvalidParameterError
from .pointset import PointSet, ParamVector, _free_slots, _require_normalized, \
    _slot_jacobian, n_free, param_to_points
from .summation import comp_sum

PSI1 = "psi1"
PSI2 = "psi2"
PSI3 = "psi3"
KINDS = (PSI1, PSI2, PSI3)


@dataclass(frozen=True)
class PsiSpec:
    """One variational function: kind, dimension, degree, and the
    zero-order coefficient a0 removed from it.

    psi_at_1 is psi(1), the coefficient sum over degrees 1..t.  It is
    the supremum of V, the value placed on the diagonal of the pair
    sum, and the natural scale for convergence tolerances.
    """
    kind: str
    d: int
    t: int
    a0: float
    psi_at_1: float

    @property
    def alpha(self):
        return 0.5 * (self.d - 2.0)


def _a0_psi1(d, t):
    alpha = 0.5 * (d - 2.0)
    if d == 2:
        return 1.0 / t if t % 2 else 1.0 / (t + 1.0)
    if t % 2:
        return exp(lgamma(alpha + 1.5) - 0.5 * np.log(np.pi)
                   + lgamma(0.5 * t) - lgamma(alpha + 1.0 + 0.5 * t))
    return exp(lgamma(alpha + 1.5) - 0.5 * np.log(np.pi)
               + lgamma(0.5 * (t + 1.0)) - lgamma(alpha + 1.5 + 0.5 * t))


def _a0_psi2(d, t):
    alpha = 0.5 * (d - 2.0)
    if d == 2:
        return 1.0 / (t + 1.0)
    return exp(np.log(2.0) - 0.5 * np.log(np.pi) + alpha * np.log(4.0)
               + lgamma(alpha + 1.5) + lgamma(alpha + 1.0 + t)
               - lgamma(2.0 * alpha + 2.0 + t))


def make_psi(kind, d, t):
    """Build a PsiSpec with precomputed coefficients."""
    if kind not in KINDS:
        raise InvalidParameterError("unknown psi kind %r" % (kind,))
    if d < 2:
        raise InvalidDimensionError("variational criteria need d >= 2")
    if t < 1:
        raise InvalidParameterError("degree must be >= 1")
    alpha = 0.5 * (d - 2.0)
    if kind == PSI1:
        a0 = _a0_psi1(d, t)
        raw_at_1 = 2.0
    elif kind == PSI2:
        a0 = _a0_psi2(d, t)
        raw_at_1 = 1.0
    else:
        a0 = _a0_psi2(d, t)
        raw_at_1 = exp(lgamma(t + alpha + 2.0) - lgamma(t + 1.0)
                       - lgamma(alpha + 2.0))
    return PsiSpec(kind=kind, d=d, t=t, a0=a0, psi_at_1=raw_at_1 - a0)


def psi_eval(spec, z):
    """psi(z), vectorized over z in [-1, 1]."""
    z = np.asarray(z, dtype=float)
    t = spec.t
    if spec.kind == PSI1:
        return z ** (t - 1) + z ** t - spec.a0
    if spec.kind == PSI2:
        return (0.5 * (1.0 + z)) ** t - spec.a0
    return specfun.jacobi_eval(spec.alpha + 1.0, spec.alpha, t, z) - spec.a0


def psi_deriv(spec, z):
    """d psi / dz, analytic."""
    z = np.asarray(z, dtype=float)
    t = spec.t
    if spec.kind == PSI1:
        out = t * z ** (t - 1)
        if t >= 2:
            out = out + (t - 1) * z ** (t - 2)
        else:
            out = out + np.zeros_like(z)
        return out
    if spec.kind == PSI2:
        return 0.5 * t * (0.5 * (1.0 + z)) ** (t - 1)
    if t == 0:
        return np.zeros_like(z)
    return 0.5 * (t + 2.0 * spec.alpha + 2.0) * specfun.jacobi_eval(
        spec.alpha + 2.0, spec.alpha + 1.0, t - 1, z)


def psi_coefficients(spec):
    """Legendre coefficients a_ell, ell = 0..t, of psi + a0.

    Computed by Gauss-Jacobi projection; a_0 equals spec.a0.
    """
    from scipy.special import roots_jacobi
    t = spec.t
    alpha = spec.alpha
    nodes, weights = roots_jacobi(t + 5, alpha, alpha)
    wtot = np.sum(weights)
    raw = psi_eval(spec, nodes) + spec.a0
    coeffs = np.empty(t + 1)
    pl = specfun.legendre_norm_batch(spec.d, t, nodes)
    for ell in range(t + 1):
        num = np.sum(weights * raw * pl[ell])
        den = np.sum(weights * pl[ell] ** 2)
        coeffs[ell] = num / den
    return coeffs


def _gram(coords):
    g = coords @ coords.T
    np.clip(g, -1.0, 1.0, out=g)
    return g


def _expanded_gram(X, spec):
    """Expanded coordinates of X and their clipped Gram matrix."""
    if X.d != spec.d:
        raise InvalidDimensionError("point set and psi dimension differ")
    coords = X.expanded()
    return coords, _gram(coords)


def _value_from_gram(g, spec):
    vals = psi_eval(spec, g)
    np.fill_diagonal(vals, spec.psi_at_1)
    N = g.shape[0]
    return comp_sum(vals) / (N * N)


def _gradient_from_gram(g, coords, spec):
    w = psi_deriv(spec, g)
    np.fill_diagonal(w, 0.0)
    N = g.shape[0]
    return (2.0 / (N * N)) * (w @ coords)


def variational_value(X, spec):
    """V = (1/N^2) sum_{i,j} psi(x_i . x_j), compensated summation.

    The diagonal uses the analytic value psi(1) instead of evaluating
    the polynomial at a rounded inner product.
    """
    _, g = _expanded_gram(X, spec)
    return _value_from_gram(g, spec)


def variational_values(X, t):
    """(V_psi1, V_psi2, V_psi3) of X at degree t, in the order of KINDS."""
    return tuple(variational_value(X, make_psi(k, X.d, t)) for k in KINDS)


def variational_gradient(X, spec):
    """Cartesian gradient of V per point of the expanded set.

    Returns an (N, d+1) array with row k equal to
    (2/N^2) sum_{i != k} psi'(x_i . x_k) x_i.
    """
    coords, g = _expanded_gram(X, spec)
    return _gradient_from_gram(g, coords, spec)


def variational_value_and_param_gradient(p, spec):
    """V and its gradient w.r.t. the packed free angles of p.

    One Gram matrix serves both; the bits equal variational_value and a
    per-slot np.dot of param_jacobian_point rows with the Cartesian
    gradient.
    """
    X = param_to_points(p)
    coords, g = _expanded_gram(X, spec)
    v = _value_from_gram(g, spec)
    gcart = _gradient_from_gram(g, coords, spec)
    reps = X.coords.shape[0]
    if p.symmetric:
        gcart = gcart[:reps] - gcart[reps:]
    rows, cols = _free_slots(p.d, reps)
    phi = np.zeros((reps, p.d))
    phi[rows, cols] = p.values
    J = _slot_jacobian(phi, rows, cols)
    # a stacked (1 x n) @ (n x 1) product is one ddot per slot, the
    # same reduction as np.dot; einsum and row sums reassociate
    return v, (J[:, None, :] @ gcart[rows][:, :, None]).ravel()


@dataclass
class WeylResidual:
    """Weyl sums r_{ell,k} over a point set on S^2.

    r is ordered by ascending degree with the fixed in-degree order of
    the harmonic basis; weights holds the psi_3 least-squares diagonal
    a_ell / Z(d, ell) expanded per row.  tables are the harmonic tables
    of the points the sums ran over, which weyl_jacobian reuses.
    """
    t: int
    N: int
    r: np.ndarray
    weights: np.ndarray
    tables: specfun.HarmonicTables = field(default=None, repr=False,
                                           compare=False)

    @property
    def rtr(self):
        return float(comp_sum(self.r * self.r))

    @property
    def max_abs(self):
        return float(np.max(np.abs(self.r)))


@lru_cache(maxsize=None)
def residual_weights(spec):
    """Diagonal weights a_ell / Z(d, ell) per residual row (d = 2), as a
    read-only array shared by every caller with the same spec."""
    if spec.d != 2:
        raise InvalidDimensionError("weighted residuals are for d = 2")
    if spec.kind == PSI3:
        # a_ell = a0 Z(d, ell), so every weight collapses to a0
        a = spec.a0 * (2 * np.arange(1, spec.t + 1) + 1)
    else:
        a = psi_coefficients(spec)[1:]
    deg = specfun.row_degrees(spec.t)
    w = a[deg - 1] / (2 * deg + 1)
    w.setflags(write=False)
    return w


def weyl_residual(X, t):
    """Weyl sums r_{ell,k} = sum_j Y_{ell,k}(x_j) for ell = 1..t (d = 2),
    over the expanded points, with the psi_3 weights."""
    if X.d != 2:
        raise InvalidDimensionError("Weyl residuals require d = 2")
    values, tables = specfun.sph_harmonics_s2(t, X.expanded())
    return WeylResidual(t=t, N=X.N, r=comp_sum(values, axis=1),
                        weights=residual_weights(make_psi(PSI3, 2, t)),
                        tables=tables)


@lru_cache(maxsize=None)
def symmetric_row_mask(t):
    """Mask of even-degree rows in the full residual of degree t
    (read-only)."""
    mask = specfun.row_degrees(t) % 2 == 0
    mask.setflags(write=False)
    return mask


def weyl_residual_reduced(X, t):
    """Residual restricted to even degrees for a symmetric set, with the
    psi3 weights.

    The sums run over the representatives and are doubled; odd degrees
    cancel identically by symmetry so they are dropped.
    """
    if X.d != 2:
        raise InvalidDimensionError("Weyl residuals require d = 2")
    if not X.symmetric:
        raise InvalidParameterError("reduced residual needs a symmetric set")
    values, tables = specfun.sph_harmonics_s2(t, X.coords)
    mask = symmetric_row_mask(t)
    r = 2.0 * comp_sum(values[mask], axis=1)
    return WeylResidual(t=t, N=X.N, r=r,
                        weights=residual_weights(make_psi(PSI3, 2, t))[mask],
                        tables=tables)


def weyl_jacobian(X, t, residual=None):
    """Jacobian of the residual w.r.t. the packed angles (d = 2).

    Rows follow the residual order (even degrees only for symmetric
    sets, doubled); columns follow the ParamVector packing.  residual,
    the WeylResidual of X, lends its harmonic tables.  The result is
    C-contiguous: the normal equations built from it must not depend
    on how it was assembled.
    """
    if X.d != 2:
        raise InvalidDimensionError("Weyl Jacobians require d = 2")
    _require_normalized(X)
    reps = X.coords.shape[0]
    d1, d2 = specfun.sph_harmonics_s2_jacobian(
        t, X.coords, tables=None if residual is None else residual.tables)
    if X.symmetric:
        mask = symmetric_row_mask(t)
        d1 = 2.0 * d1[mask]
        d2 = 2.0 * d2[mask]
    # the packed order of _free_slots(2, reps): angle 0 of point 1, then
    # angles 0 and 1 of each point j >= 2
    A = np.empty((d1.shape[0], n_free(2, reps)))
    if reps > 1:
        A[:, 0] = d1[:, 1]
        A[:, 1::2] = d1[:, 2:]
        A[:, 2::2] = d2[:, 2:]
    return A
