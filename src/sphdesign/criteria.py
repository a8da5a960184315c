"""Variational design criteria and Weyl-sum residuals.

A configuration is a t-design exactly when the quadratic form

    V = (1/N^2) sum_i sum_j psi(x_i . x_j)

vanishes, where psi is a zonal polynomial with strictly positive
Legendre coefficients a_ell for 1 <= ell <= t and zero mean.  Three
standard choices are provided.  On S^2 V_psi3 equals a0 r^T r / N^2
over the Weyl sums r, so the sums, their constant weight a0 and their
Jacobian serve Levenberg-Marquardt iterations.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from math import lgamma, exp

import numpy as np

from . import specfun
from .errors import InvalidDimensionError, InvalidParameterError
from .pointset import (_points_and_chain, _require_normalized,
                       _s2_param_columns)
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


@lru_cache(maxsize=None)
def make_psi(kind, d, t):
    """Build a PsiSpec with precomputed coefficients, one per argument
    tuple."""
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
        raw_at_1 = specfun.jacobi_at_one(alpha + 1.0, t)
    return PsiSpec(kind=kind, d=d, t=t, a0=a0, psi_at_1=raw_at_1 - a0)


def _power(z, n):
    """z ** n from the positive base |z|, the sign restored for odd n.

    numpy's power takes a slow path on negative bases, and about half
    of the Gram entries are negative.
    """
    p = np.abs(z) ** n
    return np.copysign(p, z) if n % 2 else p


def psi_eval(spec, z):
    """psi(z), vectorized over z in [-1, 1]."""
    z = np.asarray(z, dtype=float)
    t = spec.t
    if spec.kind == PSI1:
        return _power(z, t - 1) + _power(z, t) - spec.a0
    if spec.kind == PSI2:
        return (0.5 * (1.0 + z)) ** t - spec.a0
    return specfun.jacobi_eval(spec.alpha + 1.0, spec.alpha, t, z) - spec.a0


def psi_deriv(spec, z):
    """d psi / dz, analytic."""
    z = np.asarray(z, dtype=float)
    t = spec.t
    if spec.kind == PSI1:
        out = t * _power(z, t - 1)
        if t >= 2:
            out = out + (t - 1) * _power(z, t - 2)
        return out
    if spec.kind == PSI2:
        return 0.5 * t * (0.5 * (1.0 + z)) ** (t - 1)
    return specfun.jacobi_deriv(spec.alpha + 1.0, spec.alpha, t, z)


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
    """V = (1/N^2) sum_{i,j} psi(x_i . x_j), correctly rounded summation.

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
    X, chain = _points_and_chain(p)
    coords, g = _expanded_gram(X, spec)
    return (_value_from_gram(g, spec),
            chain(_gradient_from_gram(g, coords, spec)))


@dataclass
class WeylResidual:
    """Weyl sums r_{ell,k} over a point set on S^2.

    r is ordered by ascending degree with the fixed in-degree order of
    the harmonic basis.  weights is the psi_3 least-squares weight
    a_ell / Z(2, ell), the same float a0 for every row since
    a_ell = a0 Z(2, ell).  tables are the harmonic tables of the points
    the sums ran over, which weyl_jacobian reuses.
    """
    t: int
    r: np.ndarray
    weights: float
    tables: specfun.HarmonicTables = field(repr=False, compare=False)

    @property
    def rtr(self):
        return float(comp_sum(self.r * self.r))


def weyl_residual(X, t):
    """Weyl sums r_{ell,k} = sum_j Y_{ell,k}(x_j) for ell = 1..t (d = 2),
    over the expanded points, with the psi_3 weight."""
    if X.d != 2:
        raise InvalidDimensionError("Weyl residuals require d = 2")
    weights = make_psi(PSI3, 2, t).a0
    values, tables = specfun.sph_harmonics_s2(t, X.expanded())
    return WeylResidual(t=t, r=comp_sum(values, axis=1), weights=weights,
                        tables=tables)


@lru_cache(maxsize=None)
def symmetric_row_mask(t):
    """Mask of even-degree rows in the full residual of degree t
    (read-only)."""
    mask, = specfun._frozen(specfun.row_degrees(t) % 2 == 0)
    return mask


def weyl_residual_reduced(X, t):
    """Residual restricted to even degrees for a symmetric set, with the
    psi_3 weight.

    The sums run over the representatives and are doubled; odd degrees
    cancel identically by symmetry so they are dropped.
    """
    if X.d != 2:
        raise InvalidDimensionError("Weyl residuals require d = 2")
    if not X.symmetric:
        raise InvalidParameterError("reduced residual needs a symmetric set")
    weights = make_psi(PSI3, 2, t).a0
    mask = symmetric_row_mask(t)
    values, tables = specfun.sph_harmonics_s2(t, X.coords)
    r = 2.0 * comp_sum(values[mask], axis=1)
    return WeylResidual(t=t, r=r, weights=weights, tables=tables)


def weyl_jacobian(X, residual):
    """Jacobian of the residual w.r.t. the packed angles (d = 2).

    residual is the WeylResidual of X; its harmonic tables give the
    derivatives.  Rows follow the residual order (even degrees only for
    symmetric sets, doubled); columns follow the ParamVector packing.
    The result is C-contiguous: the normal equations built from it must
    not depend on how it was assembled.
    """
    if X.d != 2:
        raise InvalidDimensionError("Weyl Jacobians require d = 2")
    _require_normalized(X)
    reps = X.coords.shape[0]
    if residual.tables.q.shape[1] != reps:
        raise InvalidParameterError(
            "the residual ran over %d points, X stores %d"
            % (residual.tables.q.shape[1], reps))
    d1, d2 = specfun.sph_harmonics_s2_jacobian(residual.tables)
    if X.symmetric:
        mask = symmetric_row_mask(residual.t)
        d1 = 2.0 * d1[mask]
        d2 = 2.0 * d2[mask]
    return _s2_param_columns(d1, d2)
