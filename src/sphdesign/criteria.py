"""Variational design criteria and Weyl-sum residuals.

A configuration is a t-design exactly when the quadratic form

    V = (1/N^2) sum_i sum_j psi(x_i . x_j)

vanishes, where psi is a zonal polynomial with strictly positive
Legendre coefficients a_ell for 1 <= ell <= t and zero mean.  Three
standard choices are provided; generation descends on psi_3 alone.  On
S^2 every V is a weighted sum of squares of the Weyl sums r,
sum_ell a_ell / (2 ell + 1) sum_k r_{ell,k}^2 / N^2; for psi_3 the
weight is the constant a0, which with the Jacobian of r serves
Levenberg-Marquardt iterations.  The pair sums over all N^2 inner
products remain the view in every dimension and the L-BFGS-B objective.
On S^2 the closed-form psi_2 weights are 0.0 at the top degrees from
t = 536, psi_1's from t = 1070, below the harmonic cap of 1800, so V2
and V1 omit those degrees there; V3 and the Weyl-sum verdict see all.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from math import exp, lgamma, log

import numpy as np

from . import specfun
from .errors import InvalidDimensionError, InvalidParameterError
from .pointset import _points_and_chain, _s2_param_columns
from .summation import comp_sum

# elements per row block of a Gram matrix's upper triangle (psi values)
# or of a harmonic value table (Weyl sums); a matrix of at most this
# many elements is one block
_PAIR_BLOCK = 1 << 15

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


def _zonal_weights(spec):
    """b_ell = a_ell / Z(d, ell), ell = 0..t, in closed form.

    With alpha = (d-2)/2, lambda = (d-1)/2 and the Legendre polynomial
    normalized to P_ell(1) = 1:
    psi_3: b_ell = a0;
    psi_2: b_ell = G(2alpha+2) G(t+1) G(t+alpha+1)
                   / (G(alpha+1) G(t-ell+1) G(t+ell+2alpha+2));
    psi_1: b_ell = e(t-1, ell) + e(t, ell), where e(n, ell) is zero
    unless ell <= n and n - ell = 2k is even, and otherwise
    G(lambda+1) n! / (2^n k! G(n-k+lambda+1)), the Gegenbauer
    expansion of z^n (DLMF 18.18.17) divided by Z(d, ell).
    G is the gamma function, evaluated through lgamma.

    The Legendre coefficients of psi + a0 are a_ell = Z(d, ell) b_ell,
    positive for 1 <= ell <= t; b_0 = a_0 is spec.a0 to rounding.  The
    b_ell of psi_2 and psi_1 near ell = t underflow at high degree.
    """
    t = spec.t
    if spec.kind == PSI3:
        return np.full(t + 1, spec.a0)
    alpha = spec.alpha
    if spec.kind == PSI2:
        c = (lgamma(2.0 * alpha + 2.0) + lgamma(t + 1.0)
             + lgamma(t + alpha + 1.0) - lgamma(alpha + 1.0))
        return np.array([exp(c - lgamma(t - ell + 1.0)
                             - lgamma(t + ell + 2.0 * alpha + 2.0))
                         for ell in range(t + 1)])
    lam = alpha + 0.5
    b = np.zeros(t + 1)
    for n in (t - 1, t):
        c = lgamma(lam + 1.0) + lgamma(n + 1.0) - n * log(2.0)
        for ell in range(n % 2, n + 1, 2):
            k = (n - ell) // 2
            b[ell] += exp(c - lgamma(k + 1.0) - lgamma(n - k + lam + 1.0))
    return b


@lru_cache(maxsize=None)
def _s2_row_weights(t):
    """(3, (t+1)^2 - 1) read-only array: row k holds b_ell = a_ell /
    (2 ell + 1) of KINDS[k] at degree t, per row of the Weyl sums."""
    deg = specfun.row_degrees(t)
    w = np.stack([_zonal_weights(make_psi(k, 2, t))[deg] for k in KINDS])
    w.setflags(write=False)
    return w


def _s2_values(residual, N):
    """(V_psi1, V_psi2, V_psi3) at the degree of a full Weyl residual
    (weyl_residual) over N points:

        V_psi = (1/N^2) sum_ell b_ell sum_k r_{ell,k}^2,

    one correctly rounded sum of weighted squares per psi.  The terms
    are not negative, so neither is V, and it costs no pair sum.
    """
    sums = comp_sum(_s2_row_weights(residual.t) * (residual.r * residual.r),
                    axis=1)
    return tuple((sums / (N * N)).tolist())


def _gram(coords):
    """Clipped Gram matrix, exactly symmetric: numpy computes a @ a.T
    of one contiguous buffer (every caller's coordinates) as a symmetric
    rank-k product, one triangle mirrored."""
    g = coords @ coords.T
    np.clip(g, -1.0, 1.0, out=g)
    return g


def _value_from_gram(g, spec):
    """(1/N^2) sum_{i,j} psi(g_ij), psi(1) on the diagonal.

    A Gram matrix of more than _PAIR_BLOCK elements is evaluated once
    per unordered pair, in place: psi runs over row blocks of its upper
    triangle, each of at most _PAIR_BLOCK elements so the recurrence's
    passes stay in cache, and the strictly lower part is the transpose
    of what was computed.  Such a g is overwritten with psi's values.
    Block rows i:j read g[i:j, i:] before writing it, and the mirror
    writes only columns below j, which no later block reads.  g is
    exactly symmetric (_gram) and psi is elementwise, so every value,
    and the one comp_sum of all N^2 of them, has the bits of a single
    pass over g.
    """
    N = g.shape[0]
    # one block would give the same bits, but its slicing costs a few
    # us a call, which shows in the d > 2 descent at N = 7
    if N * N <= _PAIR_BLOCK:
        vals = psi_eval(spec, g)
    else:
        vals = g
        rows = max(1, _PAIR_BLOCK // N)
        for i in range(0, N, rows):
            j = i + rows
            vals[i:j, i:] = psi_eval(spec, vals[i:j, i:])
            vals[j:, i:j] = vals[i:j, j:].T
    np.fill_diagonal(vals, spec.psi_at_1)
    return comp_sum(vals) / (N * N)


def variational_value(X, spec):
    """V = (1/N^2) sum_{i,j} psi(x_i . x_j), correctly rounded summation.

    The diagonal uses the analytic value psi(1) instead of evaluating
    the polynomial at a rounded inner product.  psi is evaluated once
    per unordered pair, in cache-sized blocks, with the bits of one
    pass over every pair (_value_from_gram).
    """
    if X.d != spec.d:
        raise InvalidDimensionError("point set and psi dimension differ")
    return _value_from_gram(_gram(X.expanded()), spec)


def variational_values(X, t):
    """(V_psi1, V_psi2, V_psi3) of X at degree t, in the order of KINDS."""
    return tuple(variational_value(X, make_psi(k, X.d, t)) for k in KINDS)


def design_values(X, t):
    """((V_psi1, V_psi2, V_psi3), residual) of X at degree t, the one
    source of a set's reported V's: on S^2 read (_s2_values) from the
    full WeylResidual returned with them, for d > 2 pair sums
    (variational_values) with residual None."""
    if X.d == 2:
        res = weyl_residual(X, t)
        return _s2_values(res, X.N), res
    return variational_values(X, t), None


def variational_value_and_param_gradient(p, t):
    """V_psi3 at degree t and its gradient in the packed free angles of p.

    This is the L-BFGS-B objective.  One Gram matrix, of the coordinates
    the angles build (no PointSet), serves both: the value has the bits
    of variational_value, and the gradient is the chain rule applied to
    row k = (2/N^2) sum_{i != k} psi'(x_i . x_k) x_i of the expanded set.
    """
    spec = make_psi(PSI3, p.d, t)
    coords, chain = _points_and_chain(p)
    if p.symmetric:
        coords = np.vstack([coords, -coords])
    g = _gram(coords)
    # psi' first: the value may overwrite g
    w = specfun.jacobi_deriv(spec.alpha + 1.0, spec.alpha, t, g)
    value = _value_from_gram(g, spec)
    np.fill_diagonal(w, 0.0)
    N = g.shape[0]
    return value, chain((2.0 / (N * N)) * (w @ coords))


@dataclass(frozen=True)
class WeylResidual:
    """Weyl sums r_{ell,k} over a point set on S^2.

    r, read-only, is ordered by ascending degree with the fixed
    in-degree order of the harmonic basis; rtr is r^T r, correctly
    rounded, summed from it once.  weights is the psi_3 least-squares
    weight a_ell / Z(2, ell), the same float a0 for every row since
    a_ell = a0 Z(2, ell).  tables are the Schmidt and trigonometric
    tables of the points the sums ran over, which weyl_jacobian reuses;
    they hold about (t+1)(t+2)/2 + 2t+1 doubles per point, and a caller
    that needs only the sums should drop them.  reduced is true for
    weyl_residual_reduced: the sums ran over the representatives of a
    symmetric set and r holds the even-degree rows, doubled.
    """
    t: int
    r: np.ndarray
    weights: float
    tables: specfun.HarmonicTables = field(repr=False, compare=False)
    reduced: bool = False
    rtr: float = field(init=False)

    def __post_init__(self):
        self.r.setflags(write=False)
        object.__setattr__(self, "rtr", float(comp_sum(self.r * self.r)))


def _weyl_sums(t, coords, even=False):
    """Row sums of the harmonic values of degrees 1..t (the even degrees
    alone if even) at the (M, 3) array coords, and the tables they came
    from.

    The value table is never held whole: its rows are formed from the
    tables and summed in blocks of at most _PAIR_BLOCK elements (one
    block if the table fits).  Values are elementwise and comp_sum
    gives each row the bits it has alone, so the sums have the bits of
    one pass over the whole table.
    """
    lay = specfun._basis_layout(t, even)  # refuses t before any table
    M = coords.shape[0]
    tables = specfun._harmonic_tables(t, coords)
    sums = np.empty(lay.rows.size)
    step = max(1, _PAIR_BLOCK // M)
    for i in range(0, sums.size, step):
        rows = slice(i, i + step)
        sums[rows] = comp_sum(specfun._harmonic_values(tables, lay, rows),
                              axis=1)
    return sums, tables


def weyl_residual(X, t):
    """Weyl sums r_{ell,k} = sum_j Y_{ell,k}(x_j) for ell = 1..t (d = 2),
    over the expanded points, with the psi_3 weight.  The harmonic
    values are summed in row blocks (_weyl_sums), so no table of all of
    them is held."""
    if X.d != 2:
        raise InvalidDimensionError("Weyl residuals require d = 2")
    weights = make_psi(PSI3, 2, t).a0
    r, tables = _weyl_sums(t, X.expanded())
    return WeylResidual(t=t, r=r, weights=weights, tables=tables)


def weyl_residual_reduced(X, t):
    """Residual restricted to even degrees for a symmetric set, with the
    psi_3 weight.

    The sums run over the representatives and are doubled; odd degrees
    cancel identically by symmetry so they are neither built nor summed.
    """
    if X.d != 2:
        raise InvalidDimensionError("Weyl residuals require d = 2")
    if not X.symmetric:
        raise InvalidParameterError("reduced residual needs a symmetric set")
    weights = make_psi(PSI3, 2, t).a0
    r, tables = _weyl_sums(t, X.coords, even=True)
    return WeylResidual(t=t, r=2.0 * r, weights=weights, tables=tables,
                        reduced=True)


def weyl_jacobian(residual):
    """Jacobian of a Weyl residual w.r.t. the packed angles (d = 2).

    Rows follow the residual; columns follow the ParamVector packing of
    the points the sums ran over (the representatives, for a reduced
    residual).  Column k is the derivative w.r.t. one point's own angle
    at a free slot, read from its coordinates, for any set, canonical
    or not.  It is the derivative w.r.t. a packed angle only while that
    angle lies in its box: a colatitude past pi gives the same point
    and the column with the opposite sign, so pointset._moved clips
    every step.  The result is C-contiguous: the normal equations built
    from it must not depend on how it was assembled.
    """
    d1, d2 = specfun.sph_harmonics_s2_jacobian(residual.tables,
                                               residual.reduced)
    if residual.reduced:
        d1 *= 2.0
        d2 *= 2.0
    return _s2_param_columns(d1, d2)
