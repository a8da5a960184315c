"""Finding point sets with vanishing design criteria.

Two engines are provided.  For S^2 a Levenberg-Marquardt iteration on
the weighted Weyl-sum residual, with the search direction solving
(A^T D A + nu I) p = -A^T D r.  For any dimension a bound-constrained
limited-memory quasi-Newton minimization of the variational value V.

generate_design runs seeded start plans, antipodal ones first, through
one loop and keeps, among the runs that reach the design tolerance, the
one with the smallest mesh ratio.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from . import bounds as bounds_mod
from . import criteria, geometry
from .criteria import make_psi, PSI2, PSI3
from .errors import InvalidDimensionError, InvalidParameterError
from .pointset import (PointSet, ParamVector, TWO_PI, normalize_pointset,
                       param_to_points, points_to_param)

CLASS_DESIGN = "design-within-tolerance"
CLASS_LOCAL = "local-minimum-positive"

_LM_NU0 = 1e-2
_LM_NU_UP = 10.0
_LM_NU_DOWN = 0.3
_LM_MAX_ITERATIONS = 400     # LM iterations per solve
_GRAD_MAX_ITERATIONS = 4000  # quasi-Newton iterations per sweep
_GRADIENT_TOLERANCE = 1e-13
_V_TOL = 5e-15               # relative to psi(1)
_HOP_SIGMAS = (0.02, 0.05, 0.12)
_MAX_HOPS = 12
_HOP_STALE_LIMIT = 6
_STALL_WINDOW = 40
_STALL_FACTOR = 1.01
_RHO_REFINE = 1.85
_REFINE_TICKETS = 18


@dataclass(frozen=True)
class SolveOptions:
    restarts: int = 5
    seed: int = 0


def _r_tolerance(N):
    # at this level every scaled Weyl sum |r|/N is below 3.2e-13, so a
    # converged solve also passes design verification
    return 1e-25 * N * N


@dataclass
class SolveResult:
    """Outcome of one solve at degree t.

    v1, v2, v3 are the variational values of psi1, psi2, psi3.  On S^2
    solves are judged and compared by rtr alone, so these dense N x N
    values are computed on first read: discarded hop and refine trials
    never pay for them.
    """
    pointset: PointSet
    converged: bool
    rtr: float  # nan when d > 2
    iterations: int
    geometry: Optional[geometry.GeometryReport]
    t: int

    @property
    def classification(self):
        return CLASS_DESIGN if self.converged else CLASS_LOCAL

    @cached_property
    def variational(self):
        """(v1, v2, v3)."""
        return criteria.variational_values(self.pointset, self.t)

    @property
    def v1(self):
        return self.variational[0]

    @property
    def v2(self):
        return self.variational[1]

    @property
    def v3(self):
        return self.variational[2]


def initial_points(d, N, kind, seed=0):
    """Starting configurations: generalized spiral or golden-angle
    lattice (d = 2), isotropic random points, or a mirrored random half
    for symmetric searches."""
    if N < 2:
        raise InvalidParameterError("need at least two points")
    if kind == "equal_area_spiral":
        if d != 2:
            raise InvalidDimensionError("the spiral start is for d = 2 only")
        return _spiral(N)
    if kind == "fibonacci":
        if d != 2:
            raise InvalidDimensionError("the lattice start is for d = 2 only")
        return _fibonacci(N)
    if kind == "random_uniform":
        rng = np.random.default_rng(seed)
        coords = rng.standard_normal((N, d + 1))
        coords /= np.linalg.norm(coords, axis=1)[:, None]
        return PointSet(d=d, coords=coords)
    if kind == "symmetric_double":
        if N % 2:
            raise InvalidParameterError("symmetric starts need even N")
        rng = np.random.default_rng(seed)
        coords = rng.standard_normal((N // 2, d + 1))
        coords /= np.linalg.norm(coords, axis=1)[:, None]
        return PointSet(d=d, coords=coords, symmetric=True)
    raise InvalidParameterError("unknown start kind %r" % (kind,))


def _spiral(N):
    """Generalized spiral on S^2: latitudes uniform in height, azimuth
    advancing by about 3.6/sqrt(N) per point along the spiral."""
    h = -1.0 + 2.0 * np.arange(N) / (N - 1.0)
    theta = np.arccos(np.clip(h, -1.0, 1.0))
    phi = np.zeros(N)
    for k in range(1, N - 1):
        phi[k] = phi[k - 1] + 3.6 / np.sqrt(N * (1.0 - h[k] * h[k]))
    phi %= TWO_PI
    coords = np.stack([np.cos(theta),
                       np.sin(theta) * np.cos(phi),
                       np.sin(theta) * np.sin(phi)], axis=1)
    return PointSet(d=2, coords=coords)


def _fibonacci(N):
    """Golden-angle lattice on S^2: heights offset by half a step,
    azimuth advancing by 2 pi / phi^2 per point.  Very uniform, so
    descent from it tends to land in well-conditioned basins."""
    k = np.arange(N)
    z = 1.0 - 2.0 * (k + 0.5) / N
    phi = 2.0 * np.pi * k * (2.0 / (1.0 + np.sqrt(5.0)))
    s = np.sqrt(np.clip(1.0 - z * z, 0.0, 1.0))
    return PointSet(d=2, coords=np.stack([z, s * np.cos(phi),
                                          s * np.sin(phi)], axis=1))


def _pack(X0):
    Xn, _ = normalize_pointset(X0)
    return points_to_param(Xn)


def _moved(p, values):
    """p with new angles, projected back into the angle box."""
    out = np.array(values)
    azim = p.upper > np.pi + 1e-9
    out[azim] = np.mod(out[azim], TWO_PI)
    np.clip(out, p.lower, p.upper, out=out)
    return ParamVector(d=p.d, N=p.N, symmetric=p.symmetric, values=out)


def _kick(X, rng, sigma):
    """X with Gaussian noise of strength sigma on its packed angles."""
    p = _pack(X)
    return param_to_points(
        _moved(p, p.values + rng.normal(0.0, sigma, p.values.size)))


def _make_result(X, t, iterations):
    """Build a SolveResult, deciding convergence from the final Weyl
    sums (d = 2) or variational values (d > 2)."""
    result = SolveResult(pointset=X, converged=False, rtr=float("nan"),
                         iterations=iterations, geometry=None, t=t)
    if X.d == 2:
        result.rtr = criteria.weyl_residual(X, t).rtr
        result.converged = result.rtr <= _r_tolerance(X.N)
    else:
        result.converged = all(
            abs(v) <= _V_TOL * make_psi(k, X.d, t).psi_at_1
            for v, k in zip(result.variational, criteria.KINDS))
    return result


def minimize_variational(X0, spec):
    """Bound-constrained quasi-Newton minimization of V over the packed
    angles.  Accepted iterates never increase V; the result is
    re-normalized before reporting."""
    if X0.d != spec.d:
        raise InvalidDimensionError("point set and psi dimension differ")
    p0 = _pack(X0)
    if p0.values.size == 0:
        return _make_result(param_to_points(p0), spec.t, 0)

    def fun(values):
        return criteria.variational_value_and_param_gradient(
            _moved(p0, values), spec)

    def sweep(x0):
        return minimize(fun, x0, jac=True, method="L-BFGS-B",
                        bounds=list(zip(p0.lower, p0.upper)),
                        options={"maxiter": _GRAD_MAX_ITERATIONS,
                                 "maxfun": 4 * _GRAD_MAX_ITERATIONS,
                                 "ftol": 1e-18, "gtol": _GRADIENT_TOLERANCE})

    res = sweep(p0.values)
    best = res.x
    its = int(res.nit)
    # a restarted second sweep often gains a few orders of magnitude
    if res.fun > _V_TOL * spec.psi_at_1:
        res2 = sweep(res.x)
        if res2.fun <= res.fun:
            best = res2.x
        its += int(res2.nit)
    X, _ = normalize_pointset(param_to_points(_moved(p0, best)))
    return _make_result(X, spec.t, its)


def _lsq_residual(p, t):
    X = param_to_points(p)
    if p.symmetric:
        res = criteria.weyl_residual_reduced(X, t)
    else:
        res = criteria.weyl_residual(X, t)
    return X, res


def solve_lsq(X0, t):
    """Levenberg-Marquardt on the Weyl residual (d = 2), weighted by the
    constant psi3 diagonal.

    A symmetric X0 is solved on its representatives and even-degree
    rows only.  A start with no free angles is reported as it is.  A
    solve runs at most _LM_MAX_ITERATIONS iterations.
    """
    if X0.d != 2:
        raise InvalidDimensionError("least squares requires d = 2")
    p = _pack(X0)
    if p.values.size == 0:
        return _make_result(param_to_points(p), t, 0)
    r_tol = _r_tolerance(X0.N)
    X, res = _lsq_residual(p, t)
    w = res.weights
    f = float(np.dot(w * res.r, res.r))
    nu = _LM_NU0
    its = 0
    f_hist = [f]
    eye = np.eye(p.values.size)
    while its < _LM_MAX_ITERATIONS:
        if res.rtr <= r_tol:
            break
        # a flatlining objective far from the tolerance is a local
        # minimum; cut the run instead of grinding out the full cap
        if (len(f_hist) > _STALL_WINDOW
                and f > f_hist[-_STALL_WINDOW - 1] / _STALL_FACTOR
                and res.rtr > 1e6 * r_tol):
            break
        A = criteria.weyl_jacobian(X, t, res)
        g = A.T @ (w * res.r)
        if np.max(np.abs(2.0 * g)) <= _GRADIENT_TOLERANCE and nu > 1e10:
            break
        B = A.T @ (w[:, None] * A)
        stepped = False
        for _ in range(60):
            try:
                direction = np.linalg.solve(B + nu * eye, -g)
            except np.linalg.LinAlgError:
                nu *= _LM_NU_UP
                continue
            trial = _moved(p, p.values + direction)
            Xt, rest = _lsq_residual(trial, t)
            ft = float(np.dot(w * rest.r, rest.r))
            if ft < f:
                p, X, res, f = trial, Xt, rest, ft
                nu = max(nu * _LM_NU_DOWN, 1e-14)
                stepped = True
                break
            nu *= _LM_NU_UP
            if nu > 1e14:
                break
        its += 1
        f_hist.append(f)
        if not stepped:
            break
    return _make_result(X, t, its)


def solve_lsq_with_hops(X0, t, seed=0, hops=_MAX_HOPS):
    """solve_lsq with local-minimum escapes.

    A stalled run is kicked (strength cycling through _HOP_SIGMAS) and
    re-solved; a trial is kept when it converges or improves the
    residual.  The hops end at convergence, after `hops` trials, or
    after _HOP_STALE_LIMIT rejected trials in a row.
    """
    result = solve_lsq(X0, t)
    rng = np.random.default_rng(seed)
    stale = 0
    for k in range(hops):
        if result.converged or stale >= _HOP_STALE_LIMIT:
            break
        trial = solve_lsq(
            _kick(result.pointset, rng, _HOP_SIGMAS[k % len(_HOP_SIGMAS)]), t)
        if trial.converged or _obj(trial) < _obj(result):
            trial.iterations += result.iterations
            result = trial
            stale = 0
        else:
            stale += 1
    return result


def _obj(result):
    return result.rtr if result.rtr == result.rtr else max(
        abs(result.v1), abs(result.v2), abs(result.v3))


def _scored(result, best):
    """The better of two candidates: result if it converged with a lower
    mesh ratio than best (or best is None), else best, so the earlier
    candidate wins ties.  A converged result gets its geometry."""
    if not result.converged:
        return best
    result.geometry = geometry.mesh_ratio(result.pointset, accuracy=1e-4)
    if best is None or result.geometry.rho < best.geometry.rho:
        return result
    return best


def generate_design(d, t, N=None, symmetric=False, opts=SolveOptions(),
                    method=None, psi=None):
    """Multi-start pipeline: default N, seeded starts, solve, verify,
    keep the converged run with the smallest mesh ratio.

    method "lm" is Levenberg-Marquardt with hops (d = 2 only, the
    default there); "grad" is quasi-Newton descent on the variational
    value of psi (default psi3, psi2 on S^2).  The start plans run in
    this order, the earlier winning ties on mesh ratio:

    - antipodal ("lm", odd t, even N, not symmetric): 4 * restarts
      mirrored random starts, solved for the N/2 representatives with
      _MAX_HOPS hops, then expanded.  They satisfy every odd degree
      structurally, which leaves an even-degree system with slack.
    - general: `restarts` starts (spiral, golden-angle lattice, then
      random on S^2; random for d > 2; mirrored random if symmetric),
      with _MAX_HOPS hops while no plan has converged, then 2.

    If none converges, the general run with the lowest residual is
    returned.  With "lm" a refine pass re-solves gently kicked copies
    of the winner while its mesh ratio exceeds _RHO_REFINE.
    """
    if t < 1:
        raise InvalidParameterError("t must be >= 1")
    if symmetric and t % 2 == 0:
        raise InvalidParameterError("symmetric designs target odd t")
    if opts.seed < 0:
        raise InvalidParameterError("seed must be >= 0, got %d" % opts.seed)
    if opts.restarts < 1:
        raise InvalidParameterError(
            "restarts must be >= 1, got %d" % opts.restarts)
    if method is None:
        method = "lm" if d == 2 else "grad"
    if method not in ("lm", "grad"):
        raise InvalidParameterError("unknown method %r" % (method,))
    if method == "lm" and d != 2:
        raise InvalidDimensionError("method 'lm' requires d = 2")
    if method == "lm" and psi is not None:
        raise InvalidParameterError("psi applies to method 'grad' only")
    if N is None:
        N = bounds_mod.n_default(d, t, symmetric)
    plans = []
    if method == "lm" and not symmetric and t % 2 == 1 and N % 2 == 0:
        plans += [("symmetric_double", opts.seed + 4000037 * (k + 1), True)
                  for k in range(4 * opts.restarts)]
    for k in range(opts.restarts):
        if symmetric:
            kind = "symmetric_double"
        elif d == 2 and k < 2:
            kind = ("equal_area_spiral", "fibonacci")[k]
        else:
            kind = "random_uniform"
        plans.append((kind, opts.seed + 1000003 * k, False))
    if method == "grad":
        spec = make_psi(psi if psi is not None else (PSI3 if d > 2 else PSI2),
                        d, t)
    best = None
    best_any = None
    for kind, seed, antipodal in plans:
        X0 = initial_points(d, N, kind, seed)
        if method == "lm":
            result = solve_lsq_with_hops(
                X0, t, seed=seed + 1,
                hops=_MAX_HOPS if antipodal or best is None else 2)
        else:
            result = minimize_variational(X0, spec)
        if antipodal:
            # the expanded points are those the solve's final Weyl sums
            # already ran over, so rtr and convergence stand
            result.pointset = result.pointset.expand()
        elif best_any is None or _obj(result) < _obj(best_any):
            best_any = result
        best = _scored(result, best)
    if method == "lm" and best is not None:
        # the accepted design may sit in a poorly covered basin; nearby
        # basins reached by gentle kicks often have a better mesh ratio
        rng = np.random.default_rng(opts.seed + 777)
        for _ in range(_REFINE_TICKETS):
            if best.geometry.rho <= _RHO_REFINE:
                break
            trial = solve_lsq(_kick(best.pointset, rng, _HOP_SIGMAS[0]), t)
            best = _scored(trial, best)
    result = best if best is not None else best_any
    if result.geometry is None:
        result.geometry = geometry.mesh_ratio(result.pointset, accuracy=1e-4)
    # the returned design alone gets its variational values, here
    # rather than at the caller's first read
    result.variational  # noqa: B018
    return result
