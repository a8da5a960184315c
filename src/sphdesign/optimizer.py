"""Finding point sets with vanishing design criteria.

Two engines are provided.  For S^2 a Levenberg-Marquardt iteration on
the Weyl-sum residual r with the constant psi_3 weight a0, with the
search direction solving (a0 A^T A + nu I) p = -a0 A^T r.  For any
dimension a bound-constrained limited-memory quasi-Newton minimization
of the variational value V_psi3.

generate_design lets the dimension pick the engine: Levenberg-Marquardt
on S^2, quasi-Newton descent on V_psi3 for d > 2.  It runs seeded start
plans, antipodal ones first, through one loop and keeps, among the runs
that reach the design tolerance, the one with the smallest mesh ratio.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from . import bounds as bounds_mod
from . import criteria, geometry, specfun
from .criteria import make_psi
from .errors import (InvalidDimensionError, InvalidParameterError,
                     UndefinedMetricError)
from .pointset import (PointSet, TWO_PI, _moved, param_to_points,
                       points_to_param)

_LM_NU0 = 1e-2
_LM_NU_UP = 10.0
_LM_NU_DOWN = 0.3
_LM_MAX_ITERATIONS = 400     # LM iterations per solve
_GRAD_MAX_ITERATIONS = 4000  # quasi-Newton iterations per solve
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

    v1, v2, v3 are the variational values of psi1, psi2, psi3 at the
    final points (criteria.design_values): on S^2 weighted sums of
    squares of the Weyl sums that also give rtr, for d > 2 pair sums.
    """
    pointset: PointSet
    converged: bool
    rtr: float  # nan when d > 2
    v1: float
    v2: float
    v3: float
    iterations: int
    geometry: Optional[geometry.GeometryReport]


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
    if kind in ("random_uniform", "symmetric_double"):
        symmetric = kind == "symmetric_double"
        if symmetric and N % 2:
            raise InvalidParameterError("symmetric starts need even N")
        rng = np.random.default_rng(seed)
        coords = rng.standard_normal((N // 2 if symmetric else N, d + 1))
        coords /= np.linalg.norm(coords, axis=1)[:, None]
        return PointSet(d=d, coords=coords, symmetric=symmetric)
    raise InvalidParameterError("unknown start kind %r" % (kind,))


def _spiral(N):
    """Generalized spiral on S^2: latitudes uniform in height, azimuth
    advancing by about 3.6/sqrt(N) per point along the spiral."""
    h = -1.0 + 2.0 * np.arange(N) / (N - 1.0)
    theta = np.arccos(np.clip(h, -1.0, 1.0))
    phi = np.zeros(N)
    np.cumsum(3.6 / np.sqrt(N * (1.0 - h[1:-1] * h[1:-1])), out=phi[1:-1])
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


def _kick(X, rng, sigma):
    """X with Gaussian noise of strength sigma on its packed angles."""
    p = points_to_param(X)
    return param_to_points(
        _moved(p, p.values + rng.normal(0.0, sigma, p.values.size)))


def _make_result(X, t, iterations):
    """Build a SolveResult from one criteria.design_values call, deciding
    convergence from the final Weyl sums (d = 2) or variational values
    (d > 2)."""
    vs, res = criteria.design_values(X, t)
    if res is not None:
        rtr = res.rtr
        converged = rtr <= _r_tolerance(X.N)
    else:
        rtr = float("nan")
        converged = all(abs(v) <= _V_TOL * make_psi(k, X.d, t).psi_at_1
                        for v, k in zip(vs, criteria.KINDS))
    return SolveResult(X, converged, rtr, *vs, iterations=iterations,
                       geometry=None)


def minimize_variational(X0, t):
    """Bound-constrained quasi-Newton minimization of V_psi3 at degree t
    over the packed angles of X0.  Accepted iterates never increase V."""
    p0 = points_to_param(X0)
    if p0.values.size == 0:
        return _make_result(param_to_points(p0), t, 0)

    def fun(values):
        return criteria.variational_value_and_param_gradient(
            _moved(p0, values), t)

    res = minimize(fun, p0.values, jac=True, method="L-BFGS-B",
                   bounds=list(zip(p0.lower, p0.upper)),
                   options={"maxiter": _GRAD_MAX_ITERATIONS,
                            "maxfun": 4 * _GRAD_MAX_ITERATIONS,
                            "ftol": 1e-18, "gtol": _GRADIENT_TOLERANCE})
    return _make_result(param_to_points(_moved(p0, res.x)), t,
                        int(res.nit))


def _lsq_residual(p, t):
    X = param_to_points(p)
    if p.symmetric:
        res = criteria.weyl_residual_reduced(X, t)
    else:
        res = criteria.weyl_residual(X, t)
    return X, res


def solve_lsq(X0, t):
    """Levenberg-Marquardt on the Weyl residual (d = 2), weighted by the
    constant psi_3 weight.

    A symmetric X0 is solved on its representatives and even-degree
    rows only.  A start with no free angles is reported as it is.  A
    solve runs at most _LM_MAX_ITERATIONS iterations, and ends early
    when no damping up to nu = 1e14 lowers the objective.
    """
    if X0.d != 2:
        raise InvalidDimensionError("least squares requires d = 2")
    specfun.row_degrees(t)  # refuses t above the harmonic cap, before packing
    p = points_to_param(X0)
    if p.values.size == 0:
        return _make_result(param_to_points(p), t, 0)
    r_tol = _r_tolerance(X0.N)
    X, res = _lsq_residual(p, t)
    w = res.weights
    f = float(np.dot(w * res.r, res.r))
    nu = _LM_NU0
    its = 0
    f_hist = [f]
    while its < _LM_MAX_ITERATIONS:
        if res.rtr <= r_tol:
            break
        # a flatlining objective far from the tolerance is a local
        # minimum; cut the run instead of grinding out the full cap
        if (len(f_hist) > _STALL_WINDOW
                and f > f_hist[-_STALL_WINDOW - 1] / _STALL_FACTOR
                and res.rtr > 1e6 * r_tol):
            break
        A = criteria.weyl_jacobian(res)
        g = A.T @ (w * res.r)
        B = A.T @ (w * A)
        diag = B.diagonal().copy()
        stepped = False
        # a singular system is rejected like a step that fails to
        # lower f, so every path raises nu and ends past 1e14
        while nu <= 1e14:
            # B + nu I in place: the values of B + nu * I without an
            # identity or a damped copy of B
            np.fill_diagonal(B, diag + nu)
            try:
                direction = np.linalg.solve(B, -g)
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
    candidate wins ties.  A converged result gets its geometry; one
    without a mesh ratio (coincident points) is passed over as if it
    had not converged."""
    if not result.converged:
        return best
    try:
        result.geometry = geometry.mesh_ratio(result.pointset)
    except UndefinedMetricError:
        return best
    if best is None or result.geometry.rho < best.geometry.rho:
        return result
    return best


def generate_design(d, t, N=None, symmetric=False, opts=SolveOptions()):
    """Multi-start pipeline: default N, seeded starts, solve, verify,
    keep the converged run with the smallest mesh ratio.

    The dimension picks the engine: on S^2 Levenberg-Marquardt with
    hops, for d > 2 quasi-Newton descent on the variational value of
    psi3.  The start plans run in this order, the earlier winning ties
    on mesh ratio:

    - antipodal (S^2, odd t, even N, not symmetric): 4 * restarts
      mirrored random starts, solved for the N/2 representatives with
      _MAX_HOPS hops, then expanded.  They satisfy every odd degree
      structurally, which leaves an even-degree system with slack.
    - general: `restarts` starts (spiral, golden-angle lattice, then
      random on S^2; random for d > 2; mirrored random if symmetric),
      with _MAX_HOPS hops while no plan has converged, then 2.

    If none converges, the general run with the lowest residual is
    returned.  On S^2 a refine pass re-solves gently kicked copies of
    the winner while its mesh ratio exceeds _RHO_REFINE.
    """
    if d < 2:
        raise InvalidDimensionError("generation needs d >= 2, got %r" % (d,))
    if t < 1:
        raise InvalidParameterError("t must be >= 1")
    if symmetric and t % 2 == 0:
        raise InvalidParameterError("symmetric designs target odd t")
    if opts.seed < 0:
        raise InvalidParameterError("seed must be >= 0, got %d" % opts.seed)
    if opts.restarts < 1:
        raise InvalidParameterError(
            "restarts must be >= 1, got %d" % opts.restarts)
    if d == 2:
        specfun.row_degrees(t)  # refuses t above the harmonic cap up front
    if N is None:
        N = bounds_mod.n_default(d, t, symmetric)
    plans = []
    if d == 2 and not symmetric and t % 2 == 1 and N % 2 == 0:
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
    best = None
    best_any = None
    for kind, seed, antipodal in plans:
        X0 = initial_points(d, N, kind, seed)
        if d == 2:
            result = solve_lsq_with_hops(
                X0, t, seed=seed + 1,
                hops=_MAX_HOPS if antipodal or best is None else 2)
        else:
            result = minimize_variational(X0, t)
        if antipodal:
            # the expanded points are those the solve's final Weyl sums
            # already ran over, so rtr, the V's and convergence stand
            result.pointset = result.pointset.expand()
        elif best_any is None or _obj(result) < _obj(best_any):
            best_any = result
        best = _scored(result, best)
    if d == 2 and best is not None and best.geometry.rho > _RHO_REFINE:
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
        result.geometry = geometry.mesh_ratio(result.pointset)
    return result
