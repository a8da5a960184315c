"""Finding point sets with vanishing design criteria.

Two engines are provided.  For S^2 a Levenberg-Marquardt iteration on
the weighted Weyl-sum residual, with the search direction solving
(A^T D A + nu I) p = -A^T D r.  For any dimension a bound-constrained
limited-memory quasi-Newton minimization of the variational value V.
A multi-start driver runs several seeded starts and keeps, among the
runs that reach the design tolerance, the one with the smallest mesh
ratio.
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
from .pointset import (PointSet, ParamVector, TWO_PI, n_free, normalize_pointset,
                       param_to_points, points_to_param)

CLASS_DESIGN = "design-within-tolerance"
CLASS_LOCAL = "local-minimum-positive"


@dataclass(frozen=True)
class SolveOptions:
    max_iterations: int = 400        # LM iterations
    grad_max_iterations: int = 4000  # quasi-Newton iterations
    gradient_tolerance: float = 1e-13
    v_tol: float = 5e-15             # relative to psi(1)
    r_tol: Optional[float] = None    # default 1e-25 * N^2
    lm_nu0: float = 1e-2
    lm_nu_up: float = 10.0
    lm_nu_down: float = 0.3
    restarts: int = 5
    seed: int = 0

    def r_tolerance(self, N):
        # at this level every scaled Weyl sum |r|/N is below 3.2e-13,
        # so a converged solve also passes design verification
        return 1e-25 * N * N if self.r_tol is None else self.r_tol


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
        X = self.pointset
        return tuple(criteria.variational_value(X, make_psi(k, X.d, self.t))
                     for k in criteria.KINDS)

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


def _clip_wrap(p, values):
    """Project a trial step back into the angle box."""
    out = np.array(values)
    azim = p.upper > np.pi + 1e-9
    out[azim] = np.mod(out[azim], TWO_PI)
    np.clip(out, p.lower, p.upper, out=out)
    return out


def _make_result(X, t, iterations, opts):
    """Build a SolveResult, deciding convergence from the final Weyl
    sums (d = 2) or variational values (d > 2)."""
    result = SolveResult(pointset=X, converged=False, rtr=float("nan"),
                         iterations=iterations, geometry=None, t=t)
    if X.d == 2:
        result.rtr = criteria.weyl_residual(X, t).rtr
        result.converged = result.rtr <= opts.r_tolerance(X.N)
    else:
        result.converged = all(
            abs(v) <= opts.v_tol * make_psi(k, X.d, t).psi_at_1
            for v, k in zip(result.variational, criteria.KINDS))
    return result


def minimize_variational(X0, spec, opts=SolveOptions()):
    """Bound-constrained quasi-Newton minimization of V over the packed
    angles.  Accepted iterates never increase V; the result is
    re-normalized before reporting."""
    if X0.d != spec.d:
        raise InvalidDimensionError("point set and psi dimension differ")
    p0 = _pack(X0)
    if p0.values.size == 0:
        X = param_to_points(p0)
        return _make_result(X, spec.t, 0, opts)
    target = opts.v_tol * spec.psi_at_1

    def fun(values):
        p = ParamVector(d=p0.d, N=p0.N, symmetric=p0.symmetric,
                        values=_clip_wrap(p0, values))
        return criteria.variational_value_and_param_gradient(p, spec)

    bnds = list(zip(p0.lower, p0.upper))
    res = minimize(fun, p0.values, jac=True, method="L-BFGS-B", bounds=bnds,
                   options={"maxiter": opts.grad_max_iterations,
                            "maxfun": 4 * opts.grad_max_iterations,
                            "ftol": 1e-18, "gtol": opts.gradient_tolerance})
    best = res.x
    its = int(res.nit)
    # a restarted second sweep often gains a few orders of magnitude
    if res.fun > target:
        res2 = minimize(fun, res.x, jac=True, method="L-BFGS-B", bounds=bnds,
                        options={"maxiter": opts.grad_max_iterations,
                                 "maxfun": 4 * opts.grad_max_iterations,
                                 "ftol": 1e-18, "gtol": opts.gradient_tolerance})
        if res2.fun <= res.fun:
            best = res2.x
        its += int(res2.nit)
    p = ParamVector(d=p0.d, N=p0.N, symmetric=p0.symmetric,
                    values=_clip_wrap(p0, best))
    X, _ = normalize_pointset(param_to_points(p))
    return _make_result(X, spec.t, its, opts)


def _lsq_residual(p, t, spec):
    X = param_to_points(p)
    if p.symmetric:
        res = criteria.weyl_residual_reduced(X, t, spec)
    else:
        res = criteria.weyl_residual(X, t, spec)
    return X, res


def solve_lsq(X0, t, symmetric=False, weights="psi3_constant",
              opts=SolveOptions()):
    """Levenberg-Marquardt on the weighted Weyl residual (d = 2).

    weights may be the string "psi3_constant" (constant diagonal) or a
    PsiSpec whose Legendre coefficients set the diagonal.  Symmetric
    mode works on the representatives and even-degree rows only.
    """
    if X0.d != 2:
        raise InvalidDimensionError("least squares requires d = 2")
    if symmetric and not X0.symmetric:
        raise InvalidParameterError("symmetric solve needs a symmetric start")
    spec = make_psi(PSI3, 2, t) if weights == "psi3_constant" else weights
    p = _pack(X0)
    r_tol = opts.r_tolerance(X0.N)
    X, res = _lsq_residual(p, t, spec)
    w = res.weights
    f = float(np.dot(w * res.r, res.r))
    nu = opts.lm_nu0
    its = 0
    f_hist = [f]
    eye = np.eye(p.values.size)
    while its < opts.max_iterations:
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
        if np.max(np.abs(2.0 * g)) <= opts.gradient_tolerance and nu > 1e10:
            break
        B = A.T @ (w[:, None] * A)
        stepped = False
        for _ in range(60):
            try:
                direction = np.linalg.solve(B + nu * eye, -g)
            except np.linalg.LinAlgError:
                nu *= opts.lm_nu_up
                continue
            trial_values = _clip_wrap(p, p.values + direction)
            trial = ParamVector(d=p.d, N=p.N, symmetric=p.symmetric,
                                values=trial_values)
            Xt, rest = _lsq_residual(trial, t, spec)
            ft = float(np.dot(w * rest.r, rest.r))
            if ft < f:
                p, X, res, f = trial, Xt, rest, ft
                nu = max(nu * opts.lm_nu_down, 1e-14)
                stepped = True
                break
            nu *= opts.lm_nu_up
            if nu > 1e14:
                break
        its += 1
        f_hist.append(f)
        if not stepped:
            break
    return _make_result(X, t, its, opts)


def generate_design(d, t, N=None, symmetric=False, opts=SolveOptions(),
                    method=None, psi=None):
    """Multi-start pipeline: default N, seeded starts, solve, verify,
    keep the converged run with the smallest mesh ratio.

    For d = 2 a stalled least-squares run escapes its local minimum by
    perturbation hops; if no start converges and t is odd with even N,
    an antipodal configuration is tried, which satisfies every odd
    degree structurally.
    """
    if t < 1:
        raise InvalidParameterError("t must be >= 1")
    if symmetric and t % 2 == 0:
        raise InvalidParameterError("symmetric designs target odd t")
    if N is None:
        N = bounds_mod.n_default(d, t, symmetric)
    if method is None:
        method = "lm" if d == 2 else "grad"
    best = None
    best_any = None
    if d == 2 and method == "lm" and not symmetric and t % 2 == 1 \
            and N % 2 == 0:
        # antipodal candidates satisfy every odd degree structurally,
        # leaving an even-degree system with slack; they rescue degrees
        # where the general search stalls and also compete on mesh
        # ratio.  Each solve is cheap, so several seeds are scanned.
        for k in range(4 * max(1, opts.restarts)):
            seed = opts.seed + 4000037 * (k + 1)
            X0 = initial_points(d, N, "symmetric_double", seed)
            result = solve_lsq_with_hops(X0, t, symmetric=True, opts=opts,
                                         seed=seed + 1)
            if result.converged:
                # the expanded points are those the solve's final Weyl
                # sums already ran over, so rtr and convergence stand
                result.pointset = result.pointset.expand()
                result.geometry = geometry.mesh_ratio(result.pointset,
                                                      accuracy=1e-4)
                if best is None or result.geometry.rho < best.geometry.rho:
                    best = result
    for k in range(max(1, opts.restarts)):
        seed = opts.seed + 1000003 * k
        if symmetric:
            X0 = initial_points(d, N, "symmetric_double", seed)
        elif d == 2 and k == 0:
            X0 = initial_points(d, N, "equal_area_spiral", seed)
        elif d == 2 and k == 1:
            X0 = initial_points(d, N, "fibonacci", seed)
        else:
            X0 = initial_points(d, N, "random_uniform", seed)
        result = _run_one(X0, d, t, symmetric, opts, method, psi,
                          hop_seed=seed + 1,
                          hops=_MAX_HOPS if best is None else 2)
        if best_any is None or _obj(result) < _obj(best_any):
            best_any = result
        if result.converged:
            if result.geometry is None:
                result.geometry = geometry.mesh_ratio(result.pointset,
                                                      accuracy=1e-4)
            if best is None or result.geometry.rho < best.geometry.rho:
                best = result
    if best is not None and d == 2 and method == "lm" \
            and best.geometry.rho > _RHO_REFINE:
        # the accepted design sits in a poorly covered basin; nearby
        # basins reached by gentle kicks often have a better mesh ratio
        rng = np.random.default_rng(opts.seed + 777)
        for ticket in range(_REFINE_TICKETS):
            if best.geometry.rho <= _RHO_REFINE:
                break
            p = _pack(best.pointset)
            kicked = ParamVector(
                d=p.d, N=p.N, symmetric=p.symmetric,
                values=_clip_wrap(p, p.values + rng.normal(
                    0.0, _HOP_SIGMAS[0], p.values.size)))
            trial = solve_lsq(param_to_points(kicked), t,
                              symmetric=p.symmetric, opts=opts)
            if trial.converged:
                trial.geometry = geometry.mesh_ratio(trial.pointset,
                                                     accuracy=1e-4)
                if trial.geometry.rho < best.geometry.rho:
                    best = trial
    result = best if best is not None else best_any
    if result.geometry is None:
        result.geometry = geometry.mesh_ratio(result.pointset, accuracy=1e-4)
    # the returned design alone gets its variational values, here
    # rather than at the caller's first read
    result.variational  # noqa: B018
    return result


def _obj(result):
    return result.rtr if result.rtr == result.rtr else max(
        abs(result.v1), abs(result.v2), abs(result.v3))


_HOP_SIGMAS = (0.02, 0.05, 0.12)
_MAX_HOPS = 12
_STALL_WINDOW = 40
_STALL_FACTOR = 1.01
_RHO_REFINE = 1.85
_REFINE_TICKETS = 18
_HOP_STALE_LIMIT = 6


def solve_lsq_with_hops(X0, t, symmetric=False, weights="psi3_constant",
                        opts=SolveOptions(), seed=0, hops=_MAX_HOPS):
    """solve_lsq with local-minimum escapes.

    A stalled run is perturbed by a Gaussian kick on the packed angles
    (strength cycling through _HOP_SIGMAS) and re-solved; a trial is
    kept when it converges or improves the residual.
    """
    result = solve_lsq(X0, t, symmetric=symmetric, weights=weights, opts=opts)
    if result.converged or hops <= 0:
        return result
    rng = np.random.default_rng(seed)
    stale = 0
    for k in range(hops):
        if result.converged:
            break
        sigma = _HOP_SIGMAS[k % len(_HOP_SIGMAS)]
        p = _pack(result.pointset)
        kicked = ParamVector(
            d=p.d, N=p.N, symmetric=p.symmetric,
            values=_clip_wrap(p, p.values + rng.normal(0.0, sigma,
                                                       p.values.size)))
        trial = solve_lsq(param_to_points(kicked), t, symmetric=symmetric,
                          weights=weights, opts=opts)
        if trial.converged or _obj(trial) < _obj(result):
            trial.iterations += result.iterations
            result = trial
            stale = 0
        else:
            stale += 1
            if stale >= _HOP_STALE_LIMIT:
                break
    return result


def _run_one(X0, d, t, symmetric, opts, method, psi=None, hop_seed=None,
             hops=_MAX_HOPS):
    if d == 2 and method == "lm":
        if hop_seed is None:
            return solve_lsq(X0, t, symmetric=symmetric, opts=opts)
        return solve_lsq_with_hops(X0, t, symmetric=symmetric, opts=opts,
                                   seed=hop_seed, hops=hops)
    kind = psi if psi is not None else (PSI3 if d > 2 else PSI2)
    spec = make_psi(kind, d, t)
    return minimize_variational(X0, spec, opts)
