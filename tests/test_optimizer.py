"""Solvers: starts, descent engines, and the multi-start driver."""

import numpy as np
import pytest

from sphdesign import bounds as bounds_mod
from sphdesign import geometry, optimizer
from sphdesign.criteria import PSI1, PSI2, PSI3, make_psi, variational_value
from sphdesign.errors import InvalidDimensionError, InvalidParameterError
from sphdesign.optimizer import (CLASS_DESIGN, CLASS_LOCAL, SolveOptions,
                                 _HOP_SIGMAS, _HOP_STALE_LIMIT, _MAX_HOPS,
                                 _REFINE_TICKETS, _RHO_REFINE, _kick, _obj,
                                 _pack, generate_design, initial_points,
                                 minimize_variational, solve_lsq)
from sphdesign.pointset import (ParamVector, TWO_PI, is_normalized,
                                param_to_points)
from sphdesign.quadrature import verify_design


class TestInitialPoints:
    def test_spiral(self):
        X = initial_points(2, 30, "equal_area_spiral")
        assert X.N == 30
        assert np.allclose(np.linalg.norm(X.coords, axis=1), 1.0, atol=1e-12)
        # spiral points are reasonably spread: no pair closer than 1/N
        g = X.coords @ X.coords.T
        np.fill_diagonal(g, -1.0)
        assert np.max(g) < np.cos(1.0 / 30.0)

    def test_spiral_d2_only(self):
        with pytest.raises(InvalidDimensionError):
            initial_points(3, 10, "equal_area_spiral")

    def test_random_seeded(self):
        A = initial_points(3, 8, "random_uniform", seed=5)
        B = initial_points(3, 8, "random_uniform", seed=5)
        C = initial_points(3, 8, "random_uniform", seed=6)
        assert np.array_equal(A.coords, B.coords)
        assert not np.array_equal(A.coords, C.coords)

    def test_symmetric_double(self):
        X = initial_points(2, 10, "symmetric_double", seed=1)
        assert X.symmetric and X.N == 10
        with pytest.raises(InvalidParameterError):
            initial_points(2, 9, "symmetric_double")

    def test_unknown_kind(self):
        with pytest.raises(InvalidParameterError):
            initial_points(2, 9, "lattice")


class TestLsq:
    def test_small_design_converges(self):
        X0 = initial_points(2, 6, "equal_area_spiral")
        res = solve_lsq(X0, 2)
        assert res.converged
        assert res.rtr <= 1e-22 * 36
        assert res.classification == CLASS_DESIGN
        assert verify_design(res.pointset, 2).is_design

    def test_objective_never_increases(self, monkeypatch):
        # run twice with different iteration caps: the longer run ends
        # at least as low
        X0 = initial_points(2, 14, "equal_area_spiral")
        monkeypatch.setattr(optimizer, "_LM_MAX_ITERATIONS", 3)
        short = solve_lsq(X0, 4)
        monkeypatch.setattr(optimizer, "_LM_MAX_ITERATIONS", 50)
        long = solve_lsq(X0, 4)
        assert long.rtr <= short.rtr * (1.0 + 1e-12)

    def test_symmetric_solve(self):
        X0 = initial_points(2, 12, "symmetric_double", seed=3)
        res = solve_lsq(X0, 3)
        assert res.converged
        assert res.pointset.symmetric
        assert verify_design(res.pointset, 3).is_design

    def test_d2_only(self):
        X0 = initial_points(3, 8, "random_uniform")
        with pytest.raises(InvalidDimensionError):
            solve_lsq(X0, 2)


class TestVariationalDescent:
    def test_d3_small(self):
        X0 = initial_points(3, 7, "random_uniform", seed=2)
        res = minimize_variational(X0, make_psi(PSI3, 3, 2))
        assert res.converged
        assert verify_design(res.pointset, 2).is_design

    def test_descent_reaches_design_on_s2(self):
        X0 = initial_points(2, 8, "random_uniform", seed=1)
        res = minimize_variational(X0, make_psi(PSI2, 2, 3))
        assert abs(res.v2) < 1e-13

    def test_dimension_mismatch(self):
        X0 = initial_points(2, 9, "random_uniform")
        with pytest.raises(InvalidDimensionError):
            minimize_variational(X0, make_psi(PSI3, 3, 2))


class TestGenerate:
    def test_default_n_matches_recommended_count(self):
        from sphdesign.bounds import n_default
        res = generate_design(2, 3)
        assert res.pointset.N == n_default(2, 3) == 8
        assert res.converged

    def test_seeded_reproducibility(self):
        a = generate_design(2, 3, opts=SolveOptions(seed=4, restarts=2))
        b = generate_design(2, 3, opts=SolveOptions(seed=4, restarts=2))
        assert np.array_equal(a.pointset.coords, b.pointset.coords)

    def test_returns_geometry(self):
        res = generate_design(2, 4)
        assert res.geometry is not None
        assert res.geometry.rho >= 1.0

    def test_symmetric_generation(self):
        res = generate_design(2, 3, N=6, symmetric=True)
        assert res.converged and res.pointset.symmetric
        assert verify_design(res.pointset, 3).is_design

    def test_symmetric_needs_odd_t(self):
        with pytest.raises(InvalidParameterError):
            generate_design(2, 4, symmetric=True)

    def test_infeasible_n_reports_local_minimum(self):
        # three points cannot form a 3-design; the driver reports the
        # best failure honestly
        res = generate_design(2, 3, N=3, opts=SolveOptions(restarts=2))
        assert not res.converged
        assert res.classification == CLASS_LOCAL
        assert res.rtr > 1e-6

    def test_d3_generation_small(self):
        res = generate_design(3, 2, opts=SolveOptions(restarts=3))
        assert res.converged
        assert res.pointset.N == 7
        assert verify_design(res.pointset, 2).is_design

    def test_negative_seed(self):
        with pytest.raises(InvalidParameterError):
            generate_design(2, 2, opts=SolveOptions(seed=-5000000))

    @pytest.mark.parametrize("restarts", [0, -4])
    def test_restarts_below_one(self, restarts):
        with pytest.raises(InvalidParameterError):
            generate_design(2, 2, opts=SolveOptions(restarts=restarts))

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_start_without_free_angles(self, symmetric):
        # N = 2 at odd t solves antipodal starts of one representative,
        # which has no free angle; such a start is reported as it is
        res = generate_design(2, 3, N=2, symmetric=symmetric,
                              opts=SolveOptions(restarts=1))
        assert not res.converged and res.pointset.N == 2
        assert res.pointset.symmetric == symmetric

    def test_lm_needs_s2(self):
        with pytest.raises(InvalidDimensionError):
            generate_design(3, 2, method="lm")

    def test_psi_needs_grad(self):
        with pytest.raises(InvalidParameterError):
            generate_design(2, 3, psi=PSI1)
        with pytest.raises(InvalidParameterError):
            generate_design(2, 3, method="lm", psi=PSI1)

    def test_unknown_method(self):
        with pytest.raises(InvalidParameterError):
            generate_design(2, 3, method="newton")

    def test_antipodal_candidate(self):
        # t = 5 with N = 18 runs antipodal plans first; a winning one is
        # returned expanded, with the geometry of the expanded set
        res = generate_design(2, 5)
        X = res.pointset
        assert res.converged and X.N == 18 and not X.symmetric
        assert res.geometry == geometry.mesh_ratio(X, accuracy=1e-4)
        # with one restart an antipodal plan wins at seed 0
        res = generate_design(2, 5, opts=SolveOptions(restarts=1))
        X = res.pointset
        assert res.converged and X.N == 18 and not X.symmetric
        assert np.array_equal(X.coords[9:], -X.coords[:9])
        assert res.geometry == geometry.mesh_ratio(X, accuracy=1e-4)


class TestKick:
    @pytest.mark.parametrize("d, N, symmetric", [(2, 14, False),
                                                 (2, 12, True),
                                                 (3, 9, False)])
    def test_shape_and_repeatability(self, d, N, symmetric):
        kind = "symmetric_double" if symmetric else "random_uniform"
        X = initial_points(d, N, kind, seed=2)
        a = _kick(X, np.random.default_rng(5), 0.05)
        b = _kick(X, np.random.default_rng(5), 0.05)
        assert a.N == N and a.symmetric == symmetric
        assert is_normalized(a)
        for j in range(min(a.coords.shape[0], d + 1)):
            assert np.all(a.coords[j, j + 1:] == 0.0)
        assert np.array_equal(a.coords, b.coords)
        c = _kick(X, np.random.default_rng(6), 0.05)
        assert not np.array_equal(a.coords, c.coords)


# --- the driver as it was written before its start loop was unified:
# the antipodal scan, the general restarts with hops and the refine pass
# as three loops, each with its own kick; kept as an oracle


def _clip_wrap_reference(p, values):
    out = np.array(values)
    azim = p.upper > np.pi + 1e-9
    out[azim] = np.mod(out[azim], TWO_PI)
    np.clip(out, p.lower, p.upper, out=out)
    return out


def _hops_reference(X0, t, seed, hops):
    result = solve_lsq(X0, t)
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
            values=_clip_wrap_reference(
                p, p.values + rng.normal(0.0, sigma, p.values.size)))
        trial = solve_lsq(param_to_points(kicked), t)
        if trial.converged or _obj(trial) < _obj(result):
            trial.iterations += result.iterations
            result = trial
            stale = 0
        else:
            stale += 1
            if stale >= _HOP_STALE_LIMIT:
                break
    return result


def _generate_reference(d, t, N=None, symmetric=False, opts=SolveOptions()):
    if N is None:
        N = bounds_mod.n_default(d, t, symmetric)
    method = "lm" if d == 2 else "grad"
    best = None
    best_any = None
    if d == 2 and not symmetric and t % 2 == 1 and N % 2 == 0:
        for k in range(4 * max(1, opts.restarts)):
            seed = opts.seed + 4000037 * (k + 1)
            X0 = initial_points(d, N, "symmetric_double", seed)
            result = _hops_reference(X0, t, seed + 1, _MAX_HOPS)
            if result.converged:
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
        if method == "lm":
            result = _hops_reference(X0, t, seed + 1,
                                     _MAX_HOPS if best is None else 2)
        else:
            result = minimize_variational(X0, make_psi(PSI3, d, t))
        if best_any is None or _obj(result) < _obj(best_any):
            best_any = result
        if result.converged:
            result.geometry = geometry.mesh_ratio(result.pointset,
                                                  accuracy=1e-4)
            if best is None or result.geometry.rho < best.geometry.rho:
                best = result
    if best is not None and method == "lm" \
            and best.geometry.rho > _RHO_REFINE:
        rng = np.random.default_rng(opts.seed + 777)
        for _ in range(_REFINE_TICKETS):
            if best.geometry.rho <= _RHO_REFINE:
                break
            p = _pack(best.pointset)
            kicked = ParamVector(
                d=p.d, N=p.N, symmetric=p.symmetric,
                values=_clip_wrap_reference(p, p.values + rng.normal(
                    0.0, _HOP_SIGMAS[0], p.values.size)))
            trial = solve_lsq(param_to_points(kicked), t)
            if trial.converged:
                trial.geometry = geometry.mesh_ratio(trial.pointset,
                                                     accuracy=1e-4)
                if trial.geometry.rho < best.geometry.rho:
                    best = trial
    result = best if best is not None else best_any
    if result.geometry is None:
        result.geometry = geometry.mesh_ratio(result.pointset, accuracy=1e-4)
    return result


class TestDriverAgainstLoops:
    @pytest.mark.parametrize("d, t, kwargs, seed, restarts", [
        (2, 2, {}, 0, 5), (2, 2, {}, 3, 5),
        (2, 3, {}, 0, 5), (2, 3, {}, 3, 5),
        (2, 4, {}, 0, 5),  # rho 1.83 after one refine ticket
        (2, 8, {}, 2, 2),  # the 2 hops of a start after a convergence
        (2, 5, {}, 0, 5), (2, 5, {}, 3, 5),
        (2, 3, {"symmetric": True}, 0, 5),
        (2, 3, {"N": 3}, 0, 2),
        (3, 2, {}, 0, 2),
    ])
    def test_bitwise_equal(self, d, t, kwargs, seed, restarts):
        opts = SolveOptions(seed=seed, restarts=restarts)
        new = generate_design(d, t, opts=opts, **kwargs)
        ref = _generate_reference(d, t, opts=opts, **kwargs)
        assert np.array_equal(new.pointset.coords, ref.pointset.coords)
        assert new.pointset.symmetric == ref.pointset.symmetric
        assert new.iterations == ref.iterations
        assert new.converged == ref.converged
        assert np.array_equal(new.rtr, ref.rtr, equal_nan=True)
        assert new.geometry.rho == ref.geometry.rho
