"""Solvers: starts, descent engines, and the multi-start driver."""

import tracemalloc

import numpy as np
import pytest

from sphdesign import bounds as bounds_mod
from sphdesign import criteria, geometry, optimizer
from sphdesign.criteria import PSI3, make_psi, variational_value
from sphdesign.errors import (InvalidDimensionError, InvalidParameterError,
                              UndefinedMetricError)
from sphdesign.optimizer import (SolveOptions, _HOP_SIGMAS, _HOP_STALE_LIMIT, _MAX_HOPS,
                                 _REFINE_TICKETS, _RHO_REFINE, _kick, _obj,
                                 _spiral, generate_design,
                                 initial_points, minimize_variational,
                                 solve_lsq)
from sphdesign.pointset import (ParamVector, TWO_PI, param_to_points,
                                points_to_param)
from sphdesign.quadrature import verify_design
from sphdesign.specfun import MAX_HARMONIC_DEGREE
from test_pointset import _canonical


def _fail(*args, **kwargs):
    raise AssertionError("work begun before the arguments were checked")


def _refuse_start_work(monkeypatch):
    """Make building or packing a start fail the test."""
    monkeypatch.setattr(optimizer, "initial_points", _fail)
    monkeypatch.setattr(optimizer, "points_to_param", _fail)


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

    @pytest.mark.parametrize("N", [2, 3, 4, 17, 100, 399, 1000, 20000])
    def test_spiral_bitwise_equal_to_running_sum(self, N):
        # reference: the per-point running sum of the azimuth steps
        h = -1.0 + 2.0 * np.arange(N) / (N - 1.0)
        phi = np.zeros(N)
        for k in range(1, N - 1):
            phi[k] = phi[k - 1] + 3.6 / np.sqrt(N * (1.0 - h[k] * h[k]))
        phi %= TWO_PI
        theta = np.arccos(np.clip(h, -1.0, 1.0))
        coords = np.stack([np.cos(theta), np.sin(theta) * np.cos(phi),
                           np.sin(theta) * np.sin(phi)], axis=1)
        assert _spiral(N).coords.tobytes() == coords.tobytes()

    def test_unknown_kind(self):
        with pytest.raises(InvalidParameterError):
            initial_points(2, 9, "lattice")


class TestLsq:
    def test_small_design_converges(self):
        X0 = initial_points(2, 6, "equal_area_spiral")
        res = solve_lsq(X0, 2)
        assert res.converged
        assert res.rtr <= 1e-22 * 36
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

    @pytest.mark.parametrize("N, t, kind", [(18, 5, "fibonacci"),
                                            (8, 3, "random_uniform")])
    def test_result_is_the_lowest_residual_formed(self, monkeypatch, N, t,
                                                  kind):
        # every trial is judged on r^T r alone, so the solve ends at the
        # smallest r^T r it formed, bit for bit
        formed = []
        lsq_residual = optimizer._lsq_residual

        def recorded(p, t):
            res = lsq_residual(p, t)
            formed.append(res.rtr)
            return res

        monkeypatch.setattr(optimizer, "_lsq_residual", recorded)
        res = solve_lsq(initial_points(2, N, kind), t)
        assert res.rtr == min(formed)
        # the start and one accepted trial per iteration at most, so
        # some trials were rejected
        assert len(formed) > res.iterations + 1

    def test_hop_kept_exactly_when_rtr_is_lower(self, monkeypatch):
        # scripted solves: the start, then one per hop; iterations are
        # powers of ten, so their sum names the kept solves
        X = initial_points(2, 6, "equal_area_spiral")
        script = iter(enumerate([5.0, 6.0, 4.0, 4.0, 3.0]))

        def scripted(X0, t):
            k, rtr = next(script)
            return optimizer.SolveResult(X0, False, rtr, 0.0, 0.0, 0.0,
                                         iterations=10 ** k, geometry=None)

        monkeypatch.setattr(optimizer, "solve_lsq", scripted)
        monkeypatch.setattr(optimizer, "_kick", lambda X, rng, sigma: X)
        result = optimizer.solve_lsq_with_hops(X, 2, hops=4)
        # higher (6.0) and equal (the second 4.0) trials are passed over
        assert result.rtr == 3.0
        assert result.iterations == 1 + 100 + 10000

    def test_symmetric_solve(self):
        X0 = initial_points(2, 12, "symmetric_double", seed=3)
        res = solve_lsq(X0, 3)
        assert res.converged
        assert res.pointset.symmetric
        assert verify_design(res.pointset, 3).is_design

    def test_singular_system_raises_the_damping(self, monkeypatch):
        # one failed solve is retried with more damping, not fatal
        solve = np.linalg.solve
        calls = []

        def fail_once(B, g):
            calls.append(B[0, 0])
            if len(calls) == 1:
                raise np.linalg.LinAlgError("singular")
            return solve(B, g)

        monkeypatch.setattr(np.linalg, "solve", fail_once)
        res = solve_lsq(initial_points(2, 6, "equal_area_spiral"), 2)
        assert res.converged
        assert calls[1] > calls[0]

    def test_always_singular_system_ends_unconverged(self, monkeypatch):
        def fail(B, g):
            raise np.linalg.LinAlgError("singular")

        monkeypatch.setattr(np.linalg, "solve", fail)
        X0 = initial_points(2, 6, "equal_area_spiral")
        res = solve_lsq(X0, 2)
        assert not res.converged
        assert res.iterations == 1
        # the start is returned as packed
        assert np.array_equal(res.pointset.coords,
                              param_to_points(points_to_param(X0)).coords)

    def test_iteration_peak_memory(self, monkeypatch):
        # one iteration at t = 30 (n = 961 packed angles) holds A, w * A,
        # B and LAPACK's copy of it: about 3.3 n^2 doubles under
        # tracemalloc (README, Scope)
        monkeypatch.setattr(optimizer, "_LM_MAX_ITERATIONS", 1)
        X0 = initial_points(2, bounds_mod.n_default(2, 30), "fibonacci")
        n = 2 * X0.N - 3
        tracemalloc.start()
        try:
            res = solve_lsq(X0, 30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n == 961 and res.iterations == 1
        assert peak < 3.6 * 8 * n * n

    def test_d2_only(self):
        X0 = initial_points(3, 8, "random_uniform")
        with pytest.raises(InvalidDimensionError):
            solve_lsq(X0, 2)

    @pytest.mark.parametrize("t", [0, -1])
    def test_degree_below_one(self, t):
        # degree 0 has no Weyl sums, so an empty residual would report
        # any start as a converged design
        X0 = initial_points(2, 6, "equal_area_spiral")
        with pytest.raises(InvalidParameterError):
            solve_lsq(X0, t)

    def test_degree_above_harmonic_cap_before_packing(self, monkeypatch):
        X0 = initial_points(2, 6, "equal_area_spiral")
        _refuse_start_work(monkeypatch)
        with pytest.raises(InvalidParameterError,
                           match="degree %d exceeds the stability cap %d"
                           % (MAX_HARMONIC_DEGREE + 1, MAX_HARMONIC_DEGREE)):
            solve_lsq(X0, MAX_HARMONIC_DEGREE + 1)


class TestVariationalDescent:
    def test_d3_small(self):
        X0 = initial_points(3, 7, "random_uniform", seed=2)
        res = minimize_variational(X0, 2)
        assert res.converged
        assert verify_design(res.pointset, 2).is_design

    def test_descent_reaches_design_on_s2(self):
        X0 = initial_points(2, 8, "random_uniform", seed=1)
        res = minimize_variational(X0, 3)
        assert abs(res.v3) < 1e-13

    @pytest.mark.parametrize("d, t, kind", [(3, 2, PSI3), (3, 3, PSI3),
                                            (3, 4, PSI3), (2, 3, PSI3),
                                            (2, 4, PSI3), (2, 5, PSI3)])
    def test_returned_value_never_above_the_start(self, d, t, kind):
        # accepted iterates never increase V, so neither does the solve,
        # converged or not (d=3, t=4, seed 2 stalls at V ~ 2e-5)
        spec = make_psi(kind, d, t)
        N = bounds_mod.n_hat(d, t) if d > 2 else bounds_mod.n_default(2, t)
        for seed in range(4):
            X0 = initial_points(d, N, "random_uniform", seed=seed)
            start = variational_value(
                param_to_points(points_to_param(X0)), spec)
            res = minimize_variational(X0, t)
            assert variational_value(res.pointset, spec) <= start


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

    @pytest.mark.parametrize("kwargs", [{}, {"N": 6, "symmetric": True}])
    def test_s2_values_from_weyl_sums(self, monkeypatch, kwargs):
        # the returned design's V's are weighted Weyl sums, not pair sums
        def fail(*args, **kw):
            raise AssertionError("a pair sum on S^2")
        monkeypatch.setattr(criteria, "variational_value", fail)
        res = generate_design(2, 3, opts=SolveOptions(restarts=2), **kwargs)
        vs = (res.v1, res.v2, res.v3)
        monkeypatch.undo()
        assert res.converged and min(vs) >= 0.0
        for got, want in zip(vs, criteria.variational_values(res.pointset,
                                                             3)):
            assert got == pytest.approx(want, rel=1e-10, abs=1e-15)

    @pytest.mark.parametrize("kwargs", [{}, {"N": 6, "symmetric": True}])
    def test_no_residual_after_the_last_solve(self, monkeypatch, kwargs):
        # every solve reports its V's, so the returned design builds no
        # Weyl sums (and no Schmidt table) of its own
        solving = []
        outside = []
        solve, weyl = optimizer.solve_lsq, criteria.weyl_residual

        def tracked_solve(*args):
            solving.append(True)
            try:
                return solve(*args)
            finally:
                solving.pop()

        def tracked_weyl(*args):
            if not solving:
                outside.append(args)
            return weyl(*args)
        monkeypatch.setattr(optimizer, "solve_lsq", tracked_solve)
        monkeypatch.setattr(criteria, "weyl_residual", tracked_weyl)
        res = generate_design(2, 3, opts=SolveOptions(restarts=2), **kwargs)
        assert res.converged and outside == []

    @pytest.mark.parametrize("d, t, kwargs", [
        (2, 3, {"opts": SolveOptions(restarts=2)}),
        (2, 3, {"N": 6, "symmetric": True}),
        # an antipodal plan wins: its V's are read before expand()
        (2, 5, {"opts": SolveOptions(restarts=1)}),
        (3, 2, {}),
    ])
    def test_values_are_the_design_values(self, d, t, kwargs):
        res = generate_design(d, t, **kwargs)
        assert (res.v1, res.v2, res.v3) == \
            criteria.design_values(res.pointset, t)[0]

    def test_symmetric_needs_odd_t(self):
        with pytest.raises(InvalidParameterError):
            generate_design(2, 4, symmetric=True)

    def test_infeasible_n_reports_local_minimum(self):
        # three points cannot form a 3-design; the driver reports the
        # best failure honestly
        res = generate_design(2, 3, N=3, opts=SolveOptions(restarts=2))
        assert not res.converged
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
    def test_degree_above_harmonic_cap_before_any_start(self, monkeypatch,
                                                        symmetric):
        # the cap is refused before N is chosen or a start is built
        _refuse_start_work(monkeypatch)
        monkeypatch.setattr(bounds_mod, "n_default", _fail)
        with pytest.raises(InvalidParameterError,
                           match="degree %d exceeds the stability cap %d"
                           % (MAX_HARMONIC_DEGREE + 1, MAX_HARMONIC_DEGREE)):
            generate_design(2, MAX_HARMONIC_DEGREE + 1, symmetric=symmetric)

    @pytest.mark.parametrize("d", [1, 0, -2])
    def test_dimension_below_two_before_any_start(self, monkeypatch, d):
        _refuse_start_work(monkeypatch)
        monkeypatch.setattr(bounds_mod, "n_default", _fail)
        with pytest.raises(InvalidDimensionError, match="d >= 2"):
            generate_design(d, 3)

    def test_candidate_with_coincident_points_is_passed_over(self):
        # at seed 1 the first plan converges to a 1-design on S^4 that
        # repeats a point, so it has no mesh ratio; alone it leaves
        # nothing to score, beside a second plan that one wins
        opts = SolveOptions(seed=1, restarts=1)
        with pytest.raises(UndefinedMetricError, match="coincident"):
            generate_design(4, 1, N=4, opts=opts)
        res = generate_design(4, 1, N=4, opts=SolveOptions(seed=1, restarts=2))
        assert res.converged
        assert res.geometry == geometry.mesh_ratio(res.pointset)
        assert res.geometry.rho == pytest.approx(4.670, abs=1e-3)

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_start_without_free_angles(self, symmetric):
        # N = 2 at odd t solves antipodal starts of one representative,
        # which has no free angle; such a start is reported as it is
        res = generate_design(2, 3, N=2, symmetric=symmetric,
                              opts=SolveOptions(restarts=1))
        assert not res.converged and res.pointset.N == 2
        assert res.pointset.symmetric == symmetric

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
        assert _canonical(a)
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
        p = points_to_param(result.pointset)
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
            result = minimize_variational(X0, t)
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
            p = points_to_param(best.pointset)
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
