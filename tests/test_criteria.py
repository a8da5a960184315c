"""Variational criteria and Weyl residuals against independent oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from sphdesign import polytopes
from sphdesign.criteria import (KINDS, PSI1, PSI2, PSI3, _power, make_psi,
                                psi_coefficients, psi_deriv, psi_eval,
                                symmetric_row_mask,
                                variational_gradient, variational_value,
                                variational_value_and_param_gradient,
                                variational_values,
                                weyl_jacobian, weyl_residual,
                                weyl_residual_reduced)
from sphdesign.errors import (InvalidDimensionError, InvalidParameterError,
                              NotNormalizedError)
from sphdesign.pointset import (ParamVector, PointSet, _free_slots, n_free,
                                normalize_pointset, param_jacobian_point,
                                param_to_points, points_to_param)
from sphdesign.specfun import dim_harmonic, legendre_norm, row_degrees
from sphdesign.summation import comp_sum


def _random_set(d, N, seed=0, symmetric=False):
    rng = np.random.default_rng(seed)
    reps = N // 2 if symmetric else N
    c = rng.standard_normal((reps, d + 1))
    c /= np.linalg.norm(c, axis=1)[:, None]
    return PointSet(d=d, coords=c, symmetric=symmetric)


def _a0_by_quadrature(spec):
    """Mean of psi + a0 over the sphere: the zero-order coefficient.

    Oracle: a_0 = int_-1^1 psi_raw(z) w(z) dz / int_-1^1 w(z) dz with
    weight w(z) = (1 - z^2)^((d-2)/2).
    """
    e = 0.5 * (spec.d - 2.0)

    def raw(z):
        return float(psi_eval(spec, z)) + spec.a0

    num, _ = quad(lambda z: raw(z) * (1.0 - z * z) ** e, -1.0, 1.0,
                  limit=200)
    den, _ = quad(lambda z: (1.0 - z * z) ** e, -1.0, 1.0)
    return num / den


class TestPsiSpecs:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d,t", [(2, 1), (2, 4), (2, 9), (3, 3), (3, 8),
                                     (4, 5), (7, 4)])
    def test_a0_matches_quadrature(self, kind, d, t):
        spec = make_psi(kind, d, t)
        assert spec.a0 == pytest.approx(_a0_by_quadrature(spec), rel=1e-9)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d,t", [(2, 3), (2, 8), (3, 5), (5, 4)])
    def test_psi_has_zero_mean(self, kind, d, t):
        spec = make_psi(kind, d, t)
        e = 0.5 * (d - 2.0)
        val, _ = quad(lambda z: float(psi_eval(spec, z))
                      * (1.0 - z * z) ** e, -1.0, 1.0, limit=200)
        assert abs(val) < 1e-10

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d,t", [(2, 5), (3, 4), (4, 7)])
    def test_value_at_one(self, kind, d, t):
        spec = make_psi(kind, d, t)
        assert float(psi_eval(spec, 1.0)) == pytest.approx(spec.psi_at_1,
                                                           rel=1e-12)
        # psi(1) also equals the sum of coefficients 1..t
        coeffs = psi_coefficients(spec)
        assert np.sum(coeffs[1:]) == pytest.approx(spec.psi_at_1, rel=1e-10)
        assert coeffs[0] == pytest.approx(spec.a0, rel=1e-10)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d,t", [(2, 6), (3, 5), (6, 3)])
    def test_coefficients_positive(self, kind, d, t):
        coeffs = psi_coefficients(make_psi(kind, d, t))
        assert np.all(coeffs[1:] > 0.0)

    def test_psi3_coefficients_proportional_to_dimension(self):
        # the third function has a_ell = a0 Z(d, ell), so the
        # least-squares diagonal a_ell / Z is the same for every row
        for d, t in [(2, 7), (3, 5)]:
            spec = make_psi(PSI3, d, t)
            coeffs = psi_coefficients(spec)
            dims = np.array([dim_harmonic(d, l) for l in range(t + 1)])
            assert np.allclose(coeffs, spec.a0 * dims, rtol=1e-9)

    @pytest.mark.parametrize("kind", KINDS)
    def test_deriv_finite_difference(self, kind):
        spec = make_psi(kind, 3, 6)
        z = np.linspace(-0.95, 0.95, 21)
        h = 1e-6
        fd = (psi_eval(spec, z + h) - psi_eval(spec, z - h)) / (2.0 * h)
        assert np.allclose(psi_deriv(spec, z), fd, rtol=1e-6, atol=1e-6)

    def test_invalid(self):
        # the cache of make_psi keeps no failure: every call raises
        for _ in range(2):
            with pytest.raises(InvalidParameterError):
                make_psi("psi9", 2, 3)
            with pytest.raises(InvalidDimensionError):
                make_psi(PSI1, 1, 3)
            with pytest.raises(InvalidParameterError):
                make_psi(PSI1, 2, 0)

    def test_spec_is_built_once_per_arguments(self):
        assert make_psi(PSI1, 3, 7) is make_psi(PSI1, 3, 7)
        assert make_psi(PSI1, 3, 7) is not make_psi(PSI1, 3, 8)

    @pytest.mark.parametrize("t", [1, 2, 11, 50])
    def test_psi1_matches_math_pow(self, t):
        # oracle: the defining powers through math.pow, one z at a time
        spec = make_psi(PSI1, 2, t)
        zs = [-1.0, -0.5, -0.0, 0.0, 0.3, 1.0]
        got_v = psi_eval(spec, np.array(zs))
        got_d = psi_deriv(spec, np.array(zs))
        for z, v, dv in zip(zs, got_v, got_d):
            terms = [math.pow(z, t - 1), math.pow(z, t), spec.a0]
            ref = terms[0] + terms[1] - terms[2]
            assert abs(v - ref) <= 4 * math.ulp(max(map(abs, terms)))
            assert math.copysign(1.0, v) == math.copysign(1.0, ref)
            terms = [t * math.pow(z, t - 1)]
            if t >= 2:
                terms.append((t - 1) * math.pow(z, t - 2))
            ref = math.fsum(terms)
            assert abs(dv - ref) <= 4 * math.ulp(max(map(abs, terms)))
            assert math.copysign(1.0, dv) == math.copysign(1.0, ref)

    @pytest.mark.parametrize("n", [0, 1, 2, 11, 50])
    def test_power_keeps_the_sign(self, n):
        zs = np.array([-1.0, -0.5, -0.0, 0.0, 0.3, 1.0])
        for z, p in zip(zs, _power(zs, n)):
            ref = math.pow(z, n)
            assert abs(p - ref) <= 2 * math.ulp(ref)
            assert math.copysign(1.0, p) == math.copysign(1.0, ref)
        # -0.0 to an odd power is -0.0
        assert math.copysign(1.0, _power(np.array(-0.0), 3)) == -1.0


class TestVariationalValue:
    def test_brute_force_oracle(self):
        X = _random_set(2, 9, 3)
        spec = make_psi(PSI2, 2, 4)
        total = 0.0
        for i in range(9):
            for j in range(9):
                z = 1.0 if i == j else float(X.coords[i] @ X.coords[j])
                total += float(psi_eval(spec, min(1.0, max(-1.0, z))))
        assert variational_value(X, spec) == pytest.approx(total / 81.0,
                                                           rel=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_nonnegative_and_bounded(self, kind):
        for seed in range(5):
            X = _random_set(3, 16, seed)
            spec = make_psi(kind, 3, 5)
            v = variational_value(X, spec)
            assert -1e-15 <= v <= spec.psi_at_1

    def test_single_point_attains_supremum(self):
        # all points equal: V = psi(1) restricted to degrees 1..t
        spec = make_psi(PSI1, 2, 4)
        X = PointSet(d=2, coords=np.tile([1.0, 0.0, 0.0], (6, 1)))
        assert variational_value(X, spec) == pytest.approx(spec.psi_at_1,
                                                           rel=1e-12)

    def test_design_vanishes(self):
        X = polytopes.icosahedron()
        for kind in KINDS:
            assert abs(variational_value(X, make_psi(kind, 2, 5))) < 1e-14

    def test_monte_carlo_mean(self):
        # E[V] over iid uniform points equals psi(1)/N
        spec = make_psi(PSI2, 2, 5)
        N, runs = 12, 400
        vals = np.array([variational_value(_random_set(2, N, 1000 + k), spec)
                         for k in range(runs)])
        expect = spec.psi_at_1 / N
        sigma = np.std(vals) / np.sqrt(runs)
        assert abs(np.mean(vals) - expect) < 3.0 * sigma

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("make", [polytopes.cell600, polytopes.cell120])
    def test_pair_sum_is_fsum(self, make, kind):
        # N^2 = 14,400 and 360,000 pair values that cancel heavily: the
        # sum is the correctly rounded one, not only close to it
        X = make()
        spec = make_psi(kind, 3, 11)
        g = np.clip(X.coords @ X.coords.T, -1.0, 1.0)
        vals = psi_eval(spec, g)
        np.fill_diagonal(vals, spec.psi_at_1)
        N = X.N
        expect = math.fsum(vals.ravel().tolist()) / (N * N)
        assert variational_value(X, spec).hex() == expect.hex()

    def test_mismatched_dimension(self):
        with pytest.raises(InvalidDimensionError):
            variational_value(_random_set(3, 5), make_psi(PSI1, 2, 3))

    @pytest.mark.parametrize("d, N, t, symmetric", [
        (2, 14, 4, False), (2, 12, 5, True), (3, 24, 5, False),
        (4, 9, 2, False)])
    def test_values_match_per_kind(self, d, N, t, symmetric):
        X = _random_set(d, N, 6, symmetric=symmetric)
        assert variational_values(X, t) == tuple(
            variational_value(X, make_psi(k, d, t)) for k in KINDS)


class TestGradients:
    @pytest.mark.parametrize("kind", KINDS)
    def test_cartesian_gradient_fd(self, kind):
        X = _random_set(3, 7, 2)
        spec = make_psi(kind, 3, 4)
        G = variational_gradient(X, spec)
        h = 1e-7
        for k in (0, 3, 6):
            for c in range(4):
                cp = X.coords.copy()
                cm = X.coords.copy()
                cp[k, c] += h
                cm[k, c] -= h
                # evaluate the raw pair sum off the sphere via psi_eval
                def val(cc):
                    g = np.clip(cc @ cc.T, -1.0, 1.0)
                    v = psi_eval(spec, g)
                    np.fill_diagonal(v, spec.psi_at_1)
                    return float(np.sum(v)) / 49.0
                fd = (val(cp) - val(cm)) / (2.0 * h)
                assert G[k, c] == pytest.approx(fd, rel=2e-5, abs=2e-6)

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_param_gradient_fd(self, symmetric):
        X = _random_set(2, 10, 5, symmetric=symmetric)
        Y, _ = normalize_pointset(X)
        p = points_to_param(Y)
        spec = make_psi(PSI2, 2, 4)
        v, g = variational_value_and_param_gradient(p, spec)
        h = 1e-7
        for s in range(p.values.size):
            vp = p.values.copy()
            vm = p.values.copy()
            vp[s] += h
            vm[s] -= h
            fp, _ = variational_value_and_param_gradient(
                ParamVector(d=2, N=p.N, symmetric=symmetric, values=vp), spec)
            fm, _ = variational_value_and_param_gradient(
                ParamVector(d=2, N=p.N, symmetric=symmetric, values=vm), spec)
            assert g[s] == pytest.approx((fp - fm) / (2.0 * h), rel=1e-5,
                                         abs=1e-8)


def _value_and_param_gradient_loop(p, spec):
    """Reference: two pair sums and a per-slot dot of point Jacobians,
    the form the one-pass objective replaced."""
    X = param_to_points(p)
    v = variational_value(X, spec)
    gcart = variational_gradient(X, spec)
    reps = X.coords.shape[0]
    if p.symmetric:
        gcart = gcart[:reps] - gcart[reps:]
    rows, cols = _free_slots(p.d, reps)
    phi = np.zeros((reps, p.d))
    phi[rows, cols] = p.values
    grad = np.empty(rows.size)
    for s, (j, i) in enumerate(zip(rows.tolist(), cols.tolist())):
        grad[s] = np.dot(param_jacobian_point(phi[j])[i], gcart[j])
    return v, grad


class TestParamGradientOnePass:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_bitwise_equal_to_slot_loop(self, kind, d, symmetric):
        rng = np.random.default_rng(d * 10 + KINDS.index(kind))
        for N, t in [(2, 1), (6, 2), (12, 3), (21, 4) if not symmetric
                     else (22, 5)]:
            p0 = ParamVector(d=d, N=N, symmetric=symmetric,
                             values=np.zeros(n_free(d, N, symmetric)))
            spec = make_psi(kind, d, t)
            random = rng.uniform(p0.lower, p0.upper)
            mixed = random.copy()
            pick = rng.random(random.size)
            mixed[pick < 0.3] = 0.0
            mixed[pick > 0.7] = p0.upper[pick > 0.7]
            # angles at 0 give zero sines; all-upper sets pin pi and 2 pi
            for values in (random, mixed, p0.lower, p0.upper):
                p = ParamVector(d=d, N=N, symmetric=symmetric, values=values)
                v, g = variational_value_and_param_gradient(p, spec)
                v_ref, g_ref = _value_and_param_gradient_loop(p, spec)
                assert np.float64(v).tobytes() == np.float64(v_ref).tobytes()
                assert g.tobytes() == g_ref.tobytes()

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_param_gradient_fd(self, d, symmetric):
        X = _random_set(d, 12, 7 + d, symmetric=symmetric)
        Y, _ = normalize_pointset(X)
        p = points_to_param(Y)
        spec = make_psi(PSI3, d, 3)
        _, g = variational_value_and_param_gradient(p, spec)
        h = 1e-7
        for s in range(p.values.size):
            vp = p.values.copy()
            vm = p.values.copy()
            vp[s] += h
            vm[s] -= h
            fp, _ = variational_value_and_param_gradient(
                ParamVector(d=d, N=p.N, symmetric=symmetric, values=vp), spec)
            fm, _ = variational_value_and_param_gradient(
                ParamVector(d=d, N=p.N, symmetric=symmetric, values=vm), spec)
            assert g[s] == pytest.approx((fp - fm) / (2.0 * h), rel=1e-5,
                                         abs=1e-8)

    def test_mismatched_dimension(self):
        p = ParamVector(d=3, N=5, symmetric=False,
                        values=np.zeros(n_free(3, 5)))
        with pytest.raises(InvalidDimensionError):
            variational_value_and_param_gradient(p, make_psi(PSI1, 2, 3))


class TestWeylResidual:
    def test_sum_of_squares_identity(self):
        # V for the third function equals a0 r^T r / N^2
        for seed in range(4):
            X = _random_set(2, 11, seed)
            for t in (2, 5, 8):
                spec = make_psi(PSI3, 2, t)
                res = weyl_residual(X, t)
                v = variational_value(X, spec)
                assert v == pytest.approx(spec.a0 * res.rtr / X.N ** 2,
                                          rel=1e-10)

    def test_weighted_identity_other_psi(self):
        # general identity: V = sum_ell (a_ell / Z) |r_ell|^2 / N^2
        X = _random_set(2, 9, 7)
        deg = row_degrees(6)
        for kind in (PSI1, PSI2):
            t = 6
            spec = make_psi(kind, 2, t)
            r = weyl_residual(X, t).r
            w = psi_coefficients(spec)[1:][deg - 1] / (2 * deg + 1)
            weighted = comp_sum(w * r * r)
            assert variational_value(X, spec) == pytest.approx(
                weighted / X.N ** 2, rel=1e-9)

    def test_design_residual_vanishes(self):
        res = weyl_residual(polytopes.octahedron(), 3)
        assert np.max(np.abs(res.r)) < 1e-13

    def test_row_count_and_weights(self):
        t = 5
        res = weyl_residual(_random_set(2, 8, 1), t)
        assert res.r.size == (t + 1) ** 2 - 1
        assert res.weights == make_psi(PSI3, 2, t).a0

    def test_weight_is_the_psi3_a0(self):
        # a_ell = a0 Z(2, ell), so a_ell / Z(2, ell) is the float a0 itself
        X = _random_set(2, 8, 5, symmetric=True)
        for t in range(1, 61):
            a0 = make_psi(PSI3, 2, t).a0
            for res in (weyl_residual(X, t), weyl_residual_reduced(X, t)):
                assert type(res.weights) is float
                assert res.weights == a0

    def test_mask_matches_degree_loop(self):
        # the per-degree loop the row-degree array replaced
        for t in (1, 2, 5, 12):
            ref = np.concatenate([np.full(2 * ell + 1, ell % 2 == 0)
                                  for ell in range(1, t + 1)])
            assert symmetric_row_mask(t).tobytes() == ref.tobytes()

    def test_symmetric_pointset_expansion(self):
        X = _random_set(2, 8, 8, symmetric=True)
        t = 5
        a = weyl_residual(X, t)
        b = weyl_residual(X.expand(), t)
        assert a.r.tobytes() == b.r.tobytes()
        assert a.weights == b.weights

    def test_reduced_matches_full_on_symmetric(self):
        X = _random_set(2, 12, 4, symmetric=True)
        t = 6
        full = weyl_residual(X, t)
        red = weyl_residual_reduced(X, t)
        mask = symmetric_row_mask(t)
        assert np.allclose(red.r, full.r[mask], atol=1e-12)
        # odd rows cancel identically
        assert np.max(np.abs(full.r[~mask])) < 1e-12

    def test_jacobian_finite_difference(self):
        X = _random_set(2, 7, 6)
        Y, _ = normalize_pointset(X)
        t = 4
        p = points_to_param(Y)
        A = weyl_jacobian(Y, weyl_residual(Y, t))
        h = 1e-7
        for s in range(p.values.size):
            vp = p.values.copy()
            vm = p.values.copy()
            vp[s] += h
            vm[s] -= h
            from sphdesign.pointset import param_to_points
            rp = weyl_residual(param_to_points(
                ParamVector(d=2, N=p.N, symmetric=False, values=vp)), t).r
            rm = weyl_residual(param_to_points(
                ParamVector(d=2, N=p.N, symmetric=False, values=vm)), t).r
            assert np.allclose(A[:, s], (rp - rm) / (2.0 * h), rtol=1e-5,
                               atol=1e-6)

    def test_symmetric_jacobian_finite_difference(self):
        X = _random_set(2, 12, 8, symmetric=True)
        Y, _ = normalize_pointset(X)
        t = 5
        p = points_to_param(Y)
        A = weyl_jacobian(Y, weyl_residual_reduced(Y, t))
        h = 1e-7
        from sphdesign.pointset import param_to_points
        for s in range(0, p.values.size, 3):
            vp = p.values.copy()
            vm = p.values.copy()
            vp[s] += h
            vm[s] -= h
            rp = weyl_residual_reduced(param_to_points(
                ParamVector(d=2, N=p.N, symmetric=True, values=vp)), t).r
            rm = weyl_residual_reduced(param_to_points(
                ParamVector(d=2, N=p.N, symmetric=True, values=vm)), t).r
            assert np.allclose(A[:, s], (rp - rm) / (2.0 * h), rtol=1e-5,
                               atol=1e-6)

    @pytest.mark.parametrize("N,symmetric", [(1, False), (2, False),
                                              (3, False), (14, False),
                                              (4, True), (14, True)])
    def test_jacobian_matches_column_loop(self, N, symmetric):
        # reference: the per-column copy it replaced; the result must be
        # C-contiguous, since the BLAS path of A.T @ (w A) depends on it
        from sphdesign.specfun import (sph_harmonics_s2,
                                       sph_harmonics_s2_jacobian)
        Y, _ = normalize_pointset(_random_set(2, N, 9, symmetric=symmetric))
        t = 5
        d1, d2 = sph_harmonics_s2_jacobian(sph_harmonics_s2(t, Y.coords)[1])
        if symmetric:
            mask = symmetric_row_mask(t)
            d1, d2 = 2.0 * d1[mask], 2.0 * d2[mask]
        n = points_to_param(Y).values.size
        ref = np.empty((d1.shape[0], n))
        s = 0
        for j in range(1, Y.coords.shape[0]):
            for i in range(min(j, 2)):
                ref[:, s] = d1[:, j] if i == 0 else d2[:, j]
                s += 1
        res = (weyl_residual_reduced if symmetric else weyl_residual)(Y, t)
        A = weyl_jacobian(Y, res)
        assert A.flags["C_CONTIGUOUS"]
        assert A.tobytes() == ref.tobytes()

    def test_jacobian_rejects_residual_of_other_points(self):
        # the full residual of a symmetric set runs over both halves,
        # while the Jacobian's columns are the representatives' angles
        Y, _ = normalize_pointset(_random_set(2, 12, 8, symmetric=True))
        with pytest.raises(InvalidParameterError):
            weyl_jacobian(Y, weyl_residual(Y, 5))
        with pytest.raises(InvalidParameterError):
            weyl_jacobian(Y.expand(), weyl_residual_reduced(Y, 5))

    @pytest.mark.parametrize("t", [0, -1])
    def test_residual_needs_positive_degree(self, t):
        # degree 0 has no Weyl sums: an empty residual would read as a
        # design
        X = _random_set(2, 8, 3, symmetric=True)
        with pytest.raises(InvalidParameterError):
            weyl_residual(X, t)
        with pytest.raises(InvalidParameterError):
            weyl_residual_reduced(X, t)

    def test_rotation_invariance_of_norms(self):
        rng = np.random.default_rng(12)
        X = _random_set(2, 10, 3)
        M = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        Y = PointSet(d=2, coords=X.coords @ M.T)
        t = 6
        assert weyl_residual(X, t).rtr == pytest.approx(
            weyl_residual(Y, t).rtr, rel=1e-10)
        for kind in KINDS:
            spec = make_psi(kind, 2, t)
            assert variational_value(X, spec) == pytest.approx(
                variational_value(Y, spec), rel=0, abs=1e-14)

    def test_requires_d2(self):
        with pytest.raises(InvalidDimensionError):
            weyl_residual(_random_set(3, 5), 3)

    def test_jacobian_requires_normalized(self):
        # columns follow the packed angles of the canonical position
        X = _random_set(2, 7, 6)
        with pytest.raises(NotNormalizedError):
            weyl_jacobian(X, weyl_residual(X, 4))
