"""Variational criteria and Weyl residuals against independent oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import roots_jacobi

from sphdesign import criteria, polytopes, specfun
from sphdesign.criteria import (KINDS, PSI1, PSI2, PSI3, _power,
                                _zonal_weights, make_psi, psi_eval,
                                variational_value,
                                variational_value_and_param_gradient,
                                variational_values,
                                weyl_jacobian, weyl_residual,
                                weyl_residual_reduced)
from sphdesign.errors import (InvalidDimensionError, InvalidParameterError,
                              InvalidPointError)
from sphdesign.pointset import (ParamVector, PointSet, _free_slots,
                                _points_and_chain, _s2_param_columns, n_free,
                                normalize_pointset, param_to_points,
                                points_to_param)
from sphdesign.specfun import (_basis_layout, dim_harmonic, jacobi_deriv,
                               row_degrees, sph_harmonics_s2,
                               sph_harmonics_s2_jacobian)
from sphdesign.summation import comp_sum
from test_legendre import legendre_norm_batch
from test_pointset import (_angles_to_points, _point_recurrence,
                           _tables_as_floats)


def _random_set(d, N, seed=0, symmetric=False):
    rng = np.random.default_rng(seed)
    reps = N // 2 if symmetric else N
    c = rng.standard_normal((reps, d + 1))
    c /= np.linalg.norm(c, axis=1)[:, None]
    return PointSet(d=d, coords=c, symmetric=symmetric)


def _even_rows(t):
    """Mask of the even-degree rows of the full residual of degree t."""
    return row_degrees(t) % 2 == 0


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


def _coefficients(spec):
    """Legendre coefficients a_ell = Z(d, ell) b_ell, ell = 0..t, of
    psi + a0, from the closed-form b_ell the Weyl-sum view weighs by."""
    dims = np.array([dim_harmonic(spec.d, ell) for ell in range(spec.t + 1)],
                    dtype=float)
    return dims * _zonal_weights(spec)


def _coefficients_by_projection(spec):
    """Legendre coefficients of psi + a0 by Gauss-Jacobi projection on
    t + 5 nodes: the former coefficient path, kept as an oracle.  Its
    relative error grows with t (1.5e-3 at ell = t for psi_2, t = 20)."""
    t, alpha = spec.t, spec.alpha
    nodes, weights = roots_jacobi(t + 5, alpha, alpha)
    raw = psi_eval(spec, nodes) + spec.a0
    pl = legendre_norm_batch(spec.d, t, nodes)
    return np.array([np.sum(weights * raw * pl[ell])
                     / np.sum(weights * pl[ell] ** 2)
                     for ell in range(t + 1)])


# (d, t) pairs up to the paper's largest symmetric degree on S^2
_LARGE_DEGREES = [(2, 100), (2, 325), (3, 50), (4, 40)]


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
        coeffs = _coefficients(spec)
        assert np.sum(coeffs[1:]) == pytest.approx(spec.psi_at_1, rel=1e-10)
        assert coeffs[0] == pytest.approx(spec.a0, rel=1e-10)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d,t", [(2, 6), (3, 5), (6, 3)])
    def test_coefficients_positive(self, kind, d, t):
        coeffs = _coefficients(make_psi(kind, d, t))
        assert np.all(coeffs[1:] > 0.0)

    def test_psi3_coefficients_proportional_to_dimension(self):
        # the third function has a_ell = a0 Z(d, ell), so the
        # least-squares diagonal a_ell / Z is the same for every row
        for d, t in [(2, 7), (3, 5)]:
            spec = make_psi(PSI3, d, t)
            coeffs = _coefficients(spec)
            dims = np.array([dim_harmonic(d, l) for l in range(t + 1)])
            assert np.allclose(coeffs, spec.a0 * dims, rtol=1e-9)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_closed_form_matches_projection(self, kind, d):
        for t in range(1, 11):
            spec = make_psi(kind, d, t)
            ref = _coefficients_by_projection(spec)
            got = _coefficients(spec)
            assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-8

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d, t", _LARGE_DEGREES)
    def test_closed_form_at_large_degree(self, kind, d, t):
        # a_0 is the mean, the a_ell of ell >= 1 sum to psi(1), and each
        # is positive: the terms of V are weighted squares
        spec = make_psi(kind, d, t)
        coeffs = _coefficients(spec)
        assert coeffs.shape == (t + 1,)
        assert coeffs[0] == pytest.approx(spec.a0, rel=1e-12)
        assert math.fsum(coeffs[1:]) == pytest.approx(spec.psi_at_1,
                                                      rel=1e-12)
        assert np.all(coeffs[1:] > 0.0)

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
        for z, v in zip(zs, psi_eval(spec, np.array(zs))):
            terms = [math.pow(z, t - 1), math.pow(z, t), spec.a0]
            ref = terms[0] + terms[1] - terms[2]
            assert abs(v - ref) <= 4 * math.ulp(max(map(abs, terms)))
            assert math.copysign(1.0, v) == math.copysign(1.0, ref)

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


def _one_pass_values(g, spec):
    """The pair values of one psi pass over the whole Gram matrix."""
    vals = psi_eval(spec, g)
    np.fill_diagonal(vals, spec.psi_at_1)
    return vals


class TestBlockedPairValues:
    """psi runs over row blocks of the upper triangle and the lower part
    is mirrored; every value and V keep the bits of one pass over g."""

    # with 64-element blocks a matrix of up to 8 rows is one block
    BLOCK = 64
    ROWS = 8

    @staticmethod
    def _check(monkeypatch, X, spec):
        # the matrix handed to the one comp_sum, and V, against one pass
        # (built first: a blocked _value_from_gram overwrites g)
        g = criteria._gram(X.expanded())
        N = g.shape[0]
        expect = _one_pass_values(g, spec)
        seen = []

        def capture(vals):
            seen.append(vals.copy())
            return comp_sum(vals)
        monkeypatch.setattr(criteria, "comp_sum", capture)
        v = criteria._value_from_gram(g, spec)
        assert len(seen) == 1 and seen[0].shape == (N, N)
        assert np.array_equal(seen[0], expect)
        assert v.hex() == (comp_sum(expect) / (N * N)).hex()

    # N = 1, 2, one row below, at and above a one-block matrix, blocks
    # that divide N, ragged last blocks, and one-row blocks (N above
    # the block size)
    @pytest.mark.parametrize("N", [1, 2, ROWS - 1, ROWS, ROWS + 1, 16, 23,
                                   BLOCK + 1])
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("kind", KINDS)
    def test_plain_sets_match_one_pass(self, monkeypatch, kind, d, N):
        monkeypatch.setattr(criteria, "_PAIR_BLOCK", self.BLOCK)
        self._check(monkeypatch, _random_set(d, N, N), make_psi(kind, d, 7))

    # expanded N = 2, 8 (one block), 10 and 14 (ragged last blocks)
    @pytest.mark.parametrize("N", [2, ROWS, ROWS + 2, 14])
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("kind", KINDS)
    def test_symmetric_sets_match_one_pass(self, monkeypatch, kind, d, N):
        monkeypatch.setattr(criteria, "_PAIR_BLOCK", self.BLOCK)
        X = _random_set(d, N, N + 1, symmetric=True)
        self._check(monkeypatch, X, make_psi(kind, d, 6))

    # the module's own block: 181^2 fits in one, 182 rows are blocks of
    # 180 and 2, and 400 rows are four blocks of 81 and a ragged 76
    @pytest.mark.parametrize("N, symmetric", [(181, False), (182, True),
                                              (400, False)])
    @pytest.mark.parametrize("kind", KINDS)
    def test_module_block_matches_one_pass(self, monkeypatch, kind, N,
                                           symmetric):
        assert criteria._PAIR_BLOCK == 1 << 15
        X = _random_set(2, N, 7, symmetric=symmetric)
        self._check(monkeypatch, X, make_psi(kind, 2, 11))

    @pytest.mark.parametrize("N", [1, 2, ROWS, ROWS + 1, 23, BLOCK + 1])
    def test_psi_runs_once_per_unordered_pair(self, monkeypatch, N):
        # one call over all of a one-block matrix; otherwise blocks of at
        # most BLOCK elements that together cover the upper triangle and
        # the diagonal, and no more than the lower part of their own rows
        monkeypatch.setattr(criteria, "_PAIR_BLOCK", self.BLOCK)
        sizes = []

        def counted(spec, z):
            sizes.append(np.size(z))
            return psi_eval(spec, z)
        monkeypatch.setattr(criteria, "psi_eval", counted)
        criteria._value_from_gram(criteria._gram(_random_set(3, N).coords),
                                  make_psi(PSI3, 3, 4))
        if N <= self.ROWS:
            assert sizes == [N * N]
        else:
            rows = max(1, self.BLOCK // N)
            assert max(sizes) <= max(self.BLOCK, N)
            assert sum(sizes) <= (N * (N + 1) + N * (rows - 1)) // 2

    @pytest.mark.parametrize("N", [1, 2, 9, 64, 181, 182, 600, 1302])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_gram_is_exactly_symmetric(self, d, N):
        # the mirror relies on it, for plain and expanded coordinates
        X = _random_set(d, N, 11)
        for coords in (X.coords, np.vstack([X.coords, -X.coords])):
            g = criteria._gram(coords)
            assert np.array_equal(g, g.T)


def _cartesian_gradient(X, t):
    """Reference: the gradient of V_psi3 per point of the expanded set,
    row k = (2/N^2) sum_{i != k} psi'(x_i . x_k) x_i."""
    spec = make_psi(PSI3, X.d, t)
    coords = X.expanded()
    g = np.clip(coords @ coords.T, -1.0, 1.0)
    w = jacobi_deriv(spec.alpha + 1.0, spec.alpha, t, g)
    np.fill_diagonal(w, 0.0)
    N = coords.shape[0]
    return (2.0 / (N * N)) * (w @ coords)


class TestGradients:
    @pytest.mark.parametrize("kind", [PSI3])
    def test_cartesian_gradient_fd(self, kind):
        X = _random_set(3, 7, 2)
        spec = make_psi(kind, 3, 4)
        G = _cartesian_gradient(X, 4)
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
        Y = normalize_pointset(X)
        p = points_to_param(Y)
        v, g = variational_value_and_param_gradient(p, 4)
        h = 1e-7
        for s in range(p.values.size):
            vp = p.values.copy()
            vm = p.values.copy()
            vp[s] += h
            vm[s] -= h
            fp, _ = variational_value_and_param_gradient(
                ParamVector(d=2, N=p.N, symmetric=symmetric, values=vp), 4)
            fm, _ = variational_value_and_param_gradient(
                ParamVector(d=2, N=p.N, symmetric=symmetric, values=vm), 4)
            assert g[s] == pytest.approx((fp - fm) / (2.0 * h), rel=1e-5,
                                         abs=1e-8)


def _value_and_param_gradient_loop(p, t):
    """Reference: two pair sums of psi_3 and, per slot, the scalar angle
    recurrence of its point in Python floats."""
    X = param_to_points(p)
    v = variational_value(X, make_psi(PSI3, p.d, t))
    gcart = _cartesian_gradient(X, t)
    reps = X.coords.shape[0]
    if p.symmetric:
        gcart = gcart[:reps] - gcart[reps:]
    rows, cols = _free_slots(p.d, reps)
    phi = np.zeros((reps, p.d))
    phi[rows, cols] = p.values
    c, s = _tables_as_floats(phi)
    g = gcart.tolist()
    grad = np.array([_point_recurrence(c[j], s[j], g[j])[i]
                     for j, i in zip(rows.tolist(), cols.tolist())])
    return v, grad


class TestParamGradientOnePass:
    @pytest.mark.parametrize("kind", [PSI3])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_bitwise_equal_to_slot_loop(self, monkeypatch, kind, d,
                                        symmetric):
        # a block of 64 elements sends every N > 8 through the blocked
        # pair sums, which overwrite the Gram matrix that psi' also reads
        for block in (1 << 15, 64):
            monkeypatch.setattr(criteria, "_PAIR_BLOCK", block)
            self._check(np.random.default_rng(d * 10 + KINDS.index(kind)),
                        d, symmetric)

    @staticmethod
    def _check(rng, d, symmetric):
        for N, t in [(2, 1), (6, 2), (12, 3), (21, 4) if not symmetric
                     else (22, 5)]:
            p0 = ParamVector(d=d, N=N, symmetric=symmetric,
                             values=np.zeros(n_free(d, N, symmetric)))
            random = rng.uniform(p0.lower, p0.upper)
            mixed = random.copy()
            pick = rng.random(random.size)
            mixed[pick < 0.3] = 0.0
            mixed[pick > 0.7] = p0.upper[pick > 0.7]
            # angles at 0 give zero sines; all-upper sets pin pi and 2 pi
            for values in (random, mixed, p0.lower, p0.upper):
                p = ParamVector(d=d, N=N, symmetric=symmetric, values=values)
                v, g = variational_value_and_param_gradient(p, t)
                v_ref, g_ref = _value_and_param_gradient_loop(p, t)
                assert np.float64(v).tobytes() == np.float64(v_ref).tobytes()
                assert g.tobytes() == g_ref.tobytes()

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_param_gradient_fd_at_zero_and_pi(self, d, symmetric):
        # angles exactly 0 and pi give zero sines; the difference steps
        # into the angle box, second order from one side
        X = _random_set(d, 12, 3 + d, symmetric=symmetric)
        p = points_to_param(normalize_pointset(X))
        rows, cols = _free_slots(d, p.N // 2 if symmetric else p.N)
        values = p.values.copy()
        free = np.flatnonzero(rows > d)
        values[free[::3]] = 0.0
        values[free[1::3]] = np.pi
        p = ParamVector(d=d, N=p.N, symmetric=symmetric, values=values)
        v0, g = variational_value_and_param_gradient(p, 3)
        # tangency: a radial Cartesian gradient moves no angle
        _, chain = _points_and_chain(p)
        assert np.allclose(chain(param_to_points(p).expanded()), 0.0,
                           atol=1e-12)

        def f(s, step):
            v = values.copy()
            v[s] += step
            q = ParamVector(d=d, N=p.N, symmetric=symmetric, values=v)
            return variational_value_and_param_gradient(q, 3)[0]

        h = 1e-6
        for s in range(values.size):
            step = -h if values[s] == p.upper[s] else h
            fd = (-3.0 * v0 + 4.0 * f(s, step)
                  - f(s, 2.0 * step)) / (2.0 * step)
            assert g[s] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_param_gradient_fd(self, d, symmetric):
        X = _random_set(d, 12, 7 + d, symmetric=symmetric)
        Y = normalize_pointset(X)
        p = points_to_param(Y)
        _, g = variational_value_and_param_gradient(p, 3)
        h = 1e-7
        for s in range(p.values.size):
            vp = p.values.copy()
            vm = p.values.copy()
            vp[s] += h
            vm[s] -= h
            fp, _ = variational_value_and_param_gradient(
                ParamVector(d=d, N=p.N, symmetric=symmetric, values=vp), 3)
            fm, _ = variational_value_and_param_gradient(
                ParamVector(d=d, N=p.N, symmetric=symmetric, values=vm), 3)
            assert g[s] == pytest.approx((fp - fm) / (2.0 * h), rel=1e-5,
                                         abs=1e-8)

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_no_points_refused(self, symmetric):
        p = ParamVector(d=3, N=0, symmetric=symmetric, values=np.zeros(0))
        with pytest.raises(InvalidPointError, match="at least one point"):
            variational_value_and_param_gradient(p, 2)

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_objective_builds_no_pointset(self, monkeypatch, symmetric):
        # the objective reads the coordinates it builds; only
        # param_to_points wraps them in a validated PointSet
        N = 14 if symmetric else 7
        p = ParamVector(d=3, N=N, symmetric=symmetric,
                        values=np.full(n_free(3, N, symmetric), 0.7))
        built = []
        post_init = PointSet.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(PointSet, "__post_init__", counted)
        variational_value_and_param_gradient(p, 2)
        assert built == []
        param_to_points(p)
        assert len(built) == 1


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
            w = _zonal_weights(spec)[deg]
            weighted = comp_sum(w * r * r)
            assert variational_value(X, spec) == pytest.approx(
                weighted / X.N ** 2, rel=1e-9)

    def test_rtr_is_summed_once(self, monkeypatch):
        res = weyl_residual(_random_set(2, 12, 3), 6)
        calls = []

        def counted(values, axis=None):
            calls.append(axis)
            return comp_sum(values, axis)
        monkeypatch.setattr(criteria, "comp_sum", counted)
        first = res.rtr
        assert res.rtr == first == float(comp_sum(res.r * res.r))
        assert calls == [None]

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_s2_values_are_the_weighted_identity(self, monkeypatch,
                                                 symmetric):
        # one weighted sum of squares per psi, against the pair sums
        X = _random_set(2, 40, 9, symmetric=symmetric)
        t = 9
        res = weyl_residual(X, t)
        deg = row_degrees(t)
        calls = []

        def counted(values, axis=None):
            calls.append(axis)
            return comp_sum(values, axis)
        monkeypatch.setattr(criteria, "comp_sum", counted)
        got = criteria._s2_values(res, X.N)
        rtr = res.rtr
        monkeypatch.undo()
        # r^T r comes from the same call, with the bits of its own sum
        assert calls == [1] and rtr == float(comp_sum(res.r * res.r))
        for v, kind in zip(got, KINDS):
            spec = make_psi(kind, 2, t)
            w = _zonal_weights(spec)[deg]
            assert type(v) is float and v >= 0.0
            assert v == pytest.approx(comp_sum(w * res.r * res.r) / X.N ** 2,
                                      rel=1e-13)
            assert v == pytest.approx(variational_value(X, spec), rel=1e-10)

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_design_values_on_s2_are_the_weyl_view(self, symmetric):
        # the full residual over the expanded points, and the values
        # read from it
        X = _random_set(2, 40, 9, symmetric=symmetric)
        vs, res = criteria.design_values(X, 9)
        ref = weyl_residual(X, 9)
        assert not res.reduced and np.array_equal(res.r, ref.r)
        assert vs == criteria._s2_values(ref, X.N)

    def test_design_values_above_s2_are_pair_sums(self):
        X = _random_set(3, 12, 4)
        vs, res = criteria.design_values(X, 3)
        assert res is None and vs == criteria.variational_values(X, 3)

    def test_s2_row_weights_are_shared_and_read_only(self):
        w = criteria._s2_row_weights(7)
        assert w is criteria._s2_row_weights(7)
        assert w.shape == (len(KINDS) + 1, 63) and not w.flags.writeable
        # the psi_3 row is the least-squares weight a0 itself, and the
        # last row weighs r^T r
        assert np.all(w[KINDS.index(PSI3)] == make_psi(PSI3, 2, 7).a0)
        assert np.all(w[-1] == 1.0)

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
        # the per-degree loop the row-degree array replaced; the even
        # layout is the full layout at those rows
        for t in (1, 2, 5, 12):
            ref = np.concatenate([np.full(2 * ell + 1, ell % 2 == 0)
                                  for ell in range(1, t + 1)])
            assert _even_rows(t).tobytes() == ref.tobytes()
            for full, even in zip(_basis_layout(t), _basis_layout(t, True)):
                assert even.dtype == full.dtype
                assert even.tobytes() == full[ref].tobytes()

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
        mask = _even_rows(t)
        assert np.allclose(red.r, full.r[mask], atol=1e-12)
        # odd rows cancel identically
        assert np.max(np.abs(full.r[~mask])) < 1e-12

    def test_jacobian_finite_difference(self):
        X = _random_set(2, 7, 6)
        Y = normalize_pointset(X)
        t = 4
        p = points_to_param(Y)
        A = weyl_jacobian(weyl_residual(Y, t))
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
        Y = normalize_pointset(X)
        t = 5
        p = points_to_param(Y)
        A = weyl_jacobian(weyl_residual_reduced(Y, t))
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
        Y = normalize_pointset(_random_set(2, N, 9, symmetric=symmetric))
        t = 5
        d1, d2 = sph_harmonics_s2_jacobian(sph_harmonics_s2(t, Y.coords)[1])
        if symmetric:
            mask = _even_rows(t)
            d1, d2 = 2.0 * d1[mask], 2.0 * d2[mask]
        n = points_to_param(Y).values.size
        ref = np.empty((d1.shape[0], n))
        s = 0
        for j in range(1, Y.coords.shape[0]):
            for i in range(min(j, 2)):
                ref[:, s] = d1[:, j] if i == 0 else d2[:, j]
                s += 1
        res = (weyl_residual_reduced if symmetric else weyl_residual)(Y, t)
        A = weyl_jacobian(res)
        assert A.flags["C_CONTIGUOUS"]
        assert A.tobytes() == ref.tobytes()

    def test_jacobian_of_full_residual_of_symmetric_set(self):
        # the full residual of a symmetric set runs over both halves, so
        # its Jacobian is that of the expanded set
        Y = normalize_pointset(_random_set(2, 12, 8, symmetric=True))
        A = weyl_jacobian(weyl_residual(Y, 5))
        assert A.shape[1] == n_free(2, 12)
        assert A.tobytes() == weyl_jacobian(
            weyl_residual(Y.expand(), 5)).tobytes()

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

    def test_jacobian_finite_difference_off_canonical(self):
        # column (j, i) is the derivative w.r.t. angle i of point j
        # itself, so it holds on a set not in canonical position
        t, h = 4, 1e-6
        for symmetric in (False, True):
            X = _random_set(2, 18 if symmetric else 9, 6, symmetric)
            assert normalize_pointset(X) is not X
            residual = weyl_residual_reduced if symmetric else weyl_residual
            A = weyl_jacobian(residual(X, t))
            reps = X.coords.shape[0]
            phi = np.stack([np.arccos(X.coords[:, 0]),
                            np.arctan2(X.coords[:, 2], X.coords[:, 1])],
                           axis=1)
            rows, cols = _free_slots(2, reps)
            assert A.shape[1] == rows.size
            for s, (j, i) in enumerate(zip(rows, cols)):
                r = []
                for step in (h, -h):
                    moved = phi.copy()
                    moved[j, i] += step
                    r.append(residual(PointSet(2, _angles_to_points(moved),
                                               symmetric), t).r)
                assert np.allclose(A[:, s], (r[0] - r[1]) / (2.0 * h),
                                   rtol=1e-6, atol=1e-7)


def _one_pass_sums(t, coords, even=False):
    """Row sums of the whole harmonic value table, or of its even-degree
    rows (the masked full table): the Weyl sums without row blocks."""
    values = sph_harmonics_s2(t, coords)[0]
    if even:
        values = values[_even_rows(t)]
    return comp_sum(values, axis=1)


class TestBlockedWeylSums:
    """A harmonic value table of more than _PAIR_BLOCK elements is formed
    and summed in row blocks; the sums and tables keep the bits of one
    pass over the whole table."""

    BLOCK = 64

    @staticmethod
    def _cases(X, t):
        # (residual function, points the sums run over, even rows alone)
        yield weyl_residual, X.expanded(), False
        if X.symmetric:
            yield weyl_residual_reduced, X.coords, True

    def _check(self, monkeypatch, X, t):
        for residual, coords, even in self._cases(X, t):
            expect = _one_pass_sums(t, coords, even)
            ref_tables = sph_harmonics_s2(t, coords)[1]
            shapes = []

            def capture(values, axis=None):
                shapes.append(np.shape(values))
                return comp_sum(values, axis=axis)
            with monkeypatch.context() as m:
                m.setattr(criteria, "comp_sum", capture)
                res = residual(X, t)
            r = res.r / 2.0 if even else res.r
            assert r.tobytes() == expect.tobytes()
            assert res.tables.q.tobytes() == ref_tables.q.tobytes()
            assert res.tables.trig.tobytes() == ref_tables.trig.tobytes()
            # blocks of at most _PAIR_BLOCK elements (one row if a row
            # is longer) that cover every row once, in order; a table
            # that fits is one block
            M, rows = coords.shape[0], expect.size
            step = max(1, criteria._PAIR_BLOCK // M)
            assert shapes == [(min(step, rows - i), M)
                              for i in range(0, rows, step)]

    # N = 1 and 2 in one block and in several, blocks that divide the
    # rows (t = 7, N = 7: 63 rows in blocks of 9), ragged last blocks,
    # and one-row blocks (N above the block size)
    @pytest.mark.parametrize("N, t", [(1, 1), (1, 10), (2, 4), (2, 5),
                                      (4, 7), (7, 7), (16, 3), (65, 2),
                                      (70, 6)])
    def test_plain_sets_match_one_pass(self, monkeypatch, N, t):
        monkeypatch.setattr(criteria, "_PAIR_BLOCK", self.BLOCK)
        self._check(monkeypatch, _random_set(2, N, N + t), t)

    # plain and reduced residuals of symmetric sets: 1, 2, 9 and 40
    # representatives
    @pytest.mark.parametrize("N, t", [(2, 2), (2, 12), (4, 6), (18, 5),
                                      (18, 9), (80, 4)])
    def test_symmetric_sets_match_one_pass(self, monkeypatch, N, t):
        monkeypatch.setattr(criteria, "_PAIR_BLOCK", self.BLOCK)
        self._check(monkeypatch, _random_set(2, N, N + t, symmetric=True), t)

    # the module's own block: 35 x 18 (gen_s2's LM) in one block, random
    # 222 at t = 20 in blocks of 147 rows, and a symmetric set whose
    # reduced table is blocked too
    @pytest.mark.parametrize("N, t, symmetric", [(18, 5, True),
                                                 (222, 20, False),
                                                 (400, 30, True)])
    def test_module_block_matches_one_pass(self, monkeypatch, N, t,
                                           symmetric):
        assert criteria._PAIR_BLOCK == 1 << 15
        self._check(monkeypatch, _random_set(2, N, 5, symmetric=symmetric), t)


class TestReducedEvenRows:
    """The reduced residual and its Jacobian build only the even-degree
    rows, with the bits of the masked full table."""

    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6, 7, 20])
    @pytest.mark.parametrize("reps", [1, 2, 9])
    def test_matches_masked_full_table(self, t, reps):
        X = _random_set(2, 2 * reps, 17 * t + reps, symmetric=True)
        mask = _even_rows(t)
        values, tables = sph_harmonics_s2(t, X.coords)
        d1, d2 = sph_harmonics_s2_jacobian(tables)
        even = specfun._harmonic_values(tables, _basis_layout(t, True))
        e1, e2 = sph_harmonics_s2_jacobian(tables, even=True)
        assert even.tobytes() == values[mask].tobytes()
        assert e1.tobytes() == d1[mask].tobytes()
        assert e2.tobytes() == d2[mask].tobytes()
        res = weyl_residual_reduced(X, t)
        assert res.r.tobytes() == (
            2.0 * comp_sum(values[mask], axis=1)).tobytes()
        A = weyl_jacobian(res)
        assert A.tobytes() == _s2_param_columns(
            2.0 * d1[mask], 2.0 * d2[mask]).tobytes()
