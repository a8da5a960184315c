"""Special functions against scipy and brute-force oracles."""

import math

import numpy as np
import pytest
from scipy.special import eval_jacobi, roots_jacobi

from sphdesign.errors import InvalidDimensionError, InvalidParameterError
from sphdesign.specfun import (MAX_HARMONIC_DEGREE, _row, _schmidt_table,
                               _schmidt_theta_deriv, dim_harmonic, dim_poly,
                               jacobi_at_one, jacobi_batch, jacobi_deriv,
                               jacobi_eval, jacobi_largest_zero, row_degrees,
                               sph_harmonics_s2, sph_harmonics_s2_jacobian)
from test_legendre import legendre_norm_batch


def _monomial_count(d, t):
    """Brute-force dimension of spherical polynomials of degree <= t on
    S^d: monomials of degree t and t-1 in d+1 variables."""
    def hom(nvars, deg):
        return math.comb(nvars + deg - 1, deg)
    if t == 0:
        return 1
    return hom(d + 1, t) + hom(d + 1, t - 1)


class TestDimensions:
    def test_harmonic_s2_brute(self):
        for ell in range(0, 30):
            assert dim_harmonic(2, ell) == (1 if ell == 0 else 2 * ell + 1)

    def test_harmonic_s3(self):
        for ell in range(0, 30):
            assert dim_harmonic(3, ell) == (ell + 1) ** 2

    def test_poly_matches_monomial_count(self):
        for d in (1, 2, 3, 5, 8):
            for t in range(0, 12):
                assert dim_poly(d, t) == _monomial_count(d, t)

    def test_poly_is_partial_sum_of_harmonics(self):
        for d in (2, 3, 4):
            for t in range(0, 15):
                assert dim_poly(d, t) == sum(
                    dim_harmonic(d, ell) for ell in range(t + 1))

    def test_invalid_args(self):
        with pytest.raises(InvalidDimensionError):
            dim_harmonic(0, 3)
        with pytest.raises(InvalidParameterError):
            dim_harmonic(2, -1)
        with pytest.raises(InvalidDimensionError):
            dim_poly(0, 3)


class TestJacobi:
    def test_batch_matches_scipy(self):
        z = np.linspace(-1.0, 1.0, 41)
        for alpha, beta in [(0.0, 0.0), (0.5, -0.5), (1.5, 0.5), (2.0, 1.0)]:
            vals = jacobi_batch(alpha, beta, 12, z)
            for ell in range(13):
                expect = eval_jacobi(ell, alpha, beta, z)
                assert np.allclose(vals[ell], expect, rtol=1e-12, atol=1e-12)

    def test_value_at_one(self):
        for alpha in (0.0, 0.5, 1.5, 3.0):
            for ell in range(0, 20):
                direct = eval_jacobi(ell, alpha, 0.25, 1.0)
                assert jacobi_at_one(alpha, ell) == pytest.approx(
                    direct, rel=1e-12)

    def test_deriv_finite_difference(self):
        z = np.linspace(-0.9, 0.9, 13)
        h = 1e-6
        fd = (jacobi_eval(1.5, 0.5, 7, z + h)
              - jacobi_eval(1.5, 0.5, 7, z - h)) / (2.0 * h)
        assert np.allclose(jacobi_deriv(1.5, 0.5, 7, z), fd, rtol=1e-7,
                           atol=1e-7)

    def test_eval_matches_batch_bitwise(self):
        z = np.linspace(-1.0, 1.0, 23)
        vals = jacobi_batch(1.5, 0.5, 9, z)
        for n in range(10):
            assert jacobi_eval(1.5, 0.5, n, z).tobytes() == vals[n].tobytes()

    def test_param_validation(self):
        for fn in (jacobi_eval, jacobi_deriv, jacobi_batch):
            with pytest.raises(InvalidParameterError):
                fn(-1.0, 0.0, 3, 0.3)
            with pytest.raises(InvalidParameterError):
                fn(0.0, -1.5, 4, 0.3)
            with pytest.raises(InvalidParameterError):
                fn(0.0, 0.0, -1, 0.3)


class TestLargestZero:
    def test_matches_scipy_roots(self):
        for alpha, beta in [(0.0, 0.0), (1.0, 0.0), (1.5, 0.5), (2.5, 1.5)]:
            for n in (1, 2, 5, 12, 40, 100, 400):
                expect = roots_jacobi(n, alpha, beta)[0][-1]
                got = jacobi_largest_zero(alpha, beta, n)
                assert got == pytest.approx(expect, abs=1e-12)

    def test_is_a_zero(self):
        for n in (3, 9, 21):
            g = jacobi_largest_zero(1.5, 0.5, n)
            val = float(jacobi_eval(1.5, 0.5, n, g))
            assert abs(val) < 1e-9

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            jacobi_largest_zero(0.0, 0.0, 0)

    def test_parameters_summing_to_minus_one(self):
        # the k = 1 entry of the Jacobi matrix is 0/0 at alpha + beta = -1
        # and takes its limit; P_n^(-1/2,-1/2) is Chebyshev's T_n
        for n in (2, 3, 4, 5, 12, 40, 100, 400):
            assert jacobi_largest_zero(-0.5, -0.5, n) == pytest.approx(
                math.cos(math.pi / (2 * n)), abs=1e-15)
            with np.errstate(invalid="ignore"):  # scipy's own 0/0 at k = 1
                expect = roots_jacobi(n, -0.25, -0.75)[0][-1]
            assert jacobi_largest_zero(-0.25, -0.75, n) == pytest.approx(
                expect, abs=1e-12)

    @pytest.mark.parametrize("d, t, zero", [
        (3, 6, "0.8447506035184563762010594"),
        (3, 15, "0.9651905939355451198897165"),
        (2, 180, "0.9997771625075734726595567"),
        (5, 366, "0.9998780220675206172731831"),
        (8, 12, "0.8940452670188847651781014"),
        (3, 12, "0.9487595481458027535020620"),
        (2, 100000, "0.9999999992659234904257219"),
        (4, 2, "0.3779644730092272272145165"),
        (3, 2, "0.4082482904638630163662140"),
    ])
    def test_against_high_precision_zeros(self, d, t, zero):
        # the largest zero of P_t^(d/2, d/2) that bounds.n_plus uses,
        # from the three-term recurrence and Newton steps at 60 digits
        # (tests/reference_zeros.py); over d = 2..8 and t up to 400 the
        # worst error is 0.88 ulp, and (3, 12) is that worst pair.
        # Without the Newton step LAPACK's bisection is off by up to
        # 2.53 ulp there: (4, 2), 1/sqrt(7), by 2.53 and (3, 2),
        # 1/sqrt(6), by 1.98, against 0.47 and 0.02 with it
        ref = float(zero)
        got = jacobi_largest_zero(d / 2, d / 2, t)
        assert abs(got - ref) <= 1.5 * np.spacing(ref)


def _random_s2(M, seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((M, 3))
    return c / np.linalg.norm(c, axis=1)[:, None]


def _oracle_tables(L, coords):
    """Schmidt table and its colatitude derivative by the scalar
    per-(l, k) recurrences, the reference for the block recurrences."""
    x = np.clip(coords[:, 0], -1.0, 1.0)
    u = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    q = np.zeros(((L + 1) * (L + 2) // 2,) + x.shape)

    def idx(l, k):
        return l * (l + 1) // 2 + k

    q[idx(0, 0)] = 1.0
    for k in range(1, L + 1):
        q[idx(k, k)] = u * np.sqrt((2.0 * k - 1.0) / (2.0 * k)) * q[idx(k - 1, k - 1)]
    for k in range(0, L):
        q[idx(k + 1, k)] = np.sqrt(2.0 * k + 1.0) * x * q[idx(k, k)]
        for l in range(k + 2, L + 1):
            a = np.sqrt(float(l * l - k * k))
            b = np.sqrt(float((l - 1) * (l - 1) - k * k))
            q[idx(l, k)] = ((2.0 * l - 1.0) * x * q[idx(l - 1, k)]
                            - b * q[idx(l - 2, k)]) / a
    dq = np.zeros_like(q)
    for l in range(1, L + 1):
        dq[idx(l, 0)] = -np.sqrt(l * (l + 1.0)) * q[idx(l, 1)]
        for k in range(1, l + 1):
            lo = np.sqrt((l + k) * (l - k + 1.0)) * q[idx(l, k - 1)]
            hi = 0.0 if k == l else np.sqrt((l - k) * (l + k + 1.0)) * q[idx(l, k + 1)]
            dq[idx(l, k)] = 0.5 * (lo - hi)
    return q, dq, idx


def _oracle_harmonics(L, coords):
    """Values and (phi1, phi2) derivatives row by row, one (l, k) at a time."""
    q, dq, idx = _oracle_tables(L, coords)
    phi2 = np.arctan2(coords[:, 2], coords[:, 1])
    out = np.empty(((L + 1) ** 2 - 1, coords.shape[0]))
    d1 = np.zeros_like(out)
    d2 = np.zeros_like(out)
    row = 0
    for l in range(1, L + 1):
        c0 = np.sqrt(2.0 * l + 1.0)
        ck = np.sqrt(2.0 * (2.0 * l + 1.0))
        for k in range(l, 0, -1):
            out[row] = ck * q[idx(l, k)] * np.sin(k * phi2)
            d1[row] = ck * dq[idx(l, k)] * np.sin(k * phi2)
            d2[row] = ck * q[idx(l, k)] * k * np.cos(k * phi2)
            row += 1
        out[row] = c0 * q[idx(l, 0)]
        d1[row] = c0 * dq[idx(l, 0)]
        row += 1
        for k in range(1, l + 1):
            out[row] = ck * q[idx(l, k)] * np.cos(k * phi2)
            d1[row] = ck * dq[idx(l, k)] * np.cos(k * phi2)
            d2[row] = -ck * q[idx(l, k)] * k * np.sin(k * phi2)
            row += 1
    return out, d1, d2


def _bitwise_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestHarmonicsAgainstLoops:
    """The block recurrences do the arithmetic of the scalar loops in
    the same order, so values and derivatives agree bit for bit."""

    @pytest.mark.parametrize("L", [0, 1, 2, 5, 20, 60])
    def test_bitwise_equal_to_loops(self, L):
        coords = np.vstack([_random_s2(40, L), np.eye(3), -np.eye(3),
                            [[np.cos(0.3), np.sin(0.3), 0.0]]])
        values, d1, d2 = _oracle_harmonics(L, coords)
        got, tables = sph_harmonics_s2(L, coords)
        assert _bitwise_equal(got, values)
        # the tables too, the degree-0 row alone at L = 0
        q, dq, _ = _oracle_tables(L, coords)
        assert _bitwise_equal(tables.q, q)
        assert _bitwise_equal(_schmidt_theta_deriv(L, tables.q), dq)
        j1, j2 = sph_harmonics_s2_jacobian(sph_harmonics_s2(L, coords)[1])
        assert _bitwise_equal(j1, d1)
        assert _bitwise_equal(j2, d2)
        r1, r2 = sph_harmonics_s2_jacobian(tables)
        assert _bitwise_equal(r1, d1)
        assert _bitwise_equal(r2, d2)


class TestHarmonics:
    def test_addition_theorem(self):
        # sum_k Y_{l,k}(x) Y_{l,k}(y) = (2l+1) P_l(x . y)
        coords = _random_s2(40, 2)
        L = 25
        Y, _ = sph_harmonics_s2(L, coords)
        g = np.clip(coords @ coords.T, -1.0, 1.0)
        P = legendre_norm_batch(2, L, g)
        row = 0
        for l in range(1, L + 1):
            block = Y[row:row + 2 * l + 1]
            lhs = block.T @ block
            rhs = (2.0 * l + 1.0) * P[l]
            assert np.allclose(lhs, rhs, rtol=0, atol=1e-10)
            row += 2 * l + 1

    def test_high_degree_norm_identity(self):
        # sum over the degree block of Y^2 at a single point equals 2l+1
        coords = _random_s2(6, 9)
        L = 200
        Y, _ = sph_harmonics_s2(L, coords)
        row = 0
        for l in range(1, L + 1):
            block = Y[row:row + 2 * l + 1]
            assert np.allclose(np.sum(block * block, axis=0), 2.0 * l + 1.0,
                               rtol=1e-10, atol=1e-8)
            row += 2 * l + 1

    def test_schmidt_identity_at_the_cap(self):
        # (Q_l^0)^2 + 2 sum_k (Q_l^k)^2 = 1 at the largest accepted
        # degree, near the pole and at u = sin(theta) where the seed
        # u^k of the high orders falls below the normal doubles
        L = MAX_HARMONIC_DEGREE
        u = np.array([0.001, 0.30, 0.33, 0.345, 0.36, 0.37, 0.40])
        block = _schmidt_table(L, np.sqrt(1.0 - u * u))[_row(L, 0):]
        s = block[0] ** 2 + 2.0 * np.sum(block[1:] ** 2, axis=0)
        assert np.max(np.abs(s - 1.0)) <= 1e-10

    def test_orthonormality_by_quadrature(self):
        # Gauss-Legendre x uniform azimuth integrates products exactly
        for L in (0, 1, 6):
            nodes, weights = np.polynomial.legendre.leggauss(2 * L + 2)
            M = 2 * L + 3
            phi = 2.0 * np.pi * np.arange(M) / M
            x = np.repeat(nodes, M)
            p = np.tile(phi, nodes.size)
            s = np.sqrt(1.0 - x * x)
            coords = np.stack([x, s * np.cos(p), s * np.sin(p)], axis=1)
            # the degree-0 harmonic, the constant 1, is not in the basis
            Y = np.vstack([np.ones((1, coords.shape[0])),
                           sph_harmonics_s2(L, coords)[0]])
            w = np.repeat(weights, M) / (2.0 * M)
            G = (Y * w) @ Y.T
            assert G.shape == ((L + 1) ** 2,) * 2
            assert np.allclose(G, np.eye(G.shape[0]), atol=1e-10)

    def test_degree0_row(self):
        # the basis starts at degree 1: degree l fills rows l^2-1..(l+1)^2-2
        coords = _random_s2(5, 4)
        Y, _ = sph_harmonics_s2(3, coords)
        assert Y.shape == (15, 5)
        deg = row_degrees(3)
        assert deg.tolist() == [1] * 3 + [2] * 5 + [3] * 7
        assert deg is row_degrees(3)
        with pytest.raises(ValueError):
            deg[0] = 0

    def test_jacobian_finite_difference(self):
        rng = np.random.default_rng(5)
        phi1 = rng.uniform(0.3, np.pi - 0.3, 7)
        phi2 = rng.uniform(0.0, 2.0 * np.pi, 7)

        def embed(a, b):
            return np.stack([np.cos(a), np.sin(a) * np.cos(b),
                             np.sin(a) * np.sin(b)], axis=1)

        h = 1e-6
        for L in (0, 1, 12):
            d1, d2 = sph_harmonics_s2_jacobian(
                sph_harmonics_s2(L, embed(phi1, phi2))[1])
            f1 = (sph_harmonics_s2(L, embed(phi1 + h, phi2))[0]
                  - sph_harmonics_s2(L, embed(phi1 - h, phi2))[0]) / (2 * h)
            f2 = (sph_harmonics_s2(L, embed(phi1, phi2 + h))[0]
                  - sph_harmonics_s2(L, embed(phi1, phi2 - h))[0]) / (2 * h)
            assert d1.shape == d2.shape == ((L + 1) ** 2 - 1, 7)
            assert np.allclose(d1, f1, rtol=1e-5, atol=1e-5)
            assert np.allclose(d2, f2, rtol=1e-5, atol=1e-5)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(InvalidDimensionError):
            sph_harmonics_s2(3, np.eye(4))

    def test_negative_degree(self):
        # degree 0 is the empty basis; below it there is no basis at all
        assert sph_harmonics_s2(0, np.eye(3))[0].shape == (0, 3)
        with pytest.raises(InvalidParameterError):
            sph_harmonics_s2(-1, np.eye(3))

    def test_degree_cap(self):
        with pytest.raises(InvalidParameterError):
            sph_harmonics_s2(MAX_HARMONIC_DEGREE + 1, np.eye(3))

