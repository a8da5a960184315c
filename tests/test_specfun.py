"""Special functions against scipy and brute-force oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_jacobi, roots_jacobi

from sphdesign.errors import InvalidDimensionError, InvalidParameterError
from sphdesign.specfun import (dim_harmonic, dim_poly, jacobi_at_one,
                               jacobi_batch, jacobi_deriv, jacobi_eval,
                               jacobi_largest_zero, legendre_norm,
                               legendre_norm_batch, row_degrees,
                               sph_harmonics_s2, sph_harmonics_s2_jacobian)


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


class TestLegendreNorm:
    def test_is_one_at_one(self):
        for d in (2, 3, 4, 7):
            for ell in range(0, 25):
                assert legendre_norm(d, ell, 1.0) == pytest.approx(1.0,
                                                                   abs=1e-12)

    def test_batch_consistent(self):
        z = np.linspace(-1.0, 1.0, 17)
        vals = legendre_norm_batch(3, 10, z)
        for ell in range(11):
            assert np.allclose(vals[ell], legendre_norm(3, ell, z),
                               rtol=1e-13, atol=1e-13)

    def test_d2_is_classical_legendre(self):
        from scipy.special import eval_legendre
        z = np.linspace(-1.0, 1.0, 17)
        for ell in range(0, 15):
            assert np.allclose(legendre_norm(2, ell, z),
                               eval_legendre(ell, z), rtol=1e-12, atol=1e-12)

    def test_orthogonality_weighted(self):
        # integral over [-1,1] with weight (1-z^2)^((d-2)/2) vanishes
        # for distinct degrees
        d = 3
        w = 0.5 * (d - 2.0)
        for la, lb in [(0, 1), (1, 2), (2, 5), (3, 4)]:
            val, _ = quad(lambda z: legendre_norm(d, la, z)
                          * legendre_norm(d, lb, z) * (1 - z * z) ** w,
                          -1.0, 1.0)
            assert abs(val) < 1e-12


class TestLargestZero:
    def test_matches_scipy_roots(self):
        for alpha, beta in [(0.0, 0.0), (1.0, 0.0), (1.5, 0.5), (2.5, 1.5)]:
            for n in (1, 2, 5, 12, 40):
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
        j1, j2 = sph_harmonics_s2_jacobian(L, coords)
        assert _bitwise_equal(j1, d1)
        assert _bitwise_equal(j2, d2)
        r1, r2 = sph_harmonics_s2_jacobian(L, coords, tables=tables)
        assert _bitwise_equal(r1, d1)
        assert _bitwise_equal(r2, d2)

    def test_tables_of_other_points_rejected(self):
        _, tables = sph_harmonics_s2(4, _random_s2(6, 1))
        with pytest.raises(InvalidParameterError):
            sph_harmonics_s2_jacobian(4, _random_s2(7, 1), tables=tables)
        with pytest.raises(InvalidParameterError):
            sph_harmonics_s2_jacobian(5, _random_s2(6, 1), tables=tables)


class TestHarmonics:
    def test_addition_theorem(self):
        # sum_k Y_{l,k}(x) Y_{l,k}(y) = (2l+1) P_l(x . y)
        coords = _random_s2(40, 2)
        L = 25
        Y, _ = sph_harmonics_s2(L, coords)
        g = np.clip(coords @ coords.T, -1.0, 1.0)
        row = 0
        for l in range(1, L + 1):
            block = Y[row:row + 2 * l + 1]
            lhs = block.T @ block
            rhs = (2.0 * l + 1.0) * legendre_norm(2, l, g)
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

    def test_orthonormality_by_quadrature(self):
        # Gauss-Legendre x uniform azimuth integrates products exactly
        L = 6
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

        L = 12
        d1, d2 = sph_harmonics_s2_jacobian(L, embed(phi1, phi2))
        h = 1e-6
        f1 = (sph_harmonics_s2(L, embed(phi1 + h, phi2))[0]
              - sph_harmonics_s2(L, embed(phi1 - h, phi2))[0]) / (2 * h)
        f2 = (sph_harmonics_s2(L, embed(phi1, phi2 + h))[0]
              - sph_harmonics_s2(L, embed(phi1, phi2 - h))[0]) / (2 * h)
        assert np.allclose(d1, f1, rtol=1e-5, atol=1e-5)
        assert np.allclose(d2, f2, rtol=1e-5, atol=1e-5)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(InvalidDimensionError):
            sph_harmonics_s2(3, np.eye(4))

    def test_degree_cap(self):
        with pytest.raises(InvalidParameterError):
            sph_harmonics_s2(2001, np.eye(3))

