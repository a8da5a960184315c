"""Normalized Legendre polynomials, the reference that harmonic sums
and psi coefficients are checked against, and their own tests."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_legendre

from sphdesign.specfun import jacobi_at_one, jacobi_batch


def legendre_norm_batch(d, L, z):
    """P_ell(z) on S^d, normalized to P_ell(1) = 1, for all ell = 0..L
    at once: the Jacobi polynomials of alpha = beta = (d-2)/2 over their
    values at 1, shape (L+1,) + shape(z)."""
    alpha = 0.5 * (d - 2.0)
    vals = jacobi_batch(alpha, alpha, L, z)
    scale = np.array([jacobi_at_one(alpha, ell) for ell in range(L + 1)])
    return vals / scale.reshape((L + 1,) + (1,) * (vals.ndim - 1))


class TestLegendreNorm:
    def test_is_one_at_one(self):
        for d in (2, 3, 4, 7):
            vals = legendre_norm_batch(d, 24, 1.0)
            for ell in range(0, 25):
                assert vals[ell] == pytest.approx(1.0, abs=1e-12)

    def test_d2_is_classical_legendre(self):
        z = np.linspace(-1.0, 1.0, 17)
        vals = legendre_norm_batch(2, 14, z)
        for ell in range(0, 15):
            assert np.allclose(vals[ell], eval_legendre(ell, z), rtol=1e-12,
                               atol=1e-12)

    def test_orthogonality_weighted(self):
        # integral over [-1,1] with weight (1-z^2)^((d-2)/2) vanishes
        # for distinct degrees
        d = 3
        w = 0.5 * (d - 2.0)
        for la, lb in [(0, 1), (1, 2), (2, 5), (3, 4)]:
            def f(z):
                P = legendre_norm_batch(d, lb, z)
                return P[la] * P[lb] * (1 - z * z) ** w

            val, _ = quad(f, -1.0, 1.0)
            assert abs(val) < 1e-12
