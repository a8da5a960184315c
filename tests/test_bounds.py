"""Point-count bounds against published tables and direct oracles."""

import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import roots_jacobi

import sphdesign
from sphdesign.bounds import (BoundsRow, bounds_row, m_sym, n_bar,
                              n_hat, n_plus, n_star)
from sphdesign.errors import InvalidDimensionError, InvalidParameterError
from sphdesign.specfun import dim_poly

from reference_tables import (S2_GENERAL, S2_SYMMETRIC, S3_GENERAL,
                              S3_POLYTOPES, S3_SYMMETRIC)

# degrees where the tabulated d=2 point count is one below the
# free-angle count n_hat
S2_N_EXCEPTIONS = {3, 5, 7, 9, 11, 13, 15}
# degrees where the tabulated symmetric count differs from n_bar
# (antipodal pair, octahedron, icosahedron, and three larger sets)
S2_SYM_EXCEPTIONS = {1: 2, 3: 6, 5: 12, 7: 32, 11: 70, 15: 120}


class TestLowerBounds:
    def test_small_values_by_hand(self):
        # t = 1: two antipodal points; t = 2: a simplex-sized set
        assert n_star(2, 1) == 2
        assert n_star(2, 2) == 4
        assert n_star(2, 3) == 6
        assert n_star(3, 1) == 2
        assert n_star(3, 2) == 5

    def test_n_plus_refines_n_star_on_s2(self):
        # on S^2 the cap bound is never weaker; in higher dimensions
        # neither bound dominates, so no such claim is made there
        for t in range(1, 60):
            assert n_plus(2, t) >= n_star(2, t)

    def test_n_plus_caps_cover_sphere(self):
        # the bound is area(S^d) / area(cap); recompute it with
        # scipy quadrature nodes as an independent largest-zero source
        for d in (1, 2, 3):
            alpha = 0.5 * (d - 2.0)
            for t in (4, 9, 15, 30):
                gamma = roots_jacobi(t, alpha + 1.0, alpha + 1.0)[0][-1]
                if d == 1:
                    expect = math.pi / math.acos(gamma)
                elif d == 2:
                    expect = 2.0 / (1.0 - gamma)
                else:
                    from scipy.integrate import quad
                    total, _ = quad(lambda z: (1 - z * z) ** alpha, -1, 1)
                    cap, _ = quad(lambda z: (1 - z * z) ** alpha, gamma, 1)
                    expect = total / cap
                assert n_plus(d, t) == math.ceil(expect - 1e-9)

    # ceilings of area(S^d) / area(cap) at 60 digits (mpmath: the zero
    # by the three-term recurrence and Newton steps, then betainc); the
    # exact ratios lie 0.04 to 0.06 from an integer, where adaptive
    # quadrature of the cap missed by one
    @pytest.mark.parametrize("d, t, expect", [
        (5, 137, 49844234),      # 49844233.9403
        (5, 145, 65804881),      # 65804880.9545
        (7, 109, 1990774768),    # 1990774767.9494
        (3, 918, 40446244),      # 40446243.0604
        (4, 900, 5086494982),    # 5086494981.0479
    ])
    def test_n_plus_against_high_precision(self, d, t, expect):
        assert n_plus(d, t) == expect

    def test_n_plus_on_the_circle(self):
        # the regular (t+1)-gon is a t-design, so a bound above t + 1
        # is false; quadrature of the singular weight (1 - z^2)^(-1/2)
        # warns and overshoots
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert [n_plus(1, t) for t in range(1, 1001)] == \
                list(range(2, 1002))

    def test_invalid(self):
        with pytest.raises(InvalidDimensionError):
            n_star(0, 3)
        with pytest.raises(InvalidParameterError):
            n_plus(2, 0)


class TestFreedomCounts:
    def test_n_hat_oracle(self):
        # smallest N with N d - d(d+1)/2 >= D(d,t) - 1
        for d in (2, 3, 4):
            for t in range(1, 30):
                N = n_hat(d, t)
                cond = dim_poly(d, t) - 1
                free = N * d - d * (d + 1) // 2
                assert free >= cond
                assert (N - 1) * d - d * (d + 1) // 2 < cond

    def test_n_bar_oracle(self):
        # smallest even N whose half gives enough free angles for the
        # even-degree conditions
        for d in (2, 3):
            for t in range(1, 30, 2):
                N = n_bar(d, t)
                assert N % 2 == 0
                m = m_sym(d, t)
                free = (N // 2) * d - d * (d + 1) // 2
                assert free >= m
                assert (N // 2 - 1) * d - d * (d + 1) // 2 < m

    def test_n_bar_rejects_even_t(self):
        with pytest.raises(InvalidParameterError):
            n_bar(2, 4)

    def test_specific_values(self):
        assert n_hat(3, 13) == 340
        assert n_bar(3, 15) == 458

    @pytest.mark.parametrize("d, t", [(7, 638), (7, 695), (12, 999),
                                      (12, 1000)])
    def test_exact_beyond_double_precision(self, d, t):
        # the counts exceed 2^53 here, where a float quotient rounds
        k = dim_poly(d, t) + d * (d + 1) // 2 - 1
        assert n_hat(d, t) == math.ceil(Fraction(k, d))
        if t % 2:
            k = m_sym(d, t) + d * (d + 1) // 2
            assert n_bar(d, t) == 2 * math.ceil(Fraction(k, d))


class TestAgainstTables:
    def test_s2_bounds_columns(self):
        for row in S2_GENERAL:
            t, nstar, nplus, N = row[0], row[1], row[2], row[3]
            assert n_star(2, t) == nstar
            assert n_plus(2, t) == nplus
            expect_N = n_hat(2, t) - (1 if t in S2_N_EXCEPTIONS else 0)
            assert N == expect_N

    def test_s2_symmetric_columns(self):
        for row in S2_SYMMETRIC:
            t, nstar, nplus, N = row[0], row[1], row[2], row[3]
            assert n_star(2, t) == nstar
            assert n_plus(2, t) == nplus
            assert N == S2_SYM_EXCEPTIONS.get(t, n_bar(2, t))

    def test_s3_columns(self):
        for row in S3_GENERAL:
            t, nstar, nplus, N = row[0], row[1], row[2], row[3]
            assert n_star(3, t) == nstar
            assert n_plus(3, t) == nplus
            assert N == n_hat(3, t)

    def test_s3_symmetric_columns(self):
        for row in S3_SYMMETRIC:
            t, nstar, nplus = row[0], row[1], row[2]
            assert n_star(3, t) == nstar
            assert n_plus(3, t) == nplus

    def test_s3_polytope_rows(self):
        for row in S3_POLYTOPES:
            t, nstar, nplus, nhat = row[0], row[1], row[2], row[3]
            assert n_star(3, t) == nstar
            assert n_plus(3, t) == nplus
            assert n_hat(3, t) == nhat


def test_bounds_row():
    row = bounds_row(2, 5)
    assert isinstance(row, BoundsRow)
    assert (row.n_star, row.n_plus) == (12, 12)
    assert row.n_bar == n_bar(2, 5)
    assert row.dim_poly == 36
    even = bounds_row(2, 4)
    assert even.n_bar == -1


def test_import_leaves_out_quadrature():
    # the bounds are closed forms; no module of the package needs
    # scipy.integrate
    src = os.path.dirname(os.path.dirname(sphdesign.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, sphdesign; "
         "print('scipy.integrate' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"
