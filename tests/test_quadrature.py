"""Equal-weight quadrature and the design verdict."""

import math

import numpy as np
import pytest

from sphdesign import polytopes, specfun
from sphdesign.errors import InvalidParameterError
from sphdesign.pointset import PointSet
from sphdesign.quadrature import DEFAULT_TOL, integrate, verify_design
from sphdesign.summation import comp_sum


def _random_set(d, N, seed=0):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((N, d + 1))
    c /= np.linalg.norm(c, axis=1)[:, None]
    return PointSet(d=d, coords=c)


def _degree_max_weyl_s2(X, t_max):
    """Per-degree max |r_{l,k}|/N for l = 1..t_max and the raw sums: the
    former verification path of S^2, kept as an oracle."""
    values, _ = specfun.sph_harmonics_s2(t_max, X.expanded())
    sums = comp_sum(values, axis=1)
    N = X.N
    out = np.empty(t_max)
    pos = 0
    for ell in range(1, t_max + 1):
        width = 2 * ell + 1
        out[ell - 1] = np.max(np.abs(sums[pos:pos + width])) / N
        pos += width
    return out, sums


class TestIntegrate:
    def test_constant(self):
        X = _random_set(2, 17, 1)
        assert integrate(X, lambda x: 3.0) == pytest.approx(3.0, rel=1e-15)

    def test_design_integrates_polynomial_exactly(self):
        # degree-5 polynomial against the icosahedron; the sphere
        # average of x0^2 is 1/3 and of x0^4 is 1/5
        X = polytopes.icosahedron()

        def f(x):
            return 7.0 * x[0] ** 4 - 2.0 * x[1] ** 2 + x[2] ** 5 + 0.25

        expect = 7.0 / 5.0 - 2.0 / 3.0 + 0.25
        assert integrate(X, f) == pytest.approx(expect, abs=1e-14)

    def test_odd_function_on_symmetric_set(self):
        X = polytopes.cell24()
        assert integrate(X, lambda x: x[0] ** 3 + x[3]) == pytest.approx(
            0.0, abs=1e-15)


class TestVerify:
    def test_octahedron_passes_t3(self):
        rep = verify_design(polytopes.octahedron(), 3)
        assert rep.is_design
        assert rep.exactness_degree == 3
        assert rep.max_abs_weyl <= 1e-13
        assert max(abs(rep.V1), abs(rep.V2), abs(rep.V3)) <= 1e-14

    def test_octahedron_fails_t4(self):
        rep = verify_design(polytopes.octahedron(), 4)
        assert not rep.is_design
        assert rep.exactness_degree == 3
        assert rep.max_abs_weyl > 1e-3

    def test_monotone_exactness(self):
        # the incremental checks are monotone: exactness at degree t
        # implies every lower degree passed
        rep = verify_design(polytopes.icosahedron(), 6)
        assert rep.exactness_degree == 5
        for tt in range(1, 6):
            assert verify_design(polytopes.icosahedron(), tt).is_design

    def test_random_set_is_no_design(self):
        rep = verify_design(_random_set(2, 20, 3), 1)
        assert not rep.is_design
        assert rep.exactness_degree == 0

    def test_symmetric_set_passes_odd_degrees(self):
        # antipodal symmetry kills every odd-degree Weyl sum
        X = _random_set(2, 9, 4)
        Y = PointSet(d=2, coords=X.coords, symmetric=True)
        rep = verify_design(Y, 7)
        from sphdesign.criteria import weyl_residual, symmetric_row_mask
        r = weyl_residual(Y, 7).r
        assert np.max(np.abs(r[~symmetric_row_mask(7)])) < 1e-12 * Y.N

    def test_d3_design_verdict(self):
        rep = verify_design(polytopes.cell24(), 5)
        assert rep.is_design
        assert rep.exactness_degree == 5
        assert math.isnan(rep.max_abs_weyl) and math.isnan(rep.rTr)
        rep6 = verify_design(polytopes.cell24(), 6)
        assert not rep6.is_design and rep6.exactness_degree == 5

    def test_weyl_and_variational_verdicts_agree(self):
        # cross-check the two formulations on designs and non-designs
        for X, t in [(polytopes.octahedron(), 3),
                     (polytopes.icosahedron(), 5),
                     (_random_set(2, 14, 8), 3)]:
            rep = verify_design(X, t)
            by_v = max(abs(rep.V1), abs(rep.V2), abs(rep.V3)) <= 1e-12
            assert rep.is_design == by_v

    def test_report_round_trip(self):
        import json
        rep = verify_design(polytopes.octahedron(), 3)
        blob = json.loads(json.dumps(rep.to_dict()))
        assert blob["is_design"] is True
        assert blob["t_claimed"] == 3
        assert blob["exactness_degree"] == 3

    @pytest.mark.parametrize("make, t", [
        (polytopes.octahedron, 3), (polytopes.octahedron, 4),
        (polytopes.icosahedron, 5), (polytopes.icosahedron, 7),
        (lambda: PointSet(d=2, coords=_random_set(2, 9, 4).coords,
                          symmetric=True), 7),
        (lambda: _random_set(2, 222, 0), 20),
    ])
    def test_weyl_verdict_bitwise_against_oracle(self, make, t):
        X = make()
        rep = verify_design(X, t)
        per_degree, sums = _degree_max_weyl_s2(X, t)
        exact = 0
        for ell in range(1, t + 1):
            if per_degree[ell - 1] > DEFAULT_TOL:
                break
            exact = ell
        assert rep.max_abs_weyl == float(np.max(per_degree))
        assert rep.rTr == float(comp_sum(sums * sums))
        assert rep.exactness_degree == exact
        assert rep.is_design == (float(np.max(per_degree)) <= DEFAULT_TOL)

    def test_invalid_degree(self):
        with pytest.raises(InvalidParameterError):
            verify_design(polytopes.octahedron(), 0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_invalid_tolerance(self, tol):
        # a NaN tolerance fails every comparison and would certify a
        # made-up exactness degree
        X = PointSet(d=2, coords=np.eye(3))
        with pytest.raises(InvalidParameterError):
            verify_design(X, 1, tolerance=tol)
        with pytest.raises(InvalidParameterError):
            verify_design(polytopes.cell24(), 2, tolerance=tol)

    def test_tolerance_is_configurable(self):
        X = _random_set(2, 30, 11)
        assert verify_design(X, 1, tolerance=10.0).is_design
        assert not verify_design(X, 1, tolerance=DEFAULT_TOL).is_design
