"""Geometric metrics: exact polytope values, and the closed-form mesh
norm against sampling and recorded values."""

import math

import numpy as np
import pytest

from sphdesign import geometry, polytopes
from sphdesign.errors import InvalidParameterError, UndefinedMetricError
from sphdesign.geometry import (GeometryReport, mesh_norm, mesh_ratio,
                                separation)
from sphdesign.pointset import PointSet


def _random_set(d, N, seed=0):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((N, d + 1))
    c /= np.linalg.norm(c, axis=1)[:, None]
    return PointSet(d=d, coords=c)


def _brute_separation(coords):
    best = math.pi
    for i in range(coords.shape[0]):
        for j in range(i + 1, coords.shape[0]):
            g = float(np.clip(coords[i] @ coords[j], -1.0, 1.0))
            best = min(best, math.acos(g))
    return best


def _triangle_separation(coords):
    """Separation over the gathered strict upper triangle of the Gram
    matrix."""
    N = coords.shape[0]
    g = np.clip(coords @ coords.T, -1.0, 1.0)[np.triu_indices(N, k=1)]
    return float(np.arccos(np.max(g)))


def _sampled_mesh_norm(coords, M=200000, seed=1):
    """Monte-Carlo lower estimate of the covering radius."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((M, coords.shape[1]))
    c /= np.linalg.norm(c, axis=1)[:, None]
    g = np.clip(c @ coords.T, -1.0, 1.0)
    return float(np.max(np.arccos(np.max(g, axis=1))))


def _lonlat(*pairs):
    """Unit vectors from (longitude, latitude) pairs in degrees."""
    rad = np.radians(np.array(pairs, dtype=float))
    lon, lat = rad[:, 0], rad[:, 1]
    return np.stack([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon),
                     np.sin(lat)], axis=1)


class TestSeparation:
    def test_brute_force(self):
        X = _random_set(2, 15, 3)
        assert separation(X) == pytest.approx(_brute_separation(X.coords),
                                              abs=1e-14)

    def test_octahedron(self):
        assert separation(polytopes.octahedron()) == pytest.approx(
            math.pi / 2.0, abs=1e-14)

    def test_symmetric_includes_antipodes(self):
        X = PointSet(d=2, coords=np.eye(3), symmetric=True)
        assert separation(X) == pytest.approx(math.pi / 2.0, abs=1e-14)

    def test_single_point_undefined(self):
        with pytest.raises(UndefinedMetricError):
            separation(PointSet(d=2, coords=np.eye(3)[:1]))

    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("N", [2, 3, 17, 200])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_triangle_oracle_bit_for_bit(self, d, N, symmetric):
        rng = np.random.default_rng(100 * d + N)
        c = rng.standard_normal((N, d + 1))
        c /= np.linalg.norm(c, axis=1)[:, None]
        X = PointSet(d=d, coords=c, symmetric=symmetric)
        assert separation(X).hex() == _triangle_separation(X.expanded()).hex()

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_antipodal_pair_is_pi(self, d):
        assert separation(polytopes.antipodal_pair(d)) == math.pi
        one = PointSet(d=d, coords=np.eye(d + 1)[:1], symmetric=True)
        assert separation(one) == math.pi


class TestMeshNorm:
    def test_antipodal_pair_exact(self):
        # the maximizers form a whole great circle
        X = polytopes.antipodal_pair()
        h = mesh_norm(X)
        assert h == pytest.approx(math.pi / 2.0, abs=1e-4)

    def test_octahedron_exact(self):
        # deep holes at the cube vertices: arccos(1/sqrt(3))
        h = mesh_norm(polytopes.octahedron())
        assert h == pytest.approx(math.acos(1.0 / math.sqrt(3.0)), abs=1e-6)

    def test_icosahedron_exact(self):
        # deep holes at the dodecahedron vertices
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        expect = math.acos(math.sqrt((5.0 + 2.0 * math.sqrt(5.0)) / 15.0))
        h = mesh_norm(polytopes.icosahedron())
        assert h == pytest.approx(expect, abs=1e-6)

    def test_cross_polytope_s3(self):
        # deep hole at (1,1,1,1)/2: arccos(1/2)
        h = mesh_norm(polytopes.cross_polytope())
        assert h == pytest.approx(math.acos(0.5), abs=1e-5)

    def test_bracket_consistent_with_sampling(self):
        # the sampled maximum is itself a lower bound on the true mesh
        # norm, so it can only undershoot the bracket, never exceed it
        for seed in (0, 1):
            X = _random_set(2, 12, seed)
            h = mesh_norm(X)
            sampled = _sampled_mesh_norm(X.coords)
            assert sampled <= h + 1e-12
            assert h >= sampled - 1e-12

    @pytest.mark.parametrize("d, N, gap", [(2, 8, 0.01), (2, 50, 0.01),
                                           (2, 200, 0.01), (3, 4, 0.05),
                                           (3, 6, 0.05), (3, 30, 0.05)])
    def test_hull_matches_sampling(self, d, N, gap):
        # the sampled maximum never exceeds h, and a dense sample comes
        # within its own covering radius of it; N = d+1 points always
        # lie in an open hemisphere
        for seed in (0, 1, 2):
            X = _random_set(d, N, seed)
            h = mesh_norm(X)
            sampled = _sampled_mesh_norm(X.coords)
            assert sampled <= h + 1e-12
            assert h - sampled <= gap

    def test_open_hemisphere_against_sampling(self):
        # origin outside the hull: h exceeds pi/2 and is attained
        # opposite the hull point nearest the origin
        rng = np.random.default_rng(3)
        c = rng.standard_normal((30, 3))
        c[:, 2] = np.abs(c[:, 2]) + 0.05
        c /= np.linalg.norm(c, axis=1)[:, None]
        h = mesh_norm(PointSet(d=2, coords=c))
        sampled = _sampled_mesh_norm(c)
        assert math.pi / 2.0 < sampled <= h + 1e-12
        assert h - sampled <= 0.01

    def test_clustered_hemisphere(self):
        # the hull facet facing the origin would give 3.0537 here; the
        # farthest sphere point is the antipode of the (0, 0) midpoint
        c = _lonlat((1.0, 0.0), (-1.0, 0.0), (0.0, 0.1), (0.0, -0.1))
        h = mesh_norm(PointSet(d=2, coords=c))
        assert h == pytest.approx(math.pi - math.radians(1.0), abs=1e-9)
        assert _sampled_mesh_norm(c) <= h + 1e-12

    @pytest.mark.parametrize("coords, expect", [
        (np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]), math.pi / 2.0),
        (_lonlat((0.0, 0.0), (120.0, 0.0), (240.0, 0.0)), math.pi / 2.0),
        (_lonlat((0.0, 0.0), (90.0, 0.0), (180.0, 0.0), (270.0, 0.0)),
         math.pi / 2.0),
        (np.eye(3)[:1], math.pi),
        # nearly flat: a t=1 design as the solver returns it, and four
        # points of full numerical rank that qhull finds too flat
        (np.array([[1.0, 0.0, 0.0], [-0.5, math.sqrt(0.75), 0.0],
                   [-0.5, -math.sqrt(0.75), 3.3e-14]]), math.pi / 2.0),
        (np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1e-15], [-1.0, 0.0, -1e-15],
                   [0.0, -1.0, 1e-15]]), math.pi / 2.0),
    ])
    def test_degenerate_sets(self, coords, expect):
        X = PointSet(d=coords.shape[1] - 1, coords=coords)
        h = mesh_norm(X)
        assert h == pytest.approx(expect, abs=1e-12)
        assert _sampled_mesh_norm(coords) <= h + 1e-12

    def test_symmetric_pointset(self):
        # the octahedron stored as three representatives
        X = PointSet(d=2, coords=np.eye(3), symmetric=True)
        h = mesh_norm(X)
        assert h == pytest.approx(math.acos(1.0 / math.sqrt(3.0)), abs=1e-14)

    @pytest.mark.parametrize("make, expect", [
        (polytopes.cell600, 0.388139515370189),
        (polytopes.cell120, 0.388139515370189),
        (lambda: _random_set(2, 1302, 0), 0.16925295525009315),
    ])
    def test_recorded_values(self, make, expect):
        # certified branch-and-bound values (accuracy 1e-6, polished
        # lower bounds) recorded before the closed form replaced it
        h = mesh_norm(make())
        assert h == pytest.approx(expect, abs=1e-12)

    def test_hull_failure_is_undefined_metric(self, monkeypatch):
        def fail(coords):
            raise geometry.QhullError("QH6154 initial simplex is flat")
        monkeypatch.setattr(geometry, "ConvexHull", fail)
        with pytest.raises(UndefinedMetricError):
            mesh_norm(polytopes.octahedron())

    def test_accuracy_floor(self):
        with pytest.raises(InvalidParameterError):
            mesh_ratio(polytopes.octahedron(), accuracy=1e-9)

    @pytest.mark.parametrize("accuracy", [float("nan"), float("inf")])
    def test_non_finite_accuracy(self, accuracy):
        # NaN fails the floor comparison, so it is rejected explicitly
        with pytest.raises(InvalidParameterError):
            mesh_ratio(polytopes.octahedron(), accuracy=accuracy)


class TestMeshRatio:
    def test_antipodal(self):
        rep = mesh_ratio(polytopes.antipodal_pair(), accuracy=1e-5)
        assert isinstance(rep, GeometryReport)
        assert rep.rho == pytest.approx(1.0, abs=1e-4)

    def test_octahedron(self):
        rep = mesh_ratio(polytopes.octahedron(), accuracy=1e-5)
        expect = 2.0 * math.acos(1.0 / math.sqrt(3.0)) / (math.pi / 2.0)
        assert rep.rho == pytest.approx(expect, abs=1e-4)
        assert rep.h_accuracy <= 1e-5

    def test_coincident_points_undefined(self):
        coords = np.vstack([polytopes.octahedron().coords, [[1.0, 0.0, 0.0]]])
        with pytest.raises(UndefinedMetricError):
            mesh_ratio(PointSet(d=2, coords=coords))

    @pytest.mark.parametrize("scale", [1.0, 1.0 - 9e-13])
    @pytest.mark.parametrize("seed", range(8))
    def test_repeated_row_undefined(self, seed, scale):
        # the self dot product of a repeated row often rounds below 1,
        # which leaves a tiny nonzero separation; a norm at the edge of
        # the unit tolerance leaves the largest one
        v = np.random.default_rng(seed).standard_normal(3)
        v *= scale / np.linalg.norm(v)
        X = PointSet(d=2, coords=np.vstack([v, v, np.eye(3)]))
        with pytest.raises(UndefinedMetricError):
            mesh_ratio(X)

    @pytest.mark.parametrize("d", [2, 3])
    def test_repeated_representative_undefined(self, d):
        # a symmetric set whose representative repeats holds two copies
        # of it and of its antipode
        v = np.random.default_rng(d).standard_normal(d + 1)
        v /= np.linalg.norm(v)
        X = PointSet(d=d, coords=np.vstack([v, np.eye(d + 1), v]),
                     symmetric=True)
        with pytest.raises(UndefinedMetricError):
            mesh_ratio(X)

    def test_calls_mesh_norm_through_module(self, monkeypatch):
        # wrappers installed on geometry.mesh_norm see mesh_ratio's call
        monkeypatch.setattr(geometry, "mesh_norm", lambda X: 0.5)
        rep = mesh_ratio(polytopes.octahedron())
        assert rep.h == 0.5 and rep.h_accuracy == 0.0
