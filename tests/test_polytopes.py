"""Regular polytope fixtures: construction sanity and design degrees."""

import math

import numpy as np
import pytest

from sphdesign import polytopes
from sphdesign.quadrature import verify_design


ALL_FIXTURES = [
    (polytopes.antipodal_pair, 2, 2, 1),
    (polytopes.octahedron, 6, 2, 3),
    (polytopes.icosahedron, 12, 2, 5),
    (polytopes.simplex, 5, 3, 2),
    (polytopes.cross_polytope, 8, 3, 3),
    (polytopes.hypercube, 16, 3, 3),
    (polytopes.cell24, 24, 3, 5),
    (polytopes.cell600, 120, 3, 11),
    (polytopes.cell120, 600, 3, 11),
]


@pytest.mark.parametrize("build,N,d,t", ALL_FIXTURES)
def test_counts_and_norms(build, N, d, t):
    X = build()
    assert X.d == d
    assert X.N == N
    coords = X.expanded()
    assert np.allclose(np.linalg.norm(coords, axis=1), 1.0, atol=1e-12)
    # vertices are pairwise distinct
    g = coords @ coords.T
    np.fill_diagonal(g, -1.0)
    assert np.max(g) < 1.0 - 1e-9


@pytest.mark.parametrize("build,N,d,t", ALL_FIXTURES)
def test_design_degree(build, N, d, t):
    X = build()
    report = verify_design(X, t)
    assert report.is_design
    assert report.exactness_degree == t


@pytest.mark.parametrize("build,N,d,t", ALL_FIXTURES)
def test_degree_is_sharp(build, N, d, t):
    # one degree higher must fail (these polytopes are exactly t-designs)
    X = build()
    report = verify_design(X, t + 1)
    assert not report.is_design
    assert report.exactness_degree == t


def test_vertex_transitive_inner_products():
    # each vertex of the 24-cell sees the same multiset of angles
    X = polytopes.cell24()
    g = X.coords @ X.coords.T
    ref = np.sort(g[0])
    for i in range(1, 24):
        assert np.allclose(np.sort(g[i]), ref, atol=1e-12)


def _pair_products(X):
    """Inner products x_i . x_j, i < j, of the expanded points."""
    c = X.expanded()
    return (c @ c.T)[np.triu_indices(c.shape[0], k=1)]


def test_simplex_inner_products():
    # regular simplex on S^3: all 10 off-diagonal products equal -1/4
    g = _pair_products(polytopes.simplex(3))
    assert g.size == 10
    assert np.all(np.abs(g + 0.25) <= 1e-12)


def test_icosahedron_separation_angle():
    # neighbouring vertices subtend arccos(1/sqrt(5))
    g = _pair_products(polytopes.icosahedron())
    assert np.max(g) == pytest.approx(1.0 / math.sqrt(5.0), abs=1e-12)


def test_cell600_contains_cell24_structure():
    # inner products of the 600-cell take the golden-ratio family values
    g = _pair_products(polytopes.cell600())
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    expect = {-1.0, -phi / 2.0, -0.5, -1.0 / (2.0 * phi), 0.0,
              1.0 / (2.0 * phi), 0.5, phi / 2.0}
    got = set(np.round(g, 9))
    assert got == set(np.round(sorted(expect), 9))


def test_antipodal_symmetry_flags():
    # the fixtures with central symmetry expose symmetric storage
    for build in (polytopes.octahedron, polytopes.icosahedron,
                  polytopes.cross_polytope, polytopes.hypercube,
                  polytopes.cell24, polytopes.cell600, polytopes.cell120):
        X = build()
        coords = X.expanded()
        # for every vertex the antipode is present
        g = coords @ coords.T
        assert np.allclose(np.min(g, axis=1), -1.0, atol=1e-12)
