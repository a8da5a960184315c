"""Geometric quality metrics: separation, mesh norm and mesh ratio.

The mesh norm (covering radius) h is the largest geodesic distance from
a point of the sphere to its nearest design point, the maximum of the
field f(c) = min_j dist(c, x_j).  It has a closed form in three cases:

- All points in an open hemisphere (the origin lies outside the convex
  hull): with p the point of the hull nearest the origin, f is largest
  at -p/|p| (minimax over the hull).
- Otherwise, points spanning a proper linear subspace: the origin lies
  in their hull, so f <= pi/2 everywhere, with equality on the normal
  directions of the subspace.  This includes N <= d+1 points with the
  origin in their hull.
- Otherwise the spherical Voronoi vertices are the outward unit normals
  of the convex-hull facets (Brown, Voronoi diagrams from convex hulls,
  IPL 1979), and h is the largest facet cap radius.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls
from scipy.spatial import ConvexHull, QhullError

from .criteria import _gram
from .errors import InvalidParameterError, UndefinedMetricError

# Distances below this count as zero: of the origin from the hull, and
# of the points from a hyperplane through the origin.  Either way h is
# then pi/2 to within this much, and qhull is never given a set flatter
# than it can resolve.
_FLAT_TOL = 1e-12
# A repeated row's Gram entry is its squared norm, which PointSet keeps
# within about 2 UNIT_TOL = 2e-12 of 1, so its separation is below
# sqrt(2 * 2e-12) = 2e-6.  Only sets separated by less than this bound
# can hold one.
_REPEATED_ROW_DELTA = 1e-5


def separation(X):
    """Minimum geodesic distance over all point pairs.

    The diagonal of the clipped Gram matrix is overwritten with -1, its
    floor, so the maximum runs over the off-diagonal entries alone; the
    matrix is exactly symmetric (_gram), so that is the maximum over
    unordered pairs, without gathering a triangle.
    """
    coords = X.expanded()
    if coords.shape[0] < 2:
        raise UndefinedMetricError("separation needs at least two points")
    g = _gram(coords)
    np.fill_diagonal(g, -1.0)
    return float(np.arccos(np.max(g)))


def _min_dist_field(centers, coords):
    """f(c) = min_j geodesic distance from each center to the set."""
    g = centers @ coords.T
    np.clip(g, -1.0, 1.0, out=g)
    return np.arccos(np.max(g, axis=1))


def _nearest_hull_point(coords):
    """Direction of the point p* of the convex hull nearest the origin.

    Nonnegative least squares on [coords^T; 1^T] lambda = [0; 1].  With
    lambda = s mu, sum(mu) = 1, the objective is s^2 |coords^T mu|^2 +
    (1 - s)^2, so mu is the nearest-point weight vector whatever s is,
    and the result is p* / (1 + |p*|^2): exactly along p*, zero only
    when the hull contains the origin.
    """
    N, w = coords.shape
    A = np.vstack([coords.T, np.ones((1, N))])
    b = np.zeros(w + 1)
    b[w] = 1.0
    lam, _ = nnls(A, b)
    return coords.T @ lam


def _hull_mesh_norm(coords):
    """Largest cap radius over the facets of the convex hull.

    Each facet normal is evaluated against its own vertices only: every
    other point lies on the inner side of the facet plane.
    """
    try:
        hull = ConvexHull(coords)
    except QhullError as exc:
        raise UndefinedMetricError("convex hull failed: %s" % exc) from exc
    normals = hull.equations[:, :-1]
    g = np.einsum("fk,fjk->fj", normals, coords[hull.simplices]).max(axis=1)
    np.clip(g, -1.0, 1.0, out=g)
    return float(np.arccos(np.min(g)))


def mesh_norm(X):
    """Covering radius h = max over the sphere of f(c) = min_j dist(c, x_j).

    Exact closed form (module docstring): the nearest hull point when
    the points lie in an open hemisphere, pi/2 when they span a proper
    subspace, else the largest convex-hull facet cap.  Every returned h
    is f evaluated at a sphere point, so up to rounding it is both a
    lower bound on the mesh norm and equal to it; near-flat sets that
    get pi/2 are within 1e-12 of it.
    """
    coords = X.expanded()
    N, w = coords.shape
    p = _nearest_hull_point(coords)
    dist = float(np.linalg.norm(p))
    if dist > _FLAT_TOL:
        h = float(_min_dist_field(-p[None, :] / dist, coords)[0])
    elif N <= w or np.linalg.svd(coords, compute_uv=False)[-1] <= _FLAT_TOL:
        h = 0.5 * np.pi
    else:
        h = _hull_mesh_norm(coords)
    return h


@dataclass(frozen=True)
class GeometryReport:
    """Separation, mesh norm, mesh ratio.  h_accuracy is always 0: the
    mesh norm is computed in closed form."""
    delta: float
    h: float
    rho: float
    h_accuracy: float


def mesh_ratio(X, accuracy=1e-6):
    """GeometryReport with rho = 2 h / delta; coincident points
    (a repeated row, or delta = 0) leave rho undefined.

    A repeated row is refused by itself: its rounded Gram entry can fall
    just below 1, which would give delta of about 1.5e-8 instead of 0.
    accuracy is validated (finite, floor 1e-8) for compatibility; the
    closed-form mesh norm does not depend on it.
    """
    if not (np.isfinite(accuracy) and accuracy >= 1e-8):
        raise InvalidParameterError(
            "accuracy must be finite and >= 1e-8, got %r" % (accuracy,))
    delta = separation(X)
    if delta < _REPEATED_ROW_DELTA:
        coords = X.expanded()
        if delta == 0.0 or len(np.unique(coords, axis=0)) < len(coords):
            raise UndefinedMetricError("coincident points: the mesh ratio "
                                       "is undefined")
    h = mesh_norm(X)
    return GeometryReport(delta=delta, h=h, rho=2.0 * h / delta,
                          h_accuracy=0.0)
