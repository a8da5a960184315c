"""Exact vertex sets of highly symmetric configurations used as
verification fixtures: antipodal pair, octahedron and icosahedron on
S^2, and the six regular polytopes on S^3.

All builders return unit-norm PointSet objects constructed from the
standard coordinates.
"""

from itertools import permutations, product
from math import sqrt

import numpy as np

from .pointset import PointSet

_GOLD = (1.0 + sqrt(5.0)) / 2.0


def antipodal_pair(d=2):
    """Two antipodal points, the minimal 1-design."""
    coords = np.zeros((2, d + 1))
    coords[0, 0] = 1.0
    coords[1, 0] = -1.0
    return PointSet(d=d, coords=coords)


def octahedron():
    """The 6 octahedron vertices on S^2, a 3-design."""
    return cross_polytope(2)


def icosahedron():
    """The 12 icosahedron vertices on S^2, a 5-design."""
    g = _GOLD
    rows = []
    for a, b in product((-1.0, 1.0), (-g, g)):
        rows.append([0.0, a, b])
        rows.append([a, b, 0.0])
        rows.append([b, 0.0, a])
    coords = np.array(rows) / sqrt(1.0 + g * g)
    return PointSet(d=2, coords=coords)


def simplex(d=3):
    """The d+2 vertices of the regular simplex on S^d (a 2-design)."""
    n = d + 2
    # columns of the centred identity, projected to the sphere
    g = np.eye(n) - 1.0 / n
    # an orthonormal basis of the hyperplane sum(x) = 0
    q, _ = np.linalg.qr(g[:, : n - 1])
    coords = (g @ q)
    coords /= np.linalg.norm(coords, axis=1)[:, None]
    return PointSet(d=d, coords=coords)


def cross_polytope(d=3):
    """The 2(d+1) vertices +-e_i; on S^3 this is the 16-cell, a 3-design."""
    coords = np.vstack([np.eye(d + 1), -np.eye(d + 1)])
    return PointSet(d=d, coords=coords)


def hypercube(d=3):
    """The 2^(d+1) cube vertices; on S^3 this is the 8-cell, a 3-design."""
    rows = list(product((-1.0, 1.0), repeat=d + 1))
    coords = np.array(rows) / sqrt(d + 1.0)
    return PointSet(d=d, coords=coords)


def cell24():
    """The 24-cell vertices on S^3, a 5-design."""
    rows = set()
    for i in range(4):
        for j in range(i + 1, 4):
            for si, sj in product((-1.0, 1.0), repeat=2):
                v = [0.0] * 4
                v[i] = si
                v[j] = sj
                rows.add(tuple(v))
    coords = np.array(sorted(rows)) / sqrt(2.0)
    return PointSet(d=3, coords=coords)


def _even_permutations(n):
    perms = []
    for p in permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n)
                  if p[i] > p[j])
        if inv % 2 == 0:
            perms.append(p)
    return perms


def cell600():
    """The 120 vertices of the 600-cell on S^3, an 11-design."""
    g = _GOLD
    rows = set()
    for signs in product((-0.5, 0.5), repeat=4):
        rows.add(signs)
    for i in range(4):
        for s in (-1.0, 1.0):
            v = [0.0] * 4
            v[i] = s
            rows.add(tuple(v))
    base = (g / 2.0, 0.5, 1.0 / (2.0 * g), 0.0)
    for p in _even_permutations(4):
        for signs in product((-1.0, 1.0), repeat=4):
            v = tuple(base[p[i]] * signs[i] for i in range(4))
            rows.add(v)
    coords = np.array(sorted(rows))
    coords /= np.linalg.norm(coords, axis=1)[:, None]
    return PointSet(d=3, coords=coords)


def cell120():
    """The 600 vertices of the 120-cell on S^3, an 11-design."""
    g = _GOLD
    rows = set()

    def add_signed(points):
        # every sign pattern of the nonzero entries of each point
        for p in points:
            nz = [i for i, v in enumerate(p) if v != 0.0]
            for signs in product((-1.0, 1.0), repeat=len(nz)):
                v = list(p)
                for i, s in zip(nz, signs):
                    v[i] = v[i] * s
                rows.add(tuple(v))

    for base in ((2.0, 2.0, 0.0, 0.0),
                 (sqrt(5.0), 1.0, 1.0, 1.0),
                 (g, g, g, 1.0 / (g * g)),
                 (g * g, 1.0 / g, 1.0 / g, 1.0 / g)):
        add_signed(set(permutations(base)))
    for base in ((g * g, 1.0 / (g * g), 1.0, 0.0),
                 (sqrt(5.0), 1.0 / g, g, 0.0),
                 (2.0, 1.0, g, 1.0 / g)):
        add_signed(tuple(base[i] for i in p) for p in _even_permutations(4))
    coords = np.array(sorted(rows))
    coords /= np.linalg.norm(coords, axis=1)[:, None]
    return PointSet(d=3, coords=coords)

