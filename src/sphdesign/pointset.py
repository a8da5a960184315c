"""Point sets on S^d: representation, spherical angles, canonical
rotation normalization, packing of free variables, and file I/O.

A point x in R^{d+1} is written with spherical angles phi_1..phi_d as

    x_1 = cos(phi_1)
    x_i = sin(phi_1)...sin(phi_{i-1}) cos(phi_i),  i = 2..d
    x_{d+1} = sin(phi_1)...sin(phi_d)

with phi_i in [0, pi] for i < d and phi_d in [0, 2 pi).  After rotating
the configuration into canonical position (QR with nonnegative diagonal)
the leading angles of the first points are pinned to zero, and only the
remaining angles are optimization variables.
"""

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (InvalidDimensionError, InvalidPointError,
                     InvalidParameterError, ParseError)
from .specfun import _frozen

UNIT_TOL = 1e-12
READ_NORM_TOL = 1e-8
TWO_PI = 2.0 * np.pi


def _row_fault(coords, tol):
    """The first row of the (M, d+1) float array coords that is not a
    unit vector within tol, and why, or None if every row is one.

    A row fails with a non-finite coordinate, a coordinate beyond +-2,
    or a norm more than tol from 1.  No unit vector has a coordinate
    beyond +-1; the bound keeps the norms from overflowing, and NaN
    fails it too, so one global test clears the common path.
    """
    head = coords  # the rows before any NaN or coordinate past +-2
    if not np.abs(coords).max() <= 2.0:
        head = coords[:int(np.argmin(np.abs(coords).max(axis=1) <= 2.0))]
    norms = np.linalg.norm(head, axis=1)
    off = np.abs(norms - 1.0) > tol
    if np.any(off):
        i = int(np.argmax(off))
        return i, "norm %.17g, not within %g of 1" % (norms[i], tol)
    if head is coords:
        return None
    i = len(head)
    if not np.all(np.isfinite(coords[i])):
        return i, "non-finite coordinate"
    return i, ("coordinate of magnitude %.3g, too large for a unit vector"
               % np.abs(coords[i]).max())


@dataclass(frozen=True)
class PointSet:
    """N unit vectors on S^d.

    coords holds one point per row.  When symmetric is true, coords
    stores N/2 representatives and each antipode is implied, so N
    counts the expanded set.  A C-contiguous float64 array is taken
    without a copy and made read-only in place, so the caller's array
    becomes read-only too.
    """
    d: int
    coords: np.ndarray
    symmetric: bool = False

    def __post_init__(self):
        coords = np.ascontiguousarray(np.asarray(self.coords, dtype=float))
        object.__setattr__(self, "coords", coords)
        if self.d < 1:
            raise InvalidDimensionError("d must be >= 1, got %r" % (self.d,))
        if coords.ndim != 2 or coords.shape[1] != self.d + 1:
            raise InvalidPointError(
                "coords must be (N, d+1), got shape %r" % (coords.shape,))
        if coords.shape[0] < 1:
            raise InvalidPointError("need at least one point")
        fault = _row_fault(coords, UNIT_TOL)
        if fault:
            raise InvalidPointError("row %d: %s" % fault)
        coords.setflags(write=False)

    @property
    def N(self):
        n = self.coords.shape[0]
        return 2 * n if self.symmetric else n

    def expanded(self):
        """All N points as an (N, d+1) array, antipodes made explicit."""
        if not self.symmetric:
            return self.coords
        return np.vstack([self.coords, -self.coords])

    def expand(self):
        """A plain (non-symmetric) PointSet with antipodes explicit."""
        if not self.symmetric:
            return self
        return PointSet(d=self.d, coords=self.expanded(), symmetric=False)


def n_free(d, N, symmetric=False):
    """Number of free angles of a normalized configuration."""
    if symmetric:
        if N % 2:
            raise InvalidParameterError("symmetric sets need even N")
        N = N // 2
    if N <= d:
        return N * (N - 1) // 2
    return N * d - d * (d + 1) // 2


@lru_cache(maxsize=None)
def _free_slots(d, N):
    """Packed order of free angles as two read-only index arrays: point
    index j and angle index i, both 0-based, angles i = 0..min(j, d) - 1
    for point j."""
    slots = [(j, i) for j in range(1, N) for i in range(min(j, d))]
    j, i = np.array(slots, dtype=int).reshape(-1, 2).T
    return _frozen(j.copy(), i.copy())


@lru_cache(maxsize=None)
def _angle_bounds(d, N):
    """Read-only (lower, upper) bounds of the packed angles of N points:
    the final angle of a point lies in [0, 2 pi], the others in [0, pi]."""
    _, i = _free_slots(d, N)
    return _frozen(np.zeros(i.size), np.where(i == d - 1, TWO_PI, np.pi))


@dataclass
class ParamVector:
    """Packed free angles of a normalized point set.

    For symmetric sets the angles describe the N/2 representatives.
    Bounds: colatitude-like angles lie in [0, pi]; the final angle of a
    point (index d) in [0, 2 pi).  The bounds are read-only arrays
    shared by every ParamVector of the same shape.
    """
    d: int
    N: int
    symmetric: bool
    values: np.ndarray
    lower: np.ndarray = field(init=False)
    upper: np.ndarray = field(init=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        n = n_free(self.d, self.N, self.symmetric)
        if self.values.shape != (n,):
            raise InvalidParameterError(
                "expected %d packed angles, got shape %r" % (n, self.values.shape))
        reps = self.N // 2 if self.symmetric else self.N
        self.lower, self.upper = _angle_bounds(self.d, reps)
        # written so that NaN angles fail it too
        if not np.all((self.values >= self.lower - 1e-12)
                      & (self.values <= self.upper + 1e-12)):
            raise InvalidParameterError("packed angle out of bounds or NaN")


def _moved(p, values):
    """p with new angles, projected back into the angle box."""
    out = np.array(values)
    azim = p.upper == TWO_PI  # the azimuth slots
    out[azim] = np.mod(out[azim], TWO_PI)
    np.clip(out, p.lower, p.upper, out=out)
    return ParamVector(d=p.d, N=p.N, symmetric=p.symmetric, values=out)


def _sine_prefix(phi):
    """Tables of the (M, d) spherical angles phi: the cosines padded
    with a final column of ones, the sines, and the prefix products
    prefix[:, k] = prod_{m<k} sin(phi_m), built left to right."""
    M, d = phi.shape
    c = np.ones((M, d + 1))
    c[:, :d] = np.cos(phi)
    s = np.sin(phi)
    prefix = np.ones((M, d + 1))
    np.cumprod(s, axis=1, out=prefix[:, 1:])
    return c, s, prefix


def _angle_gradient(tables, g):
    """Angle gradients of M points from their (M, d+1) Cartesian
    gradients g: entry (m, i) is sum_k g[m, k] dx_k/dphi_i.

    tables are the _sine_prefix tables of the M points, or of one point
    shared by every row of g.  Differentiating x_k = prefix_k c_k
    through the suffix sums U_i divides by no sine, so zero sines need
    no special case:

        U_d = g_d,  U_i = g_i c_i + s_i U_{i+1},
        dV/dphi_i = prefix_i (c_i U_{i+1} - s_i g_i).
    """
    c, s, prefix = tables
    d = s.shape[1]
    out = np.empty((g.shape[0], d))
    u = g[:, d]
    for i in range(d - 1, -1, -1):
        out[:, i] = prefix[:, i] * (c[:, i] * u - s[:, i] * g[:, i])
        u = g[:, i] * c[:, i] + s[:, i] * u
    return out


def _point_to_angles(x, d):
    """Spherical angles of a unit vector; zero tails map to angle 0."""
    phi = np.empty(d)
    for i in range(d - 1):
        tail = np.linalg.norm(x[i:])
        phi[i] = 0.0 if tail == 0.0 else float(np.arccos(np.clip(x[i] / tail, -1.0, 1.0)))
    a = float(np.arctan2(x[d], x[d - 1]))
    if x[d] == 0.0 and x[d - 1] == 0.0:
        a = 0.0
    if a < 0.0:
        a += TWO_PI
    if a >= TWO_PI:
        a = 0.0
    phi[d - 1] = a
    return phi


def param_to_points(p):
    """The PointSet of p: the one place packed angles become a PointSet."""
    return PointSet(p.d, _points_and_chain(p)[0], p.symmetric)


def _points_and_chain(p):
    """The (reps, d+1) coordinates of p, and the map from the Cartesian
    gradient of its expanded points to the gradient w.r.t. p.values: the
    _angle_gradient recurrence of each point, read at its free slots.
    One scatter and one sine table serve both."""
    d = p.d
    reps = p.N // 2 if p.symmetric else p.N
    if reps < 1:
        raise InvalidPointError("need at least one point")
    rows, cols = _free_slots(d, reps)
    phi = np.zeros((reps, d))
    phi[rows, cols] = p.values
    tables = _sine_prefix(phi)
    c, _, prefix = tables
    coords = prefix * c
    # in-box angles leave +0.0 (a product with sin(0)) in the trailing
    # coordinates of the first d+1 rows, which are renormalized
    for j in range(min(reps, d + 1)):
        coords[j] /= np.sqrt(coords[j].dot(coords[j]))  # np.linalg.norm

    def chain(gcart):
        if p.symmetric:
            gcart = gcart[:reps] - gcart[reps:]
        return _angle_gradient(tables, gcart)[rows, cols]

    return coords, chain


def points_to_param(X):
    """The packed free angles of X in its canonical position.

    X is first rotated by normalize_pointset, so any set is read; a set
    already exactly in canonical position is read as it is.
    """
    X = normalize_pointset(X)
    d = X.d
    reps = X.coords.shape[0]
    angles = np.array([_point_to_angles(X.coords[j], d) for j in range(reps)])
    values = angles[_free_slots(d, reps)]
    return ParamVector(d=d, N=X.N, symmetric=X.symmetric, values=values)


def normalize_pointset(X):
    """X rotated into canonical position.

    The first d+1 rows of the rotated coordinates form a lower
    triangular matrix, row j zero after column j, with a nonnegative
    diagonal on the first d rows, so the first point is e_1.  The rows
    are those of R^T from the QR factorization of the points as
    columns, renormalized.
    """
    # already exact: zeros after the diagonal of the first d+1 points, a
    # nonnegative diagonal on the first d (the sign of the last
    # coordinate of point d is set by its free azimuth)
    head = X.coords[:X.d + 1]
    if not (np.any(np.triu(head, 1)) or np.any(np.diagonal(head)[:X.d] < 0)):
        return X
    R = np.linalg.qr(X.coords.T, mode="r")  # points as columns
    # a nonnegative diagonal; triu restores +0.0 where a flip left -0.0
    R = np.triu(R * np.where(np.diagonal(R) < 0.0, -1.0, 1.0)[:, None])
    coords = np.zeros((X.coords.shape[0], X.d + 1))
    coords[:, :R.shape[0]] = R.T
    coords /= np.linalg.norm(coords, axis=1)[:, None]
    return PointSet(d=X.d, coords=coords, symmetric=X.symmetric)


def write_pointset(X, path, t=None):
    """Write a PointSet as text, one point per line, 17 significant digits.

    Symmetric sets store only the representatives; the header records
    the expanded count.
    """
    lines = ["# d=%d N=%d%s sym=%d" % (
        X.d, X.N, "" if t is None else " t=%d" % t, 1 if X.symmetric else 0)]
    for row in X.coords:
        lines.append(" ".join("%.17g" % v for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_pointset(path):
    """Read a PointSet written by write_pointset (header optional).

    The file is UTF-8 text, a leading byte-order mark allowed.  Header
    fields are integers; sym is 0 or 1, and a field given twice must
    repeat its value.
    """
    header = {}
    rows = []
    # a byte that is not UTF-8 reads as a lone surrogate, which encode refuses
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError:
                raise ParseError("not UTF-8 text", lineno)
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                for tok in line[1:].split():
                    if "=" in tok:
                        k, _, v = tok.partition("=")
                        try:
                            val = int(v)
                        except ValueError:
                            raise ParseError("bad header field %r" % tok, lineno)
                        if k == "sym" and val not in (0, 1):
                            raise ParseError("header sym must be 0 or 1, "
                                             "got %d" % val, lineno)
                        if header.setdefault(k, val) != val:
                            raise ParseError("header %s=%d contradicts %s=%d"
                                             % (k, val, k, header[k]), lineno)
                continue
            try:
                vals = [float(tok) for tok in line.split()]
            except ValueError:
                raise ParseError("unparseable number in %r" % line, lineno)
            rows.append((lineno, vals))
    if not rows:
        raise ParseError("no points in file")
    width = len(rows[0][1])
    if width < 2:
        raise ParseError("points need at least 2 coordinates", rows[0][0])
    for lineno, vals in rows:
        if len(vals) != width:
            raise ParseError(
                "expected %d columns, got %d" % (width, len(vals)), lineno)
    if "d" in header and header["d"] != width - 1:
        raise ParseError("header d=%d does not match %d columns"
                         % (header["d"], width))
    coords = np.array([vals for _, vals in rows])
    fault = _row_fault(coords, READ_NORM_TOL)
    if fault:
        raise InvalidPointError("line %d: %s" % (rows[fault[0]][0], fault[1]))
    if _row_fault(coords, UNIT_TOL):
        norms = np.linalg.norm(coords, axis=1)
        warnings.warn("renormalizing rows with norm error up to %.3g"
                      % np.max(np.abs(norms - 1.0)))
        coords = coords / norms[:, None]
    symmetric = bool(header.get("sym", 0))
    X = PointSet(d=width - 1, coords=coords, symmetric=symmetric)
    if "N" in header and header["N"] != X.N:
        raise ParseError("header N=%d does not match %d points read"
                         % (header["N"], X.N))
    return X


def param_jacobian_point(phi):
    """Derivatives dx/dphi_i of one point w.r.t. its angles.

    Returns a (d, d+1) array; row i is the partial derivative of the
    point with respect to phi_i.  Column k is the _angle_gradient of
    coordinate k.
    """
    d = len(phi)
    tables = _sine_prefix(np.asarray(phi, dtype=float).reshape(1, d))
    return _angle_gradient(tables, np.eye(d + 1)).T


def _s2_param_columns(d1, d2):
    """C-contiguous columns w.r.t. the packed angles of points on S^2,
    from the (R, reps) derivatives d1 and d2 w.r.t. their colatitudes
    and azimuths.  The order of _free_slots(2, reps) is written out by
    hand: three strided copies are far faster than a gather."""
    reps = d1.shape[1]
    A = np.empty((d1.shape[0], n_free(2, reps)))
    if reps > 1:
        A[:, 0] = d1[:, 1]
        A[:, 1::2] = d1[:, 2:]
        A[:, 2::2] = d2[:, 2:]
    return A
