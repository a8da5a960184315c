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
                     InvalidParameterError, NotNormalizedError, ParseError)
from .specfun import _frozen

UNIT_TOL = 1e-12
READ_NORM_TOL = 1e-8
TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class PointSet:
    """N unit vectors on S^d.

    coords holds one point per row.  When symmetric is true, coords
    stores N/2 representatives and each antipode is implied, so N
    counts the expanded set.
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
        # no unit vector has a coordinate beyond +-1; the bound keeps the
        # norms from overflowing, and NaN fails it too
        if not np.abs(coords).max() <= 2.0:
            finite = np.all(np.isfinite(coords), axis=1)
            if not np.all(finite):
                raise InvalidPointError("row %d has a non-finite coordinate"
                                        % int(np.argmin(finite)))
            big = np.abs(coords).max(axis=1)
            i = int(np.argmax(big > 2.0))
            raise InvalidPointError(
                "row %d has a coordinate of magnitude %.3g, so its norm is "
                "not within %g of 1" % (i, big[i], UNIT_TOL))
        norms = np.linalg.norm(coords, axis=1)
        bad = np.abs(norms - 1.0) > UNIT_TOL
        if np.any(bad):
            raise InvalidPointError(
                "row %d has norm %.17g, not within %g of 1"
                % (int(np.argmax(bad)), norms[np.argmax(bad)], UNIT_TOL))
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


def surface_area(d):
    """Surface area of the unit sphere S^d in R^{d+1}."""
    from math import pi, lgamma, exp
    if d < 1:
        raise InvalidDimensionError("d must be >= 1, got %r" % (d,))
    return 2.0 * pi ** ((d + 1) / 2.0) * exp(-lgamma((d + 1) / 2.0))


def geodesic_dist(x, y):
    """Great-circle distance between two unit vectors, in radians."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    for v in (x, y):
        # written so that NaN and Inf norms fail it too
        if not abs(np.linalg.norm(v) - 1.0) <= UNIT_TOL:
            raise InvalidPointError("geodesic_dist requires unit vectors")
    return float(np.arccos(np.clip(np.dot(x, y), -1.0, 1.0)))


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
    azim = _free_slots(p.d, p.N // 2 if p.symmetric else p.N)[1] == p.d - 1
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
    """Expand a ParamVector into its normalized PointSet."""
    return _points_and_chain(p)[0]


def _points_and_chain(p):
    """The PointSet of p, and the map from the Cartesian gradient of its
    expanded points to the gradient w.r.t. p.values: per slot the np.dot
    of its param_jacobian_point row with its point's gradient, bit for
    bit.  One scatter and one sine table serve both."""
    d = p.d
    reps = p.N // 2 if p.symmetric else p.N
    rows, cols = _free_slots(d, reps)
    phi = np.zeros((reps, d))
    phi[rows, cols] = p.values
    tables = _sine_prefix(phi)
    c, _, prefix = tables
    coords = prefix * c
    # the zero pattern makes trailing coordinates exactly zero
    for j in range(min(reps, d + 1)):
        coords[j, j + 1:] = 0.0
        nrm = np.sqrt(coords[j].dot(coords[j]))  # np.linalg.norm, inlined
        if nrm > 0:
            coords[j] /= nrm

    def chain(gcart):
        if p.symmetric:
            gcart = gcart[:reps] - gcart[reps:]
        J = _slot_jacobian(tables, rows, cols)
        # a stacked (1 x n) @ (n x 1) product is one ddot per slot, the
        # same reduction as np.dot; einsum and row sums reassociate
        return (J[:, None, :] @ gcart[rows][:, :, None]).ravel()

    return PointSet(d=d, coords=coords, symmetric=p.symmetric), chain


def points_to_param(X):
    """Recover the packed free angles of a normalized PointSet.

    Raises NotNormalizedError when X lacks the canonical zero pattern.
    """
    d = X.d
    reps = X.coords.shape[0]
    _require_normalized(X)
    angles = np.array([_point_to_angles(X.coords[j], d) for j in range(reps)])
    values = angles[_free_slots(d, reps)]
    return ParamVector(d=d, N=X.N, symmetric=X.symmetric, values=values)


def _require_normalized(X, tol=1e-10):
    coords = X.coords
    reps, w = coords.shape
    d = X.d
    for j in range(min(reps, w)):
        if np.any(np.abs(coords[j, j + 1:]) > tol):
            raise NotNormalizedError(
                "point %d violates the canonical zero pattern" % j)
        # the sign of the last coordinate of point d is set by its free
        # azimuth, so only the first min(d, N) diagonal entries are pinned
        if j < min(reps, d) and coords[j, j] < -tol:
            raise NotNormalizedError(
                "point %d has a negative pinned coordinate" % j)


def is_normalized(X, tol=1e-10):
    try:
        _require_normalized(X, tol)
    except NotNormalizedError:
        return False
    return True


def normalize_pointset(X):
    """Rotate X into canonical position.

    Returns (Y, Q) with Y the rotated set and Q the (d+1)x(d+1)
    orthogonal matrix such that Y = X Q^T row-wise.  The rotated
    coordinate matrix is upper triangular across the first points with
    nonnegative diagonal, so the first point is e_1.  Rank deficiency
    is resolved by the identity completion of the QR factorization.
    """
    if is_normalized(X, tol=0.0):
        return X, np.eye(X.d + 1)
    A = X.coords.T  # (d+1, reps), points as columns
    Q, R = np.linalg.qr(A, mode="complete")
    m = min(A.shape)
    for i in range(m):
        if R[i, i] < 0.0:
            R[i, :] *= -1.0
            Q[:, i] *= -1.0
    coords = np.zeros((X.coords.shape[0], X.d + 1))
    coords[:, :R.shape[0]] = R.T
    # exact zeros in the pinned pattern, then restore unit rows
    for j in range(min(coords.shape[0], X.d + 1)):
        coords[j, j + 1:] = 0.0
    norms = np.linalg.norm(coords, axis=1)
    coords /= norms[:, None]
    Y = PointSet(d=X.d, coords=coords, symmetric=X.symmetric)
    return Y, Q.T


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

    Header fields are integers; sym is 0 or 1, and a field given twice
    must repeat its value.
    """
    header = {}
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
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
    finite = np.all(np.isfinite(coords), axis=1)
    if not np.all(finite):
        raise InvalidPointError("line %d: non-finite coordinate"
                                % rows[int(np.argmin(finite))][0])
    big = np.abs(coords).max(axis=1) > 2.0  # as in PointSet
    if np.any(big):
        raise InvalidPointError("line %d: coordinate too large for a unit "
                                "vector" % rows[int(np.argmax(big))][0])
    norms = np.linalg.norm(coords, axis=1)
    worst = float(np.max(np.abs(norms - 1.0)))
    if worst > READ_NORM_TOL:
        raise InvalidPointError(
            "line %d: norm deviates by %.3g (limit %g)"
            % (rows[int(np.argmax(np.abs(norms - 1.0)))][0], worst, READ_NORM_TOL))
    if worst > UNIT_TOL:
        warnings.warn("renormalizing rows with norm error up to %.3g" % worst)
        coords = coords / norms[:, None]
    symmetric = bool(header.get("sym", 0))
    X = PointSet(d=width - 1, coords=coords, symmetric=symmetric)
    if "N" in header and header["N"] != X.N:
        raise ParseError("header N=%d does not match %d points read"
                         % (header["N"], X.N))
    return X


def _slot_jacobian(tables, rows, cols):
    """Derivatives dx_j/dphi_i of points w.r.t. single angles.

    tables are the _sine_prefix tables of the angles of M points.  Row q
    of the returned (S, d+1) array is the partial derivative of point
    rows[q] with respect to its angle cols[q].  Entries are built with
    the elementwise operations of the one-point formula, so every row is
    bit for bit that of param_jacobian_point.
    """
    c, s, prefix = tables
    d = s.shape[1]
    P = prefix[rows]
    si = s[rows, cols]
    ci = c[rows, cols]
    # coordinates k > i depend on phi_i through sin(phi_i), coordinate i
    # through cos(phi_i), the coordinates k < i not at all; the padded
    # column of c is 1.0, so the last coordinate gets no cosine factor
    zero = si == 0.0
    J = (P / np.where(zero, 1.0, si)[:, None]) * ci[:, None] * c[rows]
    k = np.arange(d + 1)
    J[k < cols[:, None]] = 0.0
    slot = np.arange(rows.size)
    J[slot, cols] = -P[slot, cols] * si
    for q in np.flatnonzero(zero):
        j, i = rows[q], cols[q]
        for m in range(i + 1, d + 1):
            J[q, m] = prefix[j, i] * np.prod(s[j, i + 1:m]) * ci[q] * c[j, m]
    return J


def param_jacobian_point(phi):
    """Derivatives dx/dphi_i of one point w.r.t. its angles.

    Returns a (d, d+1) array; row i is the partial derivative of the
    point with respect to phi_i.
    """
    d = len(phi)
    tables = _sine_prefix(np.asarray(phi, dtype=float).reshape(1, d))
    return _slot_jacobian(tables, np.zeros(d, dtype=int), np.arange(d))


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
