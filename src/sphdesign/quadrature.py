"""Equal-weight quadrature and design verification.

A point set is a t-design when its equal-weight rule integrates every
spherical polynomial of degree at most t exactly.  On S^2 this is
checked degree by degree through Weyl sums of an orthonormal harmonic
basis; in higher dimensions through the variational criteria, which
vanish if and only if the design property holds.
"""

from dataclasses import dataclass, fields

import numpy as np

from . import criteria, specfun
from .errors import InvalidParameterError
from .summation import comp_sum

DEFAULT_TOL = 1e-12


def integrate(X, f):
    """Equal-weight rule (1/N) sum_j f(x_j), correctly rounded summation.

    f maps one unit vector (length d+1 array) to a float.
    """
    coords = X.expanded()
    vals = np.array([f(x) for x in coords], dtype=float)
    return comp_sum(vals) / coords.shape[0]


@dataclass
class DesignReport:
    """Verification summary for one point set and claimed degree."""
    t_claimed: int
    max_abs_weyl: float  # max |r_{l,k}|/N over degrees <= t_claimed; d=2 only
    V1: float
    V2: float
    V3: float
    rTr: float  # unscaled residual sum of squares; d=2 only, else nan
    is_design: bool
    exactness_degree: int

    def to_dict(self):
        """Plain dict of every field, in declaration order, for JSON;
        non-finite floats (the d > 2 Weyl fields) become None, since
        strict JSON has no NaN."""
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = _finite_or_none(v) if f.type is float else v
        return out


def _finite_or_none(x):
    return float(x) if np.isfinite(x) else None


def verify_design(X, t_max, tolerance=DEFAULT_TOL):
    """Check the design property up to degree t_max.

    Reports the variational values at t_max for all three criteria and
    the largest degree whose conditions all hold.  For d = 2 the
    decision uses scaled Weyl sums; for d > 2 the three variational
    values per candidate degree.
    """
    if t_max < 1:
        raise InvalidParameterError("t_max must be >= 1")
    # a NaN tolerance fails every comparison and would pass every degree
    if not (np.isfinite(tolerance) and tolerance >= 0.0):
        raise InvalidParameterError(
            "tolerance must be finite and >= 0, got %r" % (tolerance,))
    v = criteria.variational_values(X, t_max)
    if X.d == 2:
        res = criteria.weyl_residual(X, t_max)
        scaled = np.abs(res.r) / X.N
        # rows run by ascending degree: the first failing row ends the
        # exact degrees
        failed = specfun.row_degrees(t_max)[scaled > tolerance]
        exact = int(failed[0]) - 1 if failed.size else t_max
        max_abs = float(np.max(scaled))
        rtr = res.rtr
        is_design = max_abs <= tolerance
    else:
        exact = 0
        for tt in range(1, t_max + 1):
            vs = criteria.variational_values(X, tt)
            if max(abs(val) for val in vs) > tolerance:
                break
            exact = tt
        max_abs = float("nan")
        rtr = float("nan")
        is_design = exact >= t_max
    return DesignReport(t_claimed=t_max, max_abs_weyl=max_abs,
                        V1=v[0], V2=v[1], V3=v[2], rTr=rtr,
                        is_design=is_design, exactness_degree=exact)
