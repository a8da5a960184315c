"""Lower bounds and degrees-of-freedom point counts for t-designs.

Four integers matter per degree: the linear-programming lower bound
N*, its refinement N+ through the largest Jacobi zero, and the counts
N-hat (general) and N-bar (symmetric) at which the number of free
angles reaches the number of design conditions.  N*, N-hat and N-bar
are exact integers; N+ is a closed form in the incomplete beta
function of a double-precision zero.
"""

from dataclasses import dataclass
from math import comb, ceil

from scipy.special import betainc

from . import specfun
from .errors import InvalidDimensionError, InvalidParameterError

_CEIL_SLACK = 1e-9


def _iceil(x):
    """Ceiling robust to values a hair above an integer."""
    return int(ceil(x - _CEIL_SLACK))


def n_star(d, t):
    """Linear-programming lower bound on the size of a t-design on S^d."""
    if d < 1:
        raise InvalidDimensionError("d must be >= 1")
    if t < 0:
        raise InvalidParameterError("t must be >= 0")
    k = t // 2
    if t % 2:
        return 2 * comb(d + k, d)
    return comb(d + k, d) + comb(d + k - 1, d)


def n_plus(d, t):
    """Refined lower bound area(S^d) / area(cap) = 2 / I_x(alpha+1, 1/2).

    gamma is the largest zero of the degree-t Jacobi polynomial with
    both parameters alpha + 1, alpha = (d-2)/2; the cap z >= gamma under
    the weight (1-z^2)^alpha is, by s = 1-z^2, a half-sphere times the
    regularized incomplete beta function I at x = (1-gamma)(1+gamma).
    Validated against all tabulated values for d = 2 and d = 3.  The
    double-precision gamma limits it to a relative error of about
    (alpha+1) 2^-53 / (1-gamma): hundreds of units at d = 8 (at t = 352
    about 340; the result is 171 below the exact 173613992050775), and
    below half a unit under ratios of about 2e10, where it moves only
    the ceiling of an exact ratio that close above an integer
    (5433178343.026 at d = 4, t = 915 gives 5433178343).
    """
    if d < 1:
        raise InvalidDimensionError("d must be >= 1")
    if t < 1:
        raise InvalidParameterError("t must be >= 1")
    if d == 1:
        # P_t^(1/2,1/2) is a multiple of the Chebyshev polynomial U_t,
        # whose largest zero is cos(pi/(t+1)): the cap is an arc of
        # length pi/(t+1), a (t+1)-th of the circle.  The ratio from a
        # computed zero, pi/arccos(gamma), loses digits as gamma nears 1
        return t + 1
    alpha = 0.5 * (d - 2.0)
    gamma = specfun.jacobi_largest_zero(alpha + 1.0, alpha + 1.0, t)
    x = (1.0 - gamma) * (1.0 + gamma)
    return _iceil(2.0 / betainc(alpha + 1.0, 0.5, x))


def n_hat(d, t):
    """Point count equating free angles with design conditions."""
    if d < 1:
        raise InvalidDimensionError("d must be >= 1")
    if t < 1:
        raise InvalidParameterError("t must be >= 1")
    return -(-(specfun.dim_poly(d, t) + d * (d + 1) // 2 - 1) // d)


def n_bar(d, t):
    """Symmetric analogue of n_hat; defined for odd t (an antipodal set
    integrates every odd-degree polynomial for free)."""
    if d < 1:
        raise InvalidDimensionError("d must be >= 1")
    if t < 1 or t % 2 == 0:
        raise InvalidParameterError("symmetric counts need odd t >= 1")
    return 2 * -(-(m_sym(d, t) + d * (d + 1) // 2) // d)


# degrees on S^2 where a design with one point fewer than n_hat is
# known to exist, and the point counts of known small symmetric designs
# (antipodal pair, octahedron, icosahedron, and three larger sets)
_S2_IMPROVED = frozenset({3, 5, 7, 9, 11, 13, 15})
_S2_SYM_KNOWN = {1: 2, 3: 6, 5: 12, 7: 32, 11: 70, 15: 120}


def n_default(d, t, symmetric=False):
    """Recommended point count for design generation.

    Mostly n_hat (or n_bar for symmetric sets), except on S^2 for some
    small degrees where configurations with fewer points are known.
    """
    if symmetric:
        if d == 2 and t in _S2_SYM_KNOWN:
            return _S2_SYM_KNOWN[t]
        return n_bar(d, t)
    if d == 2 and t in _S2_IMPROVED:
        return n_hat(d, t) - 1
    return n_hat(d, t)


def m_sym(d, t):
    """Number of even-degree conditions for a symmetric set."""
    return comb(t + d - 1, d) - 1


@dataclass(frozen=True)
class BoundsRow:
    d: int
    t: int
    n_star: int
    n_plus: int
    n_hat: int
    n_bar: int  # -1 for even t, where the symmetric count is undefined
    dim_poly: int


def bounds_row(d, t):
    """All bound values for one degree."""
    nb = n_bar(d, t) if t % 2 else -1
    return BoundsRow(d=d, t=t, n_star=n_star(d, t), n_plus=n_plus(d, t),
                     n_hat=n_hat(d, t), n_bar=nb, dim_poly=specfun.dim_poly(d, t))
