"""Lower bounds and degrees-of-freedom point counts for t-designs.

Four integers matter per degree: the linear-programming lower bound
N*, its refinement N+ through the largest Jacobi zero, and the counts
N-hat (general) and N-bar (symmetric) at which the number of free
angles reaches the number of design conditions.
"""

from dataclasses import dataclass
from math import comb, ceil, pi, lgamma, exp, log

from scipy.integrate import quad

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
    """Refined lower bound via the largest zero of a Jacobi polynomial.

    gamma is the largest zero of the degree-t polynomial with both
    parameters alpha + 1, alpha = (d-2)/2; validated against all
    tabulated values for d = 2 and d = 3.  The ratio of surface areas
    becomes an incomplete-beta style integral over [gamma, 1].
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
    if d == 2:
        return _iceil(2.0 / (1.0 - gamma))
    # sqrt(pi) * Gamma(d/2) / Gamma((d+1)/2)
    total = exp(0.5 * log(pi) + lgamma(0.5 * d) - lgamma(0.5 * (d + 1.0)))
    cap, _ = quad(lambda z: (1.0 - z * z) ** alpha, gamma, 1.0,
                  epsabs=1e-13, epsrel=1e-13)
    return _iceil(total / cap)


def n_hat(d, t):
    """Point count equating free angles with design conditions."""
    if d < 1:
        raise InvalidDimensionError("d must be >= 1")
    if t < 1:
        raise InvalidParameterError("t must be >= 1")
    return _iceil((specfun.dim_poly(d, t) + d * (d + 1) // 2 - 1) / d)


def n_bar(d, t):
    """Symmetric analogue of n_hat; defined for odd t (an antipodal set
    integrates every odd-degree polynomial for free)."""
    if d < 1:
        raise InvalidDimensionError("d must be >= 1")
    if t < 1 or t % 2 == 0:
        raise InvalidParameterError("symmetric counts need odd t >= 1")
    return 2 * _iceil((m_sym(d, t) + d * (d + 1) // 2) / d)


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


def efficiency(d, t, N):
    """E = D(d, t)/(d N); close to 1 for the designs built here."""
    if N < 1:
        raise InvalidParameterError("N must be >= 1")
    return specfun.dim_poly(d, t) / (d * N)


@dataclass(frozen=True)
class BoundsRow:
    d: int
    t: int
    n_star: int
    n_plus: int
    n_hat: int
    n_bar: int  # -1 for even t, where the symmetric count is undefined
    dim_poly: int

    def efficiency(self, N):
        return efficiency(self.d, self.t, N)


def bounds_row(d, t):
    """All bound values for one degree."""
    nb = n_bar(d, t) if t % 2 else -1
    return BoundsRow(d=d, t=t, n_star=n_star(d, t), n_plus=n_plus(d, t),
                     n_hat=n_hat(d, t), n_bar=nb, dim_poly=specfun.dim_poly(d, t))
