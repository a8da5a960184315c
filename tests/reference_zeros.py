"""Largest Jacobi zeros and N+ ceilings at 60 digits: the reference
values of the high-precision tests in test_specfun.py and test_bounds.py.

    PYTHONPATH=src python tests/reference_zeros.py          # their constants
    PYTHONPATH=src python tests/reference_zeros.py --sweep  # d = 2..8, t <= 400

bounds.n_plus(d, t) uses gamma, the largest zero of P_t^(d/2, d/2), and
returns the ceiling of 2 / I_x(d/2, 1/2) at x = (1 - gamma)(1 + gamma),
I the regularized incomplete beta function.  Here gamma comes from
Newton steps on the three-term recurrence at mp.dps = 60 (mpmath.jacobi
fails to converge at large degree), started from the package's double
zero moved up by a thousandth of 1 - gamma.  The number of sign changes
in P_0(x), ..., P_t(x) is the number of zeros above x, so a zero is
kept only when there is none above it and one just below: it is then
the largest.  The ratio comes from mpmath.betainc.

The sweep compares jacobi_largest_zero and n_plus with these values at
every d = 2..8 and t = 1..400, and reports the worst zero error in ulp
and the largest N+ error as a share of the documented bound
(alpha+1) 2^-53 / (1-gamma) of the ratio, alpha = (d-2)/2.

Needs mpmath, which the package does not depend on.  pytest does not
collect this file.
"""

import sys

import mpmath
import numpy as np
from mpmath import mp, mpf

from sphdesign.bounds import n_plus
from sphdesign.specfun import jacobi_largest_zero

mp.dps = 60

# the pairs of test_specfun.py::TestLargestZero::test_against_high_precision_zeros
ZERO_PAIRS = [(3, 6), (3, 15), (2, 180), (5, 366), (8, 12), (3, 12),
              (2, 100000), (4, 2), (3, 2)]
# the pairs of test_bounds.py::TestLowerBounds::test_n_plus_against_high_precision
# and ::test_n_plus_within_documented_error
CEILING_PAIRS = [(5, 137), (5, 145), (7, 109), (3, 918), (4, 900),
                 (7, 382), (8, 278), (8, 332), (8, 352)]


def _coefficients(a, n):
    """(A, C) per degree k = 2..n of P_k = A z P_(k-1) - C P_(k-2), the
    three-term recurrence of P^(a,a)."""
    out = []
    for k in range(2, n + 1):
        c = 2 * k + 2 * a
        a1 = 2 * k * (k + 2 * a) * (c - 2)
        out.append(((c - 2) * (c - 1) * c / a1,
                    2 * (k + a - 1) ** 2 * c / a1))
    return out


def _recurrence(a, coeffs, z):
    """P_n(z), P_(n-1)(z) and the sign changes in P_0(z), ..., P_n(z)."""
    prev, cur = mpf(1), (a + 1) * z
    changes = int(cur < 0)
    for A, C in coeffs:
        prev, cur = cur, A * z * cur - C * prev
        changes += (cur < 0) != (prev < 0)
    return cur, prev, changes


def zero(d, t):
    """The largest zero of P_t^(d/2, d/2) at 60 digits."""
    a = mpf(d) / 2
    coeffs = _coefficients(a, t)
    g = mpf(jacobi_largest_zero(d / 2, d / 2, t))
    z = g + (1 - g) / 1000
    for _ in range(100):
        p, q, _ = _recurrence(a, coeffs, z)
        # (2t+2a)(1-z^2) P_t' = -t (2t+2a) z P_t + 2 (t+a)^2 P_(t-1)
        dp = (-t * (2 * t + 2 * a) * z * p + 2 * (t + a) ** 2 * q) / (
            (2 * t + 2 * a) * (1 - z * z))
        step = p / dp
        z -= step
        if abs(step) < mpf(10) ** (5 - mp.dps):
            break
    eps = mpf(10) ** (10 - mp.dps)
    above = _recurrence(a, coeffs, z + eps)[2]
    below = _recurrence(a, coeffs, z - eps)[2]
    if (above, below) != (0, 1):
        raise ArithmeticError("(%d, %d): %d zeros above, %d above the "
                              "point below" % (d, t, above, below))
    return z


def ratio(d, g):
    """area(S^d) / area(cap z >= g) = 2 / I_x(d/2, 1/2), x = 1 - g^2."""
    return 2 / mpmath.betainc(mpf(d) / 2, mpf(1) / 2, 0, (1 - g) * (1 + g),
                              regularized=True)


def ulps(got, ref):
    """The error of the double got against ref, in units of the last place."""
    return float(abs(mpf(got) - ref) / mpf(float(np.spacing(float(ref)))))


def constants():
    """Print the reference literals of the two high-precision tests."""
    print("zeros of P_t^(d/2, d/2):")
    for d, t in ZERO_PAIRS:
        z = zero(d, t)
        print('    (%d, %d, "%s"),  # %.2f ulp' % (
            d, t, mpmath.nstr(z, 25, strip_zeros=False),
            ulps(jacobi_largest_zero(d / 2, d / 2, t), z)))
    print("N+ ceilings:")
    for d, t in CEILING_PAIRS:
        r = ratio(d, zero(d, t))
        print("    (%d, %d, %d),  # %s; n_plus %d" % (
            d, t, int(mpmath.ceil(r)), mpmath.nstr(r, 20), n_plus(d, t)))


def sweep():
    """Print how the package's zeros and N+ compare with the references."""
    worst, share = (-1.0, None), (-1.0, None)
    exact = hits = 0
    for d in range(2, 9):
        alpha = (d - 2) / 2
        for t in range(1, 401):
            z = zero(d, t)
            got = jacobi_largest_zero(d / 2, d / 2, t)
            e = ulps(got, z)
            worst = max(worst, (e, (d, t)))
            exact += got == float(z)
            r = ratio(d, z)
            ceil = int(mpmath.ceil(r))
            n = n_plus(d, t)
            hits += n == ceil
            bound = (alpha + 1) * 2.0 ** -53 / (1 - float(z)) * ceil + 1
            share = max(share, (abs(n - ceil) / bound, (d, t)))
    print("2800 pairs: worst zero %.3f ulp at %s, %d correctly rounded; "
          "n_plus equals the ceiling at %d; largest N+ error %.2f of the "
          "bound at %s" % (worst[0], worst[1], exact, hits, share[0],
                           share[1]))


if __name__ == "__main__":
    sweep() if "--sweep" in sys.argv[1:] else constants()
