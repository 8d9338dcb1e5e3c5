"""Reference routines that only the tests use.

``find_root_monotone`` is the bracketing oracle for the optimiser's
closed-form critical density; ``gamma_fn`` and ``erf_fn`` are
contract-checked wrappers over ``math``.
"""

import math

from scipy import optimize

from mcrnet.numerics import NumericsError


def gamma_fn(x):
    """Gamma function for positive real arguments.

    For positive integers ``p`` this equals ``(p - 1)!``.
    """
    if x <= 0:
        raise ValueError(f"gamma_fn requires a positive argument, got {x}")
    return math.gamma(x)


def erf_fn(x):
    """Error function; odd, with range (-1, 1)."""
    return math.erf(x)


def find_root_monotone(g, lo, hi, tol=1e-12):
    """Root of a monotone scalar function on a bracketing interval.

    Parameters
    ----------
    g : callable
        Monotone on ``[lo, hi]`` with a sign change across the bracket.
    lo, hi : float
        Bracket endpoints, ``lo < hi``.
    tol : float
        Absolute tolerance on the root location.

    Returns
    -------
    float
        ``x`` with ``|g(x)| <= tol`` or bracket width at most ``tol``.

    Raises
    ------
    NumericsError
        If ``g(lo)`` and ``g(hi)`` do not bracket a sign change.
    """
    if not lo < hi:
        raise ValueError(f"invalid bracket [{lo}, {hi}]")
    g_lo = g(lo)
    g_hi = g(hi)
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if math.copysign(1.0, g_lo) == math.copysign(1.0, g_hi):
        raise NumericsError(
            f"no sign change on [{lo}, {hi}]: g(lo)={g_lo!r}, g(hi)={g_hi!r}")
    return optimize.brentq(g, lo, hi, xtol=tol)
