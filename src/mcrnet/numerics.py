"""Special functions and numerical routines shared by the analytical modules.

Thin, contract-checked wrappers around ``math`` and ``scipy``: the rest of
the library only ever integrates decaying integrands on semi-infinite
domains and solves monotone scalar equations, so the surface here is small
on purpose.
"""

import math
import warnings
from dataclasses import dataclass

from scipy import integrate, optimize


class NumericsError(RuntimeError):
    """Raised when a quadrature or root-finding routine cannot converge."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and limits for semi-infinite quadrature.

    ``truncation`` selects the fallback used when the transformed adaptive
    rule fails to converge: ``"adaptive"`` truncates the domain where the
    integrand has decayed below ``abs_tol`` times its peak (and raises if
    the dropped tail exceeds the tolerance), ``"off"`` raises immediately.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000
    truncation: str = "adaptive"

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if self.truncation not in ("adaptive", "off"):
            raise ValueError("truncation must be 'adaptive' or 'off'")


DEFAULT_QUADRATURE = QuadratureSpec()


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


def integrate_semi_infinite(f, lower=0.0, spec=None):
    """Integrate ``f`` over ``[lower, inf)``.

    Parameters
    ----------
    f : callable
        Integrand; must be finite on the domain and eventually decaying.
    lower : float
        Lower limit, >= 0 for the integrals appearing in this library
        (negative values are accepted; the routine does not care).
    spec : QuadratureSpec, optional
        Tolerances; defaults to ``DEFAULT_QUADRATURE``.

    Returns
    -------
    float
        The integral estimate.

    Raises
    ------
    NumericsError
        If the adaptive rule and the truncation fallback both fail to
        reach the requested tolerance, including when the fallback's
        neglected tail, estimated as ``upper * |f(upper)|``, exceeds it.
    """
    spec = spec or DEFAULT_QUADRATURE
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, abserr, info, *rest = integrate.quad(
            f, lower, math.inf,
            epsabs=spec.abs_tol, epsrel=spec.rel_tol,
            limit=spec.max_subdivisions, full_output=1,
        )
    if not rest and _quad_ok(value, abserr, spec):
        return value
    if spec.truncation == "off":
        raise NumericsError(
            f"semi-infinite quadrature did not converge (estimate {value!r}, "
            f"error {abserr!r})")
    return _truncated_integral(f, lower, spec)


def _quad_ok(value, abserr, spec):
    return abserr <= spec.abs_tol + spec.rel_tol * abs(value)


def _truncated_integral(f, lower, spec):
    # Scan geometrically for the integrand peak, then for the point where
    # it has decayed below abs_tol * peak, and integrate the finite piece.
    width = max(abs(lower), 1.0)
    peak = 0.0
    upper = None
    for _ in range(200):
        x = lower + width
        fx = abs(f(x))
        peak = max(peak, fx)
        if peak > 0.0 and fx < spec.abs_tol * peak:
            upper = x
            break
        width *= 2.0
    if upper is None:
        raise NumericsError("integrand does not appear to decay; cannot truncate")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, abserr = integrate.quad(
            f, lower, upper,
            epsabs=spec.abs_tol, epsrel=spec.rel_tol,
            limit=spec.max_subdivisions,
        )
    if not _quad_ok(value, abserr, spec):
        raise NumericsError(
            f"quadrature failed on truncated domain [{lower}, {upper}]")
    # upper * |f(upper)| is the order of the neglected tail when f decays
    # like a power of x; for slow decay it dwarfs the kept integral
    tail = upper * abs(f(upper))
    if not _quad_ok(value, tail, spec):
        raise NumericsError(
            f"neglected tail beyond {upper:g} (about {tail:.3g}) exceeds "
            f"the tolerance on the truncated integral {value:.6g}")
    return value


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
