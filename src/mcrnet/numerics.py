"""Semi-infinite quadrature shared by the analytical modules.

A contract-checked wrapper around ``scipy.integrate.quad``: the library
integrates only the uplink and access success probabilities, whose
integrands decay like ``exp(-xi)``, so the surface here is small on
purpose.  Every other stage has a closed form.
"""

import math
import warnings

from scipy import integrate


class NumericsError(RuntimeError):
    """Raised when a quadrature routine cannot converge."""


# a quadrature that does not reach _ABS_TOL + _REL_TOL * |value| within
# _MAX_SUBDIVISIONS intervals raises NumericsError
_REL_TOL = 1e-9
_ABS_TOL = 1e-12
_MAX_SUBDIVISIONS = 2000


def integrate_semi_infinite(f, lower=0.0):
    """Integrate ``f`` over ``[lower, inf)``.

    Parameters
    ----------
    f : callable
        Integrand; must be finite on the domain and eventually decaying.
    lower : float
        Lower limit, >= 0 for the integrals appearing in this library
        (negative values are accepted; the routine does not care).

    Returns
    -------
    float
        The integral estimate.

    Raises
    ------
    NumericsError
        If the adaptive rule does not reach the requested tolerance.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, abserr, info, *rest = integrate.quad(
            f, lower, math.inf,
            epsabs=_ABS_TOL, epsrel=_REL_TOL, limit=_MAX_SUBDIVISIONS,
            full_output=1,
        )
    if rest or abserr > _ABS_TOL + _REL_TOL * abs(value):
        raise NumericsError(
            f"semi-infinite quadrature did not converge (estimate {value!r}, "
            f"error {abserr!r})")
    return value
