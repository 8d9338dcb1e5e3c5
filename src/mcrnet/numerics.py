"""Semi-infinite quadrature shared by the analytical modules.

A contract-checked wrapper around ``scipy.integrate.quad``: the library
integrates only the uplink and access success probabilities, whose
integrands decay like ``exp(-xi)``, so the surface here is small on
purpose.  Every other stage has a closed form.
"""

import math
import warnings
from dataclasses import dataclass

from scipy import integrate


class NumericsError(RuntimeError):
    """Raised when a quadrature routine cannot converge."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and limits for semi-infinite quadrature.

    A quadrature that does not reach ``abs_tol + rel_tol * |value|``
    within ``max_subdivisions`` intervals raises ``NumericsError``.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_QUADRATURE = QuadratureSpec()


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
        If the adaptive rule does not reach the requested tolerance.
    """
    spec = spec or DEFAULT_QUADRATURE
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, abserr, info, *rest = integrate.quad(
            f, lower, math.inf,
            epsabs=spec.abs_tol, epsrel=spec.rel_tol,
            limit=spec.max_subdivisions, full_output=1,
        )
    if rest or abserr > spec.abs_tol + spec.rel_tol * abs(value):
        raise NumericsError(
            f"semi-infinite quadrature did not converge (estimate {value!r}, "
            f"error {abserr!r})")
    return value
