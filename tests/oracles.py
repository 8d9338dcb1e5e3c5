"""Reference routines that only the tests use.

``find_root_monotone`` is the bracketing oracle for the optimiser's
closed-form critical density; ``per_packet_path_delay`` is the scalar
reference for the backhaul delay of one relay chain; ``gamma_fn`` and
``erf_fn`` are contract-checked wrappers over ``math``;
``scenario_hash_payload`` is the text ``scenario_hash`` digests, built
field by field.
"""

import math

from scipy import optimize

from mcrnet import multipath, scenario
from mcrnet.multipath import CONTINUOUS
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


def per_packet_path_delay(s, r_p, mode=CONTINUOUS, lambda_e=None):
    """Expected delay of one packet over one relay chain of length r_p.

    Each hop repeats slots until relay selection and the link both
    succeed.  Continuous mode counts ``r_p / r_mmw`` hops, all at the SBS
    power.  Exact-ceil mode counts ``ceil(r_p / r_mmw)`` hops, the first
    of which leaves the edge data center at its own transmit power.
    """
    lam = s.lambda_e if lambda_e is None else lambda_e
    p1 = multipath.relay_selection_prob(s.lambda_s, lam, s.relay_coeff)
    p2_relay = multipath.mmwave_success_prob(s)
    if mode == CONTINUOUS:
        return (r_p / s.r_mmw) * s.tau_mmw / (p1 * p2_relay)
    hops = math.ceil(r_p / s.r_mmw)
    p2_first = multipath.mmwave_success_prob(s, tx_power_w=s.p_e)
    return s.tau_mmw * (1.0 / (p1 * p2_first)
                        + (hops - 1) / (p1 * p2_relay))


def scenario_hash_payload(s):
    """``name=value`` over the scenario's sorted SI fields, each value
    formatted on its own as ``.17g``, joined by commas."""
    return ",".join(f"{name}={getattr(s, name):.17g}"
                    for name in scenario._FIELD_NAMES)
