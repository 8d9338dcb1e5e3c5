"""Reference routines that only the tests use.

``find_root_monotone`` is the bracketing oracle for the optimiser's
closed-form critical density, and ``see_referee`` the grid minimum of
the paper's service effective energy that its optimum is held to;
``scipy_proportion_z`` is the mid-p
z-score through ``scipy.special``, and ``binomial_grid`` the binomial
counts on which the tests hold the library's tails and z-score to
scipy's; ``integrate_semi_infinite`` is a
contract-checked QUADPACK quadrature over ``[lower, inf)``, the
reference the library's own Gauss-Kronrod rule does not share;
``nearest_tx_success_exact`` is the 30-digit mpmath value of the uplink
and access success probabilities; ``per_packet_path_delay`` is the scalar
reference for the backhaul delay of one relay chain; ``gamma_fn`` and
``erf_fn`` are contract-checked wrappers over ``math``;
``scenario_hash_payload`` is the text ``scenario_hash`` digests, built
field by field; ``csv_text`` is the command line's CSV written a cell at
a time through ``csv.writer``; ``validate_scenario`` checks a scenario's
constraints one field at a time, each message formatted on failure.
"""

import csv
import io
import math
import warnings

import mpmath
import numpy as np
from scipy import integrate, optimize, special

from mcrnet import latency, multipath, scenario
from mcrnet.energy import system_energy
from mcrnet.multipath import CONTINUOUS
from mcrnet.numerics import NumericsError
from mcrnet.popularity import hit_probability, zipf
from mcrnet.scenario import MAX_GAIN_ORDER, MAX_K_TOTAL, ScenarioError


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


def see_referee(s, em, scheme, n):
    """Least service effective energy over a grid of operating points.

    The grid crosses every cache size ``1..k_total`` (a column) with
    ``n >= 2`` geometrically spaced edge densities from ``lo`` to just
    below ``hi`` of ``multipath.density_bracket(s)`` (a row).  Each point
    takes its delay from ``latency.total_latency``, with the scheme's
    continuous-hop backhaul delay, and its energy from
    ``energy.system_energy``, both broadcast over the grid; the
    optimiser is never called.  A point's service effective energy is
    its system energy where the delay-QoS indicator ``total <= d_max``
    (inclusive) is 1, and inf, not the paper's 0, where it is 0, so the
    minimum excludes it.

    Returns ``(minimum, ratio)``: inf where no point meets the budget
    (every point of an empty bracket), and the largest ratio of
    neighbouring densities.  The delay falls with the density and the
    energy is affine in it with a non-negative intercept, so a cache
    size's cheapest grid point lies within one step above its critical
    density and costs at most ``ratio`` times the energy there: the
    minimum lies in ``[e_sys_min, e_sys_min * ratio]``.
    """
    lo, hi = multipath.density_bracket(s)
    lam = np.geomspace(lo, math.nextafter(hi, 0.0), n)
    ratio = float((lam[1:] / lam[:-1]).max())
    if not lo < hi:
        return math.inf, ratio
    psi = np.arange(1, s.k_total + 1)[:, None]
    d_bh = multipath.multipath_backhaul_delay(
        s, b=multipath.path_count(s, scheme), lambda_e=lam)
    total = latency.total_latency(
        s, hit_probability(zipf(s.beta, s.k_total), psi), d_bh).total
    e = system_energy(s, em, psi, lambda_e=lam).total
    return float(np.where(total <= s.d_max, e, np.inf).min()), ratio


def binomial_grid(cases=3000, seed=31):
    """``(n, p, k)`` cases of a binomial count: ``n`` log-uniform over
    2..1e7, the smaller of ``p`` and ``1 - p`` log-uniform over
    1e-9..1/2, either side equally often, and ``k`` uniform within 8
    standard deviations of the mean, clipped to ``0..n``."""
    rng = np.random.default_rng(seed)
    grid = []
    for _ in range(cases):
        n = round(math.exp(rng.uniform(math.log(2.0), math.log(1e7))))
        q = math.exp(rng.uniform(math.log(1e-9), math.log(0.5)))
        p = 1.0 - q if rng.random() < 0.5 else q
        k = round(n * p + rng.uniform(-8.0, 8.0) * math.sqrt(n * p * (1 - p)))
        grid.append((n, p, min(max(k, 0), n)))
    return grid


def scipy_proportion_z(est, analytic):
    """The mid-p z-score of ``montecarlo.proportion_z`` with its binomial
    tails from ``scipy.special.betainc`` and its inverse normal CDF from
    ``scipy.special.ndtri``, as the library computed it before its tails
    came from ``numerics.binomial_tails``."""
    var = analytic * (1.0 - analytic)
    if var == 0.0:
        return 0.0 if est.mean == analytic else math.inf
    n = est.n_samples
    k = round(est.mean * n)
    below = special.betainc(n - k + 1, k, 1.0 - analytic) if k else 0.0
    at_most = special.betainc(n - k, k + 1, 1.0 - analytic) if k < n else 1.0
    above = special.betainc(k + 1, n - k, analytic) if k < n else 0.0
    at_least = special.betainc(k, n - k + 1, analytic) if k else 1.0
    lower, upper = 0.5 * (below + at_most), 0.5 * (above + at_least)
    tail = min(lower, upper)
    if tail > 0.0:
        z = float(special.ndtri(tail))
        return z if lower <= upper else -z
    return (est.mean - analytic) / math.sqrt(var / n)


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


def nearest_tx_success_exact(order, c, alpha):
    """``int_0^inf exp(-xi) Q(order, c xi^(alpha/2)) dxi`` to 30 digits.

    ``Q`` is the regularised upper incomplete Gamma function: the success
    probability ``Pr[G >= c xi^(alpha/2)]`` of a Gamma(order, 1) gain
    against the threshold at an Exp(1) distance variable ``xi``.  For
    ``c >= 1`` it is integrated over the gain instead, as
    ``E_G[1 - exp(-(G/c)^(2/alpha))]``, whose mass sits near ``G = order``
    at every ``c``; below that over ``xi``, split at the knee
    ``xi* = (order/c)^(2/alpha)`` and where the Gamma tail falls from 1
    to 0 around it.  The tests hold it to ``c`` in [1e-8, 1e8]; far
    beyond (``c`` near e^80 and up) its quadrature loses digits.
    """
    with mpmath.workdps(30):
        m, c = mpmath.mpf(order), mpmath.mpf(c)
        e = 2 / mpmath.mpf(alpha)
        spread = [g for g in (m - 8 * mpmath.sqrt(m), m,
                              m + 8 * mpmath.sqrt(m)) if g > 0]
        if c >= 1:
            def f(g):
                return (mpmath.exp((m - 1) * mpmath.log(g) - g
                                   - mpmath.loggamma(m))
                        * -mpmath.expm1(-(g / c) ** e))
            points = [0] + spread
        else:
            def f(xi):
                return mpmath.exp(-xi) * mpmath.gammainc(
                    m, c * xi ** (1 / e), mpmath.inf, regularized=True)
            points = sorted({mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(100),
                             *((g / c) ** e for g in spread)})
        return float(mpmath.quad(f, points + [mpmath.inf]))


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


def csv_text(header, rows):
    """CSV of the cell lists ``header`` and ``rows``: a float cell as
    ``.17g``, any other as ``str``, each row through ``csv.writer``."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [format(v, ".17g") if isinstance(v, float) else str(v) for v in row]
        for row in [header] + list(rows))
    return buf.getvalue()


def _check(ok, message, *args):
    if not ok:
        raise ScenarioError(f"constraint violated: {message.format(*args)}")


def validate_scenario(s):
    """Raise the ``ScenarioError`` of the first constraint ``s`` breaks,
    checking one field or relation at a time."""
    for name in scenario._FLOAT_FIELDS:
        _check(math.isfinite(getattr(s, name)), "{} finite", name)
    for name in ("lambda_m", "lambda_s", "lambda_u", "lambda_e"):
        _check(getattr(s, name) > 0, "{} > 0", name)
    _check(s.lambda_m < s.lambda_e < s.lambda_s,
           "lambda_m < lambda_e < lambda_s (got {:g}, {:g}, {:g} per m^2)",
           s.lambda_m, s.lambda_e, s.lambda_s)
    _check(s.p_m > s.p_s > s.p_u, "p_m > p_s > p_u (got {:g}, {:g}, {:g} W)",
           s.p_m, s.p_s, s.p_u)
    for name in ("p_m", "p_s", "p_e", "p_u", "theta1", "theta2", "theta3",
                 "theta4", "n0", "w_mmw", "tau_mmw", "r_mmw", "sigma_db",
                 "packet_l", "buffer_omega", "v_fiber", "mu", "chi", "r_max",
                 "relay_coeff", "t_ul_req", "t_dl_deli", "t_dl_as", "d_max"):
        _check(getattr(s, name) > 0, "{} > 0", name)
    _check(math.isfinite(s.relay_coeff * s.lambda_s / s.lambda_m),
           "relay_coeff * lambda_s / lambda_m finite "
           "(got relay_coeff = {:g})", s.relay_coeff)
    _check(s.l_fiber >= 0, "l_fiber >= 0")
    _check(s.mu > s.chi * s.lambda_u,
           "mu > chi * lambda_u (queue stability; arrival rate {:g} 1/s vs "
           "service rate {:g} 1/s)", s.chi * s.lambda_u, s.mu)
    for name in scenario._INT_FIELDS:
        value = getattr(s, name)
        _check(isinstance(value, int) and value >= 1, "{} integer >= 1",
               name)
    for stage, tx, rx in scenario._GAIN_ORDERS:
        order = getattr(s, tx) * getattr(s, rx)
        _check(order <= MAX_GAIN_ORDER,
               "{} * {} <= {} (the {} aggregate gain order; every stage "
               "shares the bound of the delivery series, whose cost is "
               "quadratic in it; got {:g})",
               tx, rx, MAX_GAIN_ORDER, stage, order)
    _check(s.k_total <= MAX_K_TOTAL,
           "k_total <= {} (the popularity model holds one probability per "
           "content; got {:g})", MAX_K_TOTAL, s.k_total)
    disc = s.lambda_e * math.pi * s.r_max * s.r_max
    _check(math.isfinite(disc),
           "lambda_e * pi * r_max^2 finite (got r_max = {:g} m)", s.r_max)
    _check(s.b_paths <= disc,
           "b_paths <= lambda_e * pi * r_max^2 (got {} > {:g})",
           s.b_paths, disc)
    _check(s.alpha1 > 2, "alpha1 > 2")
    _check(s.alpha2 >= 2, "alpha2 >= 2")
    _check(s.beta >= 0, "beta >= 0")
