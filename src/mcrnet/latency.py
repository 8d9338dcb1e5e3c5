"""Closed-form per-stage latency of the request/delivery pipeline.

Stages: uplink request (retransmissions plus an M/M/1 queue at the macro
cell), downlink routing-info delivery under interference, the mmWave
access hop, and the round-trip fiber fetch applied to cache misses.  The
cooperative backhaul stage lives in :mod:`mcrnet.multipath`; this module
combines it into the end-to-end total.

All success probabilities average a Gamma-distributed aggregate antenna
gain over the nearest-transmitter distance of a planar Poisson field; the
interference-limited delivery stage additionally needs a small triangular
matrix series for aggregate gains of order above one.

The three stage success probabilities do not depend on cache size or edge
density, so each is memoised on the scalar inputs it depends on (gain
order, threshold, path-loss exponent, density, quadrature spec): a sweep
over cache size or edge density integrates each stage once.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .numerics import (DEFAULT_QUADRATURE, NumericsError,
                       integrate_semi_infinite)


class LatencyError(RuntimeError):
    """A delay component could not be evaluated."""


@dataclass(frozen=True)
class DelayBreakdown:
    """Per-stage delays in seconds; ``total`` is their sum."""

    d_ul_req_tx: float
    d_ul_req_queue: float
    d_dl_deli: float
    d_dl_bh: float
    d_dl_as: float
    d_fiber_term: float
    total: float


@dataclass(frozen=True)
class SinrRecursionState:
    """Ingredients of the interference coverage series at one distance.

    ``order`` is the aggregate-gain shape (transmit times receive antenna
    count); ``k`` holds the order+1 interference coefficients, ``y`` the
    binomially weighted source vector, ``g`` the strictly lower triangular
    propagation matrix and ``x`` the assembled series terms.
    """

    order: int
    k: np.ndarray
    y: np.ndarray
    g: np.ndarray
    x: np.ndarray

    def correction_sum(self):
        """Sum of the first ``order - 1`` series terms (0 for order 1)."""
        return float(self.x[: self.order - 1].sum())


def _gamma_tail(order, x):
    """Upper tail of a Gamma(order, 1) variable at ``x`` (vectorised)."""
    return special.gammaincc(order, x)


@functools.lru_cache(maxsize=128)
def _nearest_tx_success(lam, order, threshold_scale, alpha, quad):
    """Success probability of a power-threshold link to the nearest node.

    Averages the Gamma(order, 1) tail at ``threshold_scale * r**alpha``
    over the nearest-node distance of a Poisson field of density ``lam``;
    the integration variable is the dimensionless ``lam * pi * r**2``.
    Memoised: every argument is a scalar or a frozen ``QuadratureSpec``.
    """
    if threshold_scale <= 0.0:
        return 1.0
    half_alpha = alpha / 2.0
    area_scale = lam * math.pi

    def integrand(xi):
        return math.exp(-xi) * _gamma_tail(
            order, threshold_scale * (xi / area_scale) ** half_alpha)

    return min(1.0, integrate_semi_infinite(integrand, 0.0, quad))


def uplink_success_prob(s, quad=None):
    """Probability an uplink request reaches the macro cell in one attempt.

    Received-power threshold model: no interference, aggregate channel
    gain Gamma(nt_u * nr_m, 1) scaled by 1/nt_u, nearest-MBS association.
    """
    quad = quad or DEFAULT_QUADRATURE
    order = s.nt_u * s.nr_m
    return _nearest_tx_success(
        s.lambda_m, order, s.theta1 * s.nt_u / s.p_u, s.alpha1, quad)


def uplink_delay_parts(s, quad=None):
    """(retransmission delay, queueing delay) of the uplink request stage."""
    arrival = s.chi * s.lambda_u
    if arrival >= s.mu:
        raise LatencyError(
            f"request queue unstable: arrival rate {arrival:g} >= "
            f"service rate {s.mu:g}")
    rho = uplink_success_prob(s, quad)
    return s.t_ul_req / rho, 1.0 / (s.mu - arrival)


def uplink_request_delay(s, quad=None):
    """Mean uplink request delay: retransmissions plus M/M/1 queueing."""
    tx, queue = uplink_delay_parts(s, quad)
    return tx + queue


def _interference_coefficients(order, theta, alpha, quad):
    """Coefficients k_0..k_order of the interference Laplace expansion.

    k_0 scales the exponent of the Laplace functional itself; k_q for
    q >= 1 scales its q-th derivative.  All are integrals over the
    normalised squared distance ratio of interferers.
    """
    half_alpha = alpha / 2.0
    k = np.empty(order + 1)

    # integrated over u = v * theta**(2/alpha) on [1, inf), so the
    # integrands start at O(1) and need no prefactor whatever theta is
    def base(u):
        # stable form of 1 - (1 + theta u^-a/2)^-order for tiny arguments
        return -math.expm1(-order * math.log1p(theta * u ** -half_alpha))

    try:
        k[0] = integrate_semi_infinite(base, 1.0, quad)
        for q in range(1, order + 1):
            def deriv(u, q=q):
                return ((1.0 + u ** half_alpha / theta) ** (-q)
                        * (1.0 + theta * u ** -half_alpha) ** (-order))
            k[q] = integrate_semi_infinite(deriv, 1.0, quad)
    except NumericsError as err:
        # near alpha = 2 the integrands fall off like u**(-alpha/2)
        raise NumericsError(
            f"interference coefficients for order {order}, threshold "
            f"{theta:g}, path-loss exponent {alpha:g}: {err}") from err
    return k


def _series_weights(order, k):
    """Source vector ``y`` and triangular matrix ``g`` from coefficients."""
    y = np.zeros(order)
    for j in range(1, order + 1):
        y[j - 1] = math.comb(order + j - 1, j) * k[j]
    g = np.zeros((order, order))
    for i in range(2, order + 1):
        for j in range(1, i):
            d = i - j
            g[i - 1, j - 1] = (d / i) * math.comb(order + d - 1, d) * k[d]
    return y, g


def sinr_recursion(order, theta2, alpha1, lambda_m, r, quad=None):
    """Assemble the coverage series state at serving distance ``r``.

    Parameters
    ----------
    order : int
        Aggregate gain shape, >= 1.
    theta2 : float
        SINR threshold (linear ratio).
    alpha1 : float
        Path-loss exponent, > 2.
    lambda_m : float
        Interferer density per m^2.
    r : float
        Serving-node distance in metres.

    Returns
    -------
    SinrRecursionState
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    quad = quad or DEFAULT_QUADRATURE
    k = _interference_coefficients(order, theta2, alpha1, quad)
    y, g = _series_weights(order, k)
    xi = lambda_m * math.pi * r * r
    x0 = math.exp(-k[0] * xi)
    x = np.zeros(order)
    term = y.copy()
    for t in range(1, order + 1):
        x += xi ** t * x0 * term
        term = g @ term
    return SinrRecursionState(order=order, k=k, y=y, g=g, x=x)


def _correction_poly(order, k):
    """Coefficients a_1..a_{order-1} of the coverage correction polynomial.

    The conditional coverage at normalised distance xi factors as
    ``exp(-(k_0) * xi) * (1 + sum_t a_t xi^t)``.
    """
    y, g = _series_weights(order, k)
    a = np.zeros(order)  # a[0] unused
    term = y
    for t in range(1, order):
        a[t] = term[: order - 1].sum()
        term = g @ term
    return a


@functools.lru_cache(maxsize=128)
def _deli_success(order, theta2, alpha1, quad):
    """Routing-info success probability for one set of stage inputs.

    Memoised like ``_nearest_tx_success``; the coefficient array ``k``
    lives only inside the call and is never cached.
    """
    k = _interference_coefficients(order, theta2, alpha1, quad)
    a = _correction_poly(order, k)
    decay = 1.0 + k[0]
    # k_0 integrates a positive function, so the integrand below decays;
    # decay <= 0 means the coefficient quadrature returned a wrong value
    if not decay > 0.0:
        raise NumericsError(
            f"interference coefficient k_0 = {k[0]:.6g} < -1 for order "
            f"{order}, threshold {theta2:g}, path-loss exponent {alpha1:g}")

    def integrand(xi):
        corr = 0.0
        p = 1.0
        for t in range(1, order):
            p *= xi
            corr += a[t] * p
        return math.exp(-decay * xi) * (1.0 + corr)

    rho = integrate_semi_infinite(integrand, 0.0, quad)
    return min(1.0, rho)


def deli_success_prob(s, quad=None):
    """Probability the routing info reaches the serving edge cache.

    SINR model: the nearest macro cell serves, every other macro cell
    interferes, each link carrying an independent Gamma(order, 1)
    aggregate gain with order nt_m * nr_e.
    """
    quad = quad or DEFAULT_QUADRATURE
    return _deli_success(s.nt_m * s.nr_e, s.theta2, s.alpha1, quad)


def deli_delay(s, quad=None):
    """Mean routing-info delivery delay (retransmission scaling)."""
    return s.t_dl_deli / deli_success_prob(s, quad)


def access_success_prob(s, quad=None):
    """Probability the access hop to the user succeeds in one attempt."""
    quad = quad or DEFAULT_QUADRATURE
    order = s.nt_s * s.nr_u
    return _nearest_tx_success(
        s.lambda_s, order, s.theta3 * s.nt_s / s.p_s, s.alpha2, quad)


def access_delay(s, quad=None):
    """Mean access-hop delay (retransmission scaling)."""
    return s.t_dl_as / access_success_prob(s, quad)


def fiber_delay(s):
    """Round-trip fiber delay to the remote data center."""
    return 2.0 * s.l_fiber / s.v_fiber


def total_latency(s, p_hit, d_bh, quad=None):
    """End-to-end delay breakdown given hit probability and backhaul delay.

    Parameters
    ----------
    s : NetworkScenario
    p_hit : float
        Probability the content is cached at the edge, in [0, 1].
    d_bh : float
        Cooperative backhaul delay in seconds (>= 0).

    Returns
    -------
    DelayBreakdown
    """
    if not 0.0 <= p_hit <= 1.0:
        raise ValueError(f"p_hit must be in [0, 1], got {p_hit}")
    if d_bh < 0.0:
        raise ValueError(f"d_bh must be >= 0, got {d_bh}")
    tx, queue = uplink_delay_parts(s, quad)
    deli = deli_delay(s, quad)
    access = access_delay(s, quad)
    fiber_term = fiber_delay(s) * (1.0 - p_hit)
    total = tx + queue + deli + d_bh + access + fiber_term
    return DelayBreakdown(
        d_ul_req_tx=tx, d_ul_req_queue=queue, d_dl_deli=deli, d_dl_bh=d_bh,
        d_dl_as=access, d_fiber_term=fiber_term, total=total)
