"""Closed-form per-stage latency of the request/delivery pipeline.

Stages: uplink request (retransmissions plus an M/M/1 queue at the macro
cell), downlink routing-info delivery under interference, the mmWave
access hop, and the round-trip fiber fetch applied to cache misses.  The
cooperative backhaul stage lives in :mod:`mcrnet.multipath`; this module
combines it into the end-to-end total.

All success probabilities average a Gamma-distributed aggregate antenna
gain over the nearest-transmitter distance of a planar Poisson field.
The uplink and access stages have that average in closed form at a
path-loss exponent of 2 (the access stage's default) and integrate it in
the log of the distance variable otherwise, exact at any threshold; the
interference-limited delivery stage has it in closed form, a positive
series over incomplete Beta functions with no quadrature at all.  The
Gamma tails and incomplete Beta functions come from
:mod:`mcrnet.numerics`, in numpy and ``math``, as every special function
of the library does.

The three stage success probabilities do not depend on cache size or edge
density, so each is memoised on the scalar inputs it depends on (gain
order, threshold, path-loss exponent, and for the integrated stages the
density): a sweep over cache size or edge density evaluates each stage
once.  A stage whose normalised threshold overflows a float, or whose
success probability is below ``2**-63`` so that its mean attempt count
outgrows an int64 (the packet simulator's bound on a slot count), raises
``ScenarioError`` naming the stage.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import beta_ladder, gamma_tail, integrate, log_gamma_ratio
from .scenario import ScenarioError


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


# the log-distance range of the nearest-node integral: the floor below
# the knee, and the largest xi for which exp(-xi) is still a float
_LOG_XI_FLOOR = math.log(1e-18)
_LOG_XI_CAP = math.log(745.0)
# gamma_tail(order, exp(_LOG_TAIL_CAP)) is 0 for every gain order the
# scenario accepts, and exp of it is a float
_LOG_TAIL_CAP = 700.0


@functools.lru_cache(maxsize=128)
def _nearest_tx_success(lam, order, threshold_scale, alpha):
    """Success probability of a power-threshold link to the nearest node.

    Averages the Gamma(order, 1) tail at ``threshold_scale * r**alpha``
    over the nearest-node distance of a Poisson field of density ``lam``.
    In the dimensionless ``xi = lam * pi * r**2``, with
    ``C = threshold_scale * (lam * pi)**(-alpha / 2)``, that is::

        P = int_0^inf exp(-xi) Q(order, C xi^(alpha/2)) dxi

    At ``alpha == 2`` it is ``1 - (C / (1 + C))**order`` exactly.
    Otherwise it is integrated in ``s = log xi``, where the integrand
    ``exp(s - e^s) Q(order, C e^(alpha s / 2))`` has its knee at
    ``xi* = (order / C)**(2 / alpha)``, over
    ``[log 1e-18 + min(0, log xi*), log 745]``.  Below the lower cut the
    integral is at most ``e^s_lo``, while ``P >= e^-1 Q(order, order)
    min(1, xi*) >= 0.135 min(1, xi*)``, so the cut is under 1e-17 of
    ``P``; beyond the upper cut it is under ``e^-745``.  ``C``, the knee
    and the tail's argument are computed in logs, so only a ``C`` beyond
    a float raises ``OverflowError``.  Memoised: every argument is a
    scalar.
    """
    if threshold_scale <= 0.0:
        return 1.0
    half_alpha = alpha / 2.0
    log_c = math.log(threshold_scale) - half_alpha * math.log(lam * math.pi)
    # C itself must be a float: beyond one, math.exp raises OverflowError
    c = math.exp(log_c)
    if alpha == 2.0:
        return -math.expm1(-order * math.log1p(1.0 / c)) if c else 1.0
    log_knee = (math.log(order) - log_c) / half_alpha

    def integrand(s):
        return np.exp(s - np.exp(s)) * gamma_tail(
            order, np.exp(np.minimum(log_c + half_alpha * s, _LOG_TAIL_CAP)))

    return min(1.0, integrate(integrand, _LOG_XI_FLOOR + min(0.0, log_knee),
                              _LOG_XI_CAP, 64))


def _stage_success(stage, prob_fn, *args):
    """``prob_fn(*args)``, the success probability of the named stage.

    At extreme thresholds and path-loss exponents its arithmetic
    overflows a float; that is a ``ScenarioError`` naming the stage.
    """
    try:
        return prob_fn(*args)
    except (OverflowError, FloatingPointError):
        raise ScenarioError(
            f"{stage} stage: its success probability overflows a float at "
            f"this threshold and path-loss exponent") from None


# a stage retried until it succeeds needs 1 / rho attempts on average; as
# the packet simulator bounds a slot count, that count must fit an int64
_MIN_SUCCESS = 2.0 ** -63


def _retry_delay(stage, t_attempt, rho):
    """Mean delay ``t_attempt / rho`` of a stage retried until it succeeds."""
    if rho < _MIN_SUCCESS:
        raise ScenarioError(
            f"{stage} stage never succeeds: its success probability "
            f"{rho:.6g} is below 2**-63, so its mean attempt count "
            f"outgrows an int64")
    return t_attempt / rho


def uplink_success_prob(s):
    """Probability an uplink request reaches the macro cell in one attempt.

    Received-power threshold model: no interference, aggregate channel
    gain Gamma(nt_u * nr_m, 1) scaled by 1/nt_u, nearest-MBS association.
    """
    return _stage_success("uplink", _nearest_tx_success, s.lambda_m,
                          s.nt_u * s.nr_m, s.theta1 * s.nt_u / s.p_u,
                          s.alpha1)


def uplink_delay_parts(s):
    """(retransmission delay, queueing delay) of the uplink request stage."""
    arrival = s.chi * s.lambda_u
    if arrival >= s.mu:
        raise LatencyError(
            f"request queue unstable: arrival rate {arrival:g} >= "
            f"service rate {s.mu:g}")
    return (_retry_delay("uplink", s.t_ul_req, uplink_success_prob(s)),
            1.0 / (s.mu - arrival))


def uplink_request_delay(s):
    """Mean uplink request delay: retransmissions plus M/M/1 queueing."""
    tx, queue = uplink_delay_parts(s)
    return tx + queue


def _interference_series(order, theta, alpha):
    """``k_0`` and the weights ``p_1..p_{order-1}`` of the coverage series.

    The interference Laplace coefficients integrate over the normalised
    squared distance ratio ``u`` of an interferer, on ``[1, inf)``::

        k_0 = int 1 - (1 + theta u^(-alpha/2))^(-order) du
        k_q = int (1 + u^(alpha/2) / theta)^(-q)
                  * (1 + theta u^(-alpha/2))^(-order) du,   q >= 1

    With ``w = theta u^(-alpha/2)`` and then ``t = w / (1 + w)`` they are
    incomplete Beta integrals (``s = 2/alpha``, ``x = theta/(1+theta)``,
    ``G`` the Gamma function, ``I_x`` the regularised incomplete Beta)::

        p_q = C(order+q-1, q) k_q
            = s theta^s G(q-s) G(order+s) / (G(q+1) G(order)) I_x(q-s, order+s)
        k_0 = order theta^s G(1-s) G(order+s) / G(order+1) I_x(1-s, order+s)
              - (1 - (1+theta)^(-order))

    where ``k_0`` is integrated by parts first.  Both need the ladder
    ``I_x(q-s, order+s)``, q = 1..order-1, which
    :func:`~mcrnet.numerics.beta_ladder` computes from ``theta`` itself.
    ``theta^s G(1-s) G(order+s) / G(order)`` is taken in logs, so a
    ``k_0`` beyond a float raises ``OverflowError``, and ``G(q-s) / G(q+1)``
    as a running product of its ratios ``(q-s) / (q+1)``; nothing else
    overflows at any order.  The series is the lower-triangular Toeplitz
    form of Li, Zhang, Andrews and Letaief, "A general framework for
    SIR/SINR analysis in MIMO HetNets" (IEEE TWC 2014).
    """
    s = 2.0 / alpha
    ladder = beta_ladder(1.0 - s, order + s, max(order - 1, 1), theta)
    scale = math.exp(s * math.log(theta) + math.log(math.gamma(1.0 - s))
                     + log_gamma_ratio(order, s))
    k0 = scale * ladder[0] + math.expm1(-order * math.log1p(theta))
    q = np.arange(1.0, order - 1.0)
    p = np.cumprod(np.concatenate(([s * scale], (q - s) / (q + 1.0))))
    return k0, p * ladder[:order - 1]


@functools.lru_cache(maxsize=128)
def _deli_success(order, theta2, alpha1):
    """Routing-info success probability for one set of stage inputs.

    Averaged over the serving distance, the coverage series is
    ``sum_{n<order} [z^n] 1 / (d - sum_j p_j z^j)`` with ``d = 1 + k_0``:
    the terms ``c_n`` below.  Every term is positive, so the sum has no
    cancellation.  Memoised like ``_nearest_tx_success``.
    """
    k0, p = _interference_series(order, theta2, alpha1)
    d = 1.0 + k0
    c = np.empty(order)
    c[0] = 1.0 / d
    for n in range(1, order):
        c[n] = p[:n] @ c[n - 1::-1] / d
    return min(1.0, float(c.sum()))


def deli_success_prob(s):
    """Probability the routing info reaches the serving edge cache.

    SINR model: the nearest macro cell serves, every other macro cell
    interferes, each link carrying an independent Gamma(order, 1)
    aggregate gain with order nt_m * nr_e.
    """
    return _stage_success("delivery", _deli_success, s.nt_m * s.nr_e,
                          s.theta2, s.alpha1)


def deli_delay(s):
    """Mean routing-info delivery delay (retransmission scaling)."""
    return _retry_delay("delivery", s.t_dl_deli, deli_success_prob(s))


def access_success_prob(s):
    """Probability the access hop to the user succeeds in one attempt."""
    return _stage_success("access", _nearest_tx_success, s.lambda_s,
                          s.nt_s * s.nr_u, s.theta3 * s.nt_s / s.p_s,
                          s.alpha2)


def access_delay(s):
    """Mean access-hop delay (retransmission scaling)."""
    return _retry_delay("access", s.t_dl_as, access_success_prob(s))


def fiber_delay(s):
    """Round-trip fiber delay to the remote data center."""
    return 2.0 * s.l_fiber / s.v_fiber


def total_latency(s, p_hit, d_bh):
    """End-to-end delay breakdown given hit probability and backhaul delay.

    Parameters
    ----------
    s : NetworkScenario
    p_hit : float or numpy.ndarray
        Probability the content is cached at the edge, in [0, 1]; an
        array holds one probability per operating point.
    d_bh : float or numpy.ndarray
        Cooperative backhaul delay in seconds (>= 0); an array holds one
        delay per operating point, like ``p_hit``.

    Returns
    -------
    DelayBreakdown
        ``d_fiber_term`` is shaped like ``p_hit`` and ``total`` like
        ``p_hit`` and ``d_bh`` together, each entry bitwise equal to the
        scalar call at that point.
    """
    # checked like energy.system_energy's psi: a scalar as is, an array
    # at every entry
    in_range = (0.0 <= p_hit) & (p_hit <= 1.0)
    if not (in_range.all() if isinstance(in_range, np.ndarray)
            else in_range):
        raise ValueError(f"p_hit must be in [0, 1], got {p_hit}")
    negative = d_bh < 0.0
    if (negative.any() if isinstance(negative, np.ndarray) else negative):
        raise ValueError(f"d_bh must be >= 0, got {d_bh}")
    tx, queue = uplink_delay_parts(s)
    deli = deli_delay(s)
    access = access_delay(s)
    fiber_term = fiber_delay(s) * (1.0 - p_hit)
    total = tx + queue + deli + d_bh + access + fiber_term
    return DelayBreakdown(
        d_ul_req_tx=tx, d_ul_req_queue=queue, d_dl_deli=deli, d_dl_bh=d_bh,
        d_dl_as=access, d_fiber_term=fiber_term, total=total)
