"""Cooperative multi-path backhaul over mmWave relay chains.

The content cached at the ``b_paths`` nearest edge data centers is pushed
to the destination small cell simultaneously, each source carrying a data
share inversely proportional to its mean distance.  Every hop of a relay
chain repeats a slot until both relay selection and the shadowing-limited
link succeed, so a chain of n hops costs ``n * tau / (p1 * p2)`` per
packet in expectation; inverse-distance shares equalise the per-path
totals, which is what makes the closed form below exact in continuous-hop
mode.

Hop-count modes: ``"continuous"`` treats the hop count as the real ratio
distance / hop range (the closed form); ``"exact-ceil"`` rounds it up to
an integer and sends each path its whole packets, matching the
packet-level simulator.  Only the integer-hop model builds a
:class:`MultipathPlan`, which carries its per-slot success
probabilities.

This module alone knows the continuous delay as a function of density:
the curve, its closed-form inverse, the densities a plan allows and each
scheme's path count.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .scenario import ScenarioError, min_edge_density, watt_to_dbm

CONTINUOUS = "continuous"
EXACT_CEIL = "exact-ceil"

# backhaul scheme names shared by the optimizer, simulator and CLI
MULTIPATH = "multipath"
SINGLE_PATH = "single-path"
SCHEMES = (MULTIPATH, SINGLE_PATH)


class InfeasiblePlanError(RuntimeError):
    """A selected source lies beyond the maximum cooperative distance."""


@dataclass(frozen=True)
class MultipathPlan:
    """Integer-hop transmission plan for one cooperative transfer."""

    b: int
    r: np.ndarray       # mean source distances, ascending (m)
    shares: np.ndarray  # data fraction per path, sums to 1
    hops: np.ndarray    # per-path hop counts, ceil(r / r_mmw)
    p_first: float      # per-slot success of the hop leaving the edge node
    p_relay: float      # per-slot success of a relay hop


def mean_kth_edc_distance(lambda_e, p):
    """Mean distance to the p-th nearest edge data center.

    Closed form for a planar Poisson field: the double factorial of odd
    numbers up to 2p-1 over ``Gamma(p) * 2**p * sqrt(lambda_e)``, computed
    here through log-gamma to stay finite for large p.
    """
    if p < 1:
        raise ValueError(f"neighbour index must be >= 1, got {p}")
    return math.exp(math.lgamma(p + 0.5) - math.lgamma(p)) / math.sqrt(
        math.pi * lambda_e)


def relay_selection_prob(lambda_s, lambda_e, coeff):
    """Per-slot probability a relay SBS is granted to the transfer.

    ``1 + coeff * lambda_s / lambda_e`` small cells compete inside one
    edge data center's coverage; selection picks uniformly among them.
    """
    return 1.0 / (1.0 + coeff * lambda_s / lambda_e)


def mmwave_link_margin(s, tx_power_w=None):
    """Link margin f in dB of a single mmWave hop at maximum range.

    Transmit power minus receiver threshold, noise-floor power and the
    line-of-sight loss ``70 + 20 log10(r_mmw)``.  ``tx_power_w`` defaults
    to the SBS power; pass ``s.p_e`` for a hop originating at an edge
    data center.
    """
    tx = s.p_s if tx_power_w is None else tx_power_w
    return (watt_to_dbm(tx) - watt_to_dbm(s.theta4)
            - watt_to_dbm(s.n0 * s.w_mmw) - 70.0 - 20.0 * math.log10(s.r_mmw))


def mmwave_success_prob(s, tx_power_w=None):
    """Per-slot mmWave link success under log-normal shadowing."""
    f = mmwave_link_margin(s, tx_power_w)
    return 0.5 * (1.0 + math.erf(f / (math.sqrt(2.0) * s.sigma_db)))


def _link_success(s, tx_power_w=None):
    """``mmwave_success_prob`` for a backhaul delay, which divides by it.

    A hop that never succeeds leaves the delay unbounded: that is a
    ``ScenarioError`` naming the stage.
    """
    p2 = mmwave_success_prob(s, tx_power_w)
    if p2 == 0.0:
        raise ScenarioError(
            f"backhaul stage never succeeds: the mmWave link margin "
            f"{mmwave_link_margin(s, tx_power_w):.6g} dB leaves a success "
            f"probability of 0")
    return p2


def path_count(s, scheme):
    """Cooperating sources of a backhaul scheme: ``b_paths`` or 1."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    return 1 if scheme == SINGLE_PATH else s.b_paths


def _min_plan_density(s, b):
    # farthest mean distance c_b / sqrt(lambda_e) <= r_max, solved for lambda_e
    return (mean_kth_edc_distance(1.0, b) / s.r_max) ** 2


def density_bracket(s):
    """Edge densities ``(lo, hi)`` open to a deployment: ``lo`` is
    :func:`min_edge_density`, ``hi`` is ``lambda_s``; empty when ``lo >=
    hi``.  Every plan of ``b <= b_paths`` paths reaches ``lo``: Gautschi's
    inequality ``Gamma(b + 1/2) / Gamma(b) < sqrt(b)`` puts
    :func:`_min_plan_density` below ``b / (pi r_max^2)``."""
    return min_edge_density(s), s.lambda_s


def buffer_packets(s):
    """Packets per buffered transfer window (ceiling of buffer / packet)."""
    return math.ceil(s.buffer_omega / s.packet_l)


def split_packets(shares, total, model):
    """Whole packets per path: ``total`` apportioned by ``shares`` with
    the largest remainders (Hamilton's method), an int array summing to
    ``total``.

    Raises
    ------
    ValueError
        When a path's share is more packets than an int64 count holds;
        the message names ``model``, the model that sends the packets.
    """
    raw = shares * total
    # 2**63 is the first count an int64 cannot hold
    if not raw.max() < 2.0 ** 63:
        raise ValueError(
            f"backhaul stage can never complete in {model}: a buffer "
            f"of {total:.6g} packets needs more packets on a path than an "
            f"int64 count holds")
    base = np.floor(raw).astype(int)
    short = total - int(base.sum())
    if short:
        order = np.argsort(-(raw - base), kind="stable")
        base[order[:short]] += 1
    return base


def _plan_paths(s, b, lambda_e):
    """``(b, lambda_e)`` with scenario defaults, once the reach is checked
    (at every density of an array ``lambda_e``).

    Raises
    ------
    InfeasiblePlanError
        If the farthest selected source exceeds ``r_max`` (at the
        sparsest density of an array).
    """
    b = s.b_paths if b is None else b
    lam = s.lambda_e if lambda_e is None else lambda_e
    short = lam < _min_plan_density(s, b)
    if short.any() if isinstance(short, np.ndarray) else short:
        raise InfeasiblePlanError(
            f"source {b} at mean distance "
            f"{mean_kth_edc_distance(np.min(lam), b):.1f} m exceeds "
            f"r_max = {s.r_max:.1f} m")
    return b, lam


def build_plan(s, b=None, lambda_e=None):
    """Assemble the integer-hop cooperative plan for ``b`` paths (default
    scenario B).

    A hop that can never succeed is a ``ScenarioError``; a source beyond
    ``r_max`` is an :class:`InfeasiblePlanError`.
    """
    b, lam = _plan_paths(s, b, lambda_e)
    r = np.array([mean_kth_edc_distance(lam, p) for p in range(1, b + 1)])
    inv = 1.0 / r
    p1 = relay_selection_prob(s.lambda_s, lam, s.relay_coeff)
    return MultipathPlan(
        b=b, r=r, shares=inv / inv.sum(), hops=np.ceil(r / s.r_mmw),
        p_first=p1 * _link_success(s, tx_power_w=s.p_e),
        p_relay=p1 * _link_success(s))


def continuous_backhaul_coeff(s, b=None):
    """Coefficient ``A`` of :func:`continuous_backhaul_delay` for ``b``
    paths (default scenario B).

    The closed form ``ceil(buffer/packet) / sum_i (1/r_i) * 2 * tau * (1
    + coeff * lambda_s / lambda_e) / (r_mmw * (1 + erf(f / (sqrt(2) *
    sigma))))`` depends on the density only through the mean source
    distances: ``sum_i 1/r_i = S_b * sqrt(lambda_e)`` with ``S_b =
    sum_{p<=b} sqrt(pi) Gamma(p) / Gamma(p + 1/2)``, so ``A = 2 * tau *
    ceil(buffer/packet) / (S_b * r_mmw * (1 + erf(...)))``.
    """
    b = s.b_paths if b is None else b
    # 1 + erf(f / (sqrt(2) * sigma)) is twice the link success, exactly
    erf_term = 2.0 * _link_success(s)
    return 2.0 * s.tau_mmw * buffer_packets(s) / (
        _path_sum(b) * s.r_mmw * erf_term)


# a density sweep's rows ask for b_paths, 1 and up to 16 capped counts
@functools.lru_cache(maxsize=32)
def _path_sum(b):
    # S_b as a sum of its terms: the Gamma-ratio closed form
    # 2 sqrt(pi) Gamma(b + 1) / Gamma(b + 1/2) - 2 loses about 6.5e-13
    # relative at b = 1000, the sum about 9e-16
    return sum(math.sqrt(math.pi)
               * math.exp(math.lgamma(p) - math.lgamma(p + 0.5))
               for p in range(1, b + 1))


def continuous_backhaul_delay(s, lambda_e, b=None):
    """``A * (1 + coeff * lambda_s / lambda_e) / sqrt(lambda_e)``, the
    continuous-mode delay of ``b`` paths, at a scalar or array density; a
    delay that overflows is inf without a warning."""
    coeff = continuous_backhaul_coeff(s, b)
    with np.errstate(over="ignore"):
        return coeff * (1.0 + s.relay_coeff * s.lambda_s / lambda_e) / np.sqrt(
            lambda_e)


def continuous_backhaul_density(s, delay, b=None):
    """Density at which :func:`continuous_backhaul_delay` equals ``delay``.

    In ``x = sqrt(lambda_e / lambda_s)``: ``x^3 - a x^2 - k = 0``, ``a = A
    / (delay sqrt(lambda_s))``, ``k = a coeff``, whose local maximum ``-k``
    at 0 is negative.  Cardano's one real root ``x = a/3 + c + a^2/(9c)``,
    ``c = cbrt(a^3/27 + k/2 + sqrt(k^2/4 + a^3 k/27))``, has only positive
    terms; a delay met below ``lambda_s`` keeps ``a, k < 1`` (no overflow)."""
    a = continuous_backhaul_coeff(s, b) / (delay * math.sqrt(s.lambda_s))
    k = a * s.relay_coeff
    a3 = a * a * a / 27.0
    c = np.cbrt(a3 + 0.5 * k + np.sqrt(0.25 * k * k + a3 * k))
    x = a / 3.0 + c + a * a / (9.0 * c)
    return s.lambda_s * x * x


def multipath_backhaul_delay(s, mode=CONTINUOUS, b=None, lambda_e=None):
    """Buffer-window backhaul delay of the cooperative transfer.

    Continuous mode evaluates :func:`continuous_backhaul_delay`, which
    equals the per-path maximum because inverse-distance shares make every
    path's total identical; an array ``lambda_e`` gives an array, each
    entry bitwise equal to the scalar call at that density.  Exact-ceil
    mode takes the explicit maximum over the paths of :func:`build_plan`
    of ``n_i * tau * (1 / p_first + (h_i - 1) / p_relay)``, whose first
    hop leaves the edge node at its own transmit power, with the whole
    packet counts ``n_i`` of :func:`split_packets` that the packet
    simulator sends (so a path count above an int64 is a ``ValueError``
    that names the integer-hop model).
    """
    if mode == CONTINUOUS:
        b, lam = _plan_paths(s, b, lambda_e)
        delay = continuous_backhaul_delay(s, lam, b)
        return delay if isinstance(lam, np.ndarray) else float(delay)
    if mode != EXACT_CEIL:
        raise ValueError(f"unknown hop mode {mode!r}")
    plan = build_plan(s, b, lambda_e)
    packets = split_packets(plan.shares, buffer_packets(s),
                            "the integer-hop model")
    per_path = packets * (
        s.tau_mmw * (1.0 / plan.p_first + (plan.hops - 1) / plan.p_relay))
    return float(per_path.max())


def max_cooperative_paths(lambda_e, r_max):
    """Largest path count supported by the density within ``r_max``."""
    # as scenario._validate multiplies: r_max ** 2 raises on overflow
    return max(1, math.floor(lambda_e * math.pi * r_max * r_max))


def delay_bounds(s):
    """Closed-form envelopes on the cooperative backhaul delay.

    Valid when ``1 < b_paths``; the scenario guarantees the density
    ordering and ``b_paths <= lambda_e * pi * r_max**2``.

    Returns
    -------
    (float, float)
        Strict lower and upper bound in seconds.
    """
    if s.b_paths == 1:
        raise ValueError(
            "bounds need 1 < b_paths <= lambda_e * pi * r_max^2 "
            f"(got b_paths={s.b_paths})")
    # r_mmw * (1 + erf(f / (sqrt(2) * sigma))), as in continuous_backhaul_coeff
    denom = s.r_mmw * (2.0 * _link_success(s))
    lower = ((1.0 + s.relay_coeff) * buffer_packets(s) * s.tau_mmw
             / (math.pi * (s.r_max * s.r_max) * s.lambda_s ** 1.5 * denom))
    # one path at the macro density: the sparsest, slowest deployment
    return lower, float(continuous_backhaul_delay(s, s.lambda_m, 1))
