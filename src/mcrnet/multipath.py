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
an integer, matching the packet-level simulator.
"""

import math
from dataclasses import dataclass

import numpy as np

from .scenario import ScenarioError, watt_to_dbm

CONTINUOUS = "continuous"
EXACT_CEIL = "exact-ceil"
_MODES = (CONTINUOUS, EXACT_CEIL)

# backhaul scheme names shared by the optimizer, simulator and CLI
MULTIPATH = "multipath"
SINGLE_PATH = "single-path"
SCHEMES = (MULTIPATH, SINGLE_PATH)


class InfeasiblePlanError(RuntimeError):
    """A selected source lies beyond the maximum cooperative distance."""


@dataclass(frozen=True)
class MultipathPlan:
    """Resolved transmission plan for one cooperative transfer."""

    b: int
    r: np.ndarray       # mean source distances, ascending (m)
    shares: np.ndarray  # data fraction per path, sums to 1
    hops: np.ndarray    # per-path hop counts (float in continuous mode)
    p1: float           # per-slot relay selection probability
    p2: float           # per-slot link success probability


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


def relay_selection_prob(lambda_s, lambda_e, coeff=1.28):
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
            - watt_to_dbm(s.n0 * s.w_mmw)
            - 70.0 - 20.0 * math.log10(s.r_mmw))


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


def buffer_packets(s):
    """Packets per buffered transfer window (ceiling of buffer / packet)."""
    return math.ceil(s.buffer_omega / s.packet_l)


def build_plan(s, mode=CONTINUOUS, b=None, lambda_e=None):
    """Assemble the cooperative plan for ``b`` paths (default scenario B).

    Raises
    ------
    InfeasiblePlanError
        If the farthest selected source exceeds ``r_max``.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown hop mode {mode!r}")
    b = s.b_paths if b is None else b
    lam = s.lambda_e if lambda_e is None else lambda_e
    r = np.array([mean_kth_edc_distance(lam, p) for p in range(1, b + 1)])
    if r[-1] > s.r_max:
        raise InfeasiblePlanError(
            f"source {b} at mean distance {r[-1]:.1f} m exceeds "
            f"r_max = {s.r_max:.1f} m")
    inv = 1.0 / r
    shares = inv / inv.sum()
    ratio = r / s.r_mmw
    hops = np.ceil(ratio) if mode == EXACT_CEIL else ratio
    return MultipathPlan(
        b=b, r=r, shares=shares, hops=hops,
        p1=relay_selection_prob(s.lambda_s, lam, s.relay_coeff),
        p2=mmwave_success_prob(s))


def per_packet_path_delay(s, r_p, mode=CONTINUOUS, lambda_e=None):
    """Expected delay of one packet over one relay chain of length r_p.

    In exact-ceil mode the first hop originates at the edge data center
    and uses its transmit power in the link margin; remaining hops use
    the SBS power.  Continuous mode keeps the homogeneous closed form.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown hop mode {mode!r}")
    if r_p <= 0:
        raise ValueError(f"path distance must be positive, got {r_p}")
    lam = s.lambda_e if lambda_e is None else lambda_e
    p1 = relay_selection_prob(s.lambda_s, lam, s.relay_coeff)
    p2_relay = _link_success(s)
    if mode == CONTINUOUS:
        return (r_p / s.r_mmw) * s.tau_mmw / (p1 * p2_relay)
    hops = math.ceil(r_p / s.r_mmw)
    p2_first = _link_success(s, tx_power_w=s.p_e)
    return s.tau_mmw * (1.0 / (p1 * p2_first)
                        + (hops - 1) / (p1 * p2_relay))


def continuous_backhaul_coeff(s, b=None):
    """Coefficient ``A`` of the continuous-mode backhaul delay.

    The closed form

        ceil(buffer/packet) / sum_i (1/r_i)
            * 2 * tau * (1 + coeff * lambda_s / lambda_e)
            / (r_mmw * (1 + erf(f / (sqrt(2) * sigma))))

    depends on the edge density only through the mean source distances,
    which all scale as ``1/sqrt(lambda_e)``: ``sum_i 1/r_i = S_b *
    sqrt(lambda_e)`` with ``S_b = sum_{p<=b} sqrt(pi) Gamma(p) /
    Gamma(p + 1/2)``.  So the delay is
    ``A * (1 + coeff * lambda_s / lambda_e) / sqrt(lambda_e)`` with

        A = 2 * tau * ceil(buffer/packet)
            / (S_b * r_mmw * (1 + erf(f / (sqrt(2) * sigma))))

    for ``b`` paths (default scenario B).
    """
    b = s.b_paths if b is None else b
    s_b = sum(math.sqrt(math.pi)
              * math.exp(math.lgamma(p) - math.lgamma(p + 0.5))
              for p in range(1, b + 1))
    # 1 + erf(f / (sqrt(2) * sigma)) is twice the link success, exactly
    erf_term = 2.0 * _link_success(s)
    return 2.0 * s.tau_mmw * buffer_packets(s) / (s_b * s.r_mmw * erf_term)


def multipath_backhaul_delay(s, mode=CONTINUOUS, b=None, lambda_e=None):
    """Buffer-window backhaul delay of the cooperative transfer.

    Continuous mode evaluates the closed form of
    :func:`continuous_backhaul_coeff`, which equals the per-path maximum
    because inverse-distance shares make every path's total identical.
    Exact-ceil mode takes the explicit maximum over paths with integer hop
    counts.
    """
    plan = build_plan(s, mode, b, lambda_e)
    lam = s.lambda_e if lambda_e is None else lambda_e
    if mode == CONTINUOUS:
        return (continuous_backhaul_coeff(s, plan.b)
                * (1.0 + s.relay_coeff * s.lambda_s / lam) / math.sqrt(lam))
    packets = buffer_packets(s)
    per_path = np.array([
        plan.shares[p] * packets
        * per_packet_path_delay(s, plan.r[p], EXACT_CEIL, lambda_e=lam)
        for p in range(plan.b)])
    return float(per_path.max())


def single_path_backhaul_delay(s, mode=CONTINUOUS, lambda_e=None):
    """Backhaul delay when only the nearest source transmits."""
    return multipath_backhaul_delay(s, mode, b=1, lambda_e=lambda_e)


def max_cooperative_paths(lambda_e, r_max):
    """Largest path count supported by the density within ``r_max``."""
    return max(1, math.floor(lambda_e * math.pi * r_max ** 2))


def delay_bounds(s):
    """Closed-form envelopes on the cooperative backhaul delay.

    Valid when the density ordering macro < edge < small-cell holds and
    ``1 < b_paths <= lambda_e * pi * r_max**2``.

    Returns
    -------
    (float, float)
        Strict lower and upper bound in seconds.
    """
    if not s.lambda_m < s.lambda_e < s.lambda_s:
        raise ValueError("bounds need lambda_m < lambda_e < lambda_s")
    if not 1 < s.b_paths <= s.lambda_e * math.pi * s.r_max ** 2:
        raise ValueError(
            "bounds need 1 < b_paths <= lambda_e * pi * r_max^2 "
            f"(got b_paths={s.b_paths})")
    packets = buffer_packets(s)
    # 1 + erf(f / (sqrt(2) * sigma)), as in continuous_backhaul_coeff
    erf_term = 2.0 * _link_success(s)
    denom_common = s.r_mmw * erf_term
    lower = ((1.0 + s.relay_coeff) * packets * s.tau_mmw
             / (math.pi * s.r_max ** 2 * s.lambda_s ** 1.5 * denom_common))
    upper = (packets * s.tau_mmw
             * (1.0 + s.relay_coeff * s.lambda_s / s.lambda_m)
             / (math.sqrt(s.lambda_m) * denom_common))
    return lower, upper
