"""Two-step minimisation of service effective energy over (psi, lambda_e).

Step 1 turns the delay budget into a per-cache-size critical edge
density.  Cache size fixes the fiber-miss term, and in continuous-hop
mode the cooperative backhaul delay is ``A * (1 + c * lambda_s / lambda)
/ sqrt(lambda)`` (mean neighbour distances scale as ``1/sqrt(lambda)``),
so the tightest density meeting the budget is the one positive root of a
cubic in ``sqrt(lambda)``, solved for every cache size in one vectorised
Newton pass.  Step 2 scores all resulting feasible pairs in one array
evaluation of the areal system energy and takes its minimum.  Interior
densities above the critical one also meet the budget but always cost
more energy, so only critical pairs need scoring.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import latency, multipath
from .energy import system_energy
from .multipath import MULTIPATH, SCHEMES, SINGLE_PATH
from .popularity import zipf

# status of one cache size in _critical_densities (_SKIPPED is 0: the
# status array is built by summing the other two masks)
_SKIPPED, _ROOTED, _CLAMPED = 0, 1, 2
# Newton on the critical-density cubic converges quadratically: once a
# step is below 1e-14 relative the iterate sits at rounding level.
_NEWTON_RTOL = 1e-14
_NEWTON_MAX_STEPS = 100


class NoFeasiblePairError(RuntimeError):
    """No cache size admits a density meeting the delay budget."""

    def __init__(self, budget):
        super().__init__(
            f"no feasible (psi, lambda_e) pair for reduced delay budget "
            f"{budget:.6g} s")
        self.budget = budget


class DensityBracketError(RuntimeError):
    """The critical-density equation has no root in the searched range."""

    def __init__(self, psi, lo, hi):
        super().__init__(
            f"no critical density for psi={psi} within "
            f"[{lo:.6g}, {hi:.6g}] per m^2")
        self.searched = (lo, hi)


@dataclass(frozen=True)
class FeasiblePair:
    """A cache size with the smallest density meeting the delay budget.

    ``residual`` is the absolute budget mismatch at the returned density;
    ``at_lower_bound`` marks pairs where the budget is slack across the
    whole search range and the density was clamped to its lower end.
    """

    psi: int
    lambda_e_crit: float
    residual: float
    at_lower_bound: bool = False


@dataclass(frozen=True)
class OptimizationOutcome:
    """Result of the two-step search, one column entry per feasible size.

    ``psi``, ``lambda_e_crit``, ``residual``, ``at_lower_bound`` and
    ``e_sys`` are equal-length tuples of Python scalars, in increasing
    ``psi``; entry ``i`` is the feasible pair of cache size ``psi[i]``
    (fields as in ``FeasiblePair``) and its areal system energy.  The
    cache sizes in ``psi`` and ``skipped_psi`` cover ``1..k_total`` once.
    """

    psi: tuple
    lambda_e_crit: tuple
    residual: tuple
    at_lower_bound: tuple
    e_sys: tuple
    skipped_psi: tuple
    best_pair: FeasiblePair
    e_sys_min: float


def reduced_delay_budget(s, quad=None):
    """Delay budget left for backhaul + fiber after the fixed stages.

    The uplink, routing-delivery and access delays do not depend on the
    cache size or the edge density, so they are subtracted from the
    end-to-end budget once.  May be <= 0, in which case nothing is
    feasible downstream.
    """
    return (s.d_max
            - latency.uplink_request_delay(s, quad)
            - latency.deli_delay(s, quad)
            - latency.access_delay(s, quad))


def _path_count(s, scheme):
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    return 1 if scheme == SINGLE_PATH else s.b_paths


def _density_bracket(s, b):
    # Farthest cooperative source must stay within r_max; below that
    # density the plan itself is infeasible regardless of delay.
    c_b = math.exp(math.lgamma(b + 0.5) - math.lgamma(b)) / math.sqrt(math.pi)
    lo = max(s.lambda_m, (c_b / s.r_max) ** 2 * (1.0 + 1e-12))
    return lo, s.lambda_s


def _critical_densities(s, fiber_terms, budget, scheme):
    """Critical density, residual and status for each fiber-miss term.

    With ``x = sqrt(lambda)``, ``D(lambda) = T`` for the remaining budget
    ``T = budget - fiber_term`` is the cubic ``T x^3 - A x^2 - K = 0``,
    ``K = A * coeff * lambda_s``, which has one positive root.  Newton
    steps from an upper bound on that root (the cubic is increasing and
    convex to its right) fall monotonically onto it for all entries at
    once.

    Parameters
    ----------
    fiber_terms : numpy.ndarray
        Fiber-miss delay of each cache size.

    Returns
    -------
    (lam, residual, status) : numpy arrays shaped like ``fiber_terms``
        ``status`` is ``_ROOTED`` where ``D(lam) + fiber_term = budget``
        (``residual`` is the absolute mismatch), ``_CLAMPED`` where the
        budget is slack across the whole bracket (``lam`` is its lower
        end, ``residual`` 0) and ``_SKIPPED`` where the bracket is empty
        or its densest end still misses the budget (``lam`` and
        ``residual`` are 0).
    """
    b = _path_count(s, scheme)
    lo, hi = _density_bracket(s, b)
    a = multipath.continuous_backhaul_coeff(s, b)
    coverage = s.relay_coeff * s.lambda_s

    def excess(lam):
        return (a * (1.0 + coverage / lam) / math.sqrt(lam)
                + fiber_terms - budget)

    clamped = (lo < hi) & (excess(lo) <= 0.0)
    rooted = (lo < hi) & ~clamped & (excess(hi) <= 0.0)
    status = _ROOTED * rooted + _CLAMPED * clamped

    t = budget - fiber_terms[rooted]
    k = a * coverage
    x = (a / t + (k / t) ** (1.0 / 3.0)).clip(max=math.sqrt(hi))
    for _ in range(_NEWTON_MAX_STEPS):
        step = (x * x * (t * x - a) - k) / (x * (3.0 * t * x - 2.0 * a))
        x -= step
        if not (abs(step) > _NEWTON_RTOL * x).any():
            break
    lam = lo * clamped
    lam[rooted] = x * x
    residual = 0.0 * lam
    residual[rooted] = abs(a * (1.0 + coverage / lam[rooted]) / x
                           + fiber_terms[rooted] - budget)
    return lam, residual, status


def critical_edc_density(s, psi, budget, scheme=MULTIPATH):
    """Smallest edge density meeting the reduced budget at cache size psi.

    Returns
    -------
    FeasiblePair or None
        ``None`` when the fiber-miss term alone exceeds the budget (no
        density can help).

    Raises
    ------
    DensityBracketError
        If even the densest allowed deployment misses the budget.
    """
    if not 1 <= psi <= s.k_total:
        raise ValueError(f"psi {psi} outside [1, {s.k_total}]")
    model = zipf(s.beta, s.k_total)
    fiber_terms = latency.fiber_delay(s) * (
        1.0 - model.q[:psi].sum(keepdims=True))
    if fiber_terms[0] > budget:
        return None
    lam, residual, status = _critical_densities(s, fiber_terms, budget,
                                                scheme)
    if status[0] == _SKIPPED:
        raise DensityBracketError(
            psi, *_density_bracket(s, _path_count(s, scheme)))
    return FeasiblePair(psi=psi, lambda_e_crit=float(lam[0]),
                        residual=float(residual[0]),
                        at_lower_bound=bool(status[0] == _CLAMPED))


def optimize_cache_density(s, em, scheme=MULTIPATH, quad=None):
    """Minimise areal system energy over feasible (psi, density) pairs.

    Solves every cache size's critical density in one pass (skipping
    sizes whose fiber-miss term already busts the budget or that need a
    denser deployment than allowed), scores the feasible pairs in one
    ``system_energy`` evaluation and returns the energy-minimising pair.
    Ties break towards the smaller cache size.

    Parameters
    ----------
    s : NetworkScenario
    em : EnergyModel
    scheme : str
        ``"multipath"`` or ``"single-path"`` backhaul.

    Raises
    ------
    NoFeasiblePairError
        If no cache size is feasible (carries the reduced budget).
    """
    budget = reduced_delay_budget(s, quad)
    if budget <= 0.0:
        raise NoFeasiblePairError(budget)
    hit_cum = zipf(s.beta, s.k_total).q.cumsum()
    fiber_terms = latency.fiber_delay(s) * (1.0 - hit_cum)
    lam, residual, status = _critical_densities(s, fiber_terms, budget,
                                                scheme)
    feasible = status != _SKIPPED
    if not feasible.any():
        raise NoFeasiblePairError(budget)
    psi = np.flatnonzero(feasible) + 1
    lam, residual = lam[feasible], residual[feasible]
    at_lower_bound = status[feasible] == _CLAMPED
    e_sys = system_energy(s, em, psi, lambda_e=lam).total
    # psi increases along the columns, so the first minimum is the
    # smallest cache size among equal energies
    best = int(e_sys.argmin())
    return OptimizationOutcome(
        psi=tuple(psi.tolist()), lambda_e_crit=tuple(lam.tolist()),
        residual=tuple(residual.tolist()),
        at_lower_bound=tuple(at_lower_bound.tolist()),
        e_sys=tuple(e_sys.tolist()),
        skipped_psi=tuple((np.flatnonzero(~feasible) + 1).tolist()),
        best_pair=FeasiblePair(psi=int(psi[best]),
                               lambda_e_crit=float(lam[best]),
                               residual=float(residual[best]),
                               at_lower_bound=bool(at_lower_bound[best])),
        e_sys_min=float(e_sys[best]))
