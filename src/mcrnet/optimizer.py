"""Two-step minimisation of service effective energy over (psi, lambda_e).

Step 1 turns the delay budget into a per-cache-size critical edge
density: the cache size fixes the fiber-miss term, and the density whose
continuous backhaul delay fills the rest of the budget comes from the
closed-form inverse in ``multipath``: one array call for every size, or
one scalar call for a lone size, through the same code.  A lone solve is
memoised on the scalars it reads (the curve, the fiber-miss term and the
budget), so the rows of a sweep that moves none of them solve once.
Step 2 scores all feasible pairs in one array evaluation of the areal
system energy and takes its minimum.  Denser deployments also meet the
budget but always cost more energy, so only critical pairs need scoring.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import latency, multipath
from .energy import system_energy
from .multipath import MULTIPATH
from .popularity import hit_probability, zipf

# status of one cache size in _critical_densities (_SKIPPED is 0: an
# empty bracket zeroes the status by multiplication)
_SKIPPED, _ROOTED, _CLAMPED = 0, 1, 2
# lone solves _critical_density keeps: one per scheme and scenario a
# command reuses, far fewer than a cache-size grid has
_SOLVE_CACHE_SIZE = 8


class NoFeasiblePairError(RuntimeError):
    """No cache size admits a density meeting the delay budget."""

    def __init__(self, budget):
        super().__init__(
            f"no feasible (psi, lambda_e) pair for reduced delay budget "
            f"{budget:.6g} s")
        self.budget = budget


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


def reduced_delay_budget(s):
    """Delay budget left for backhaul + fiber after the fixed stages.

    The uplink, routing-delivery and access delays do not depend on the
    cache size or the edge density, so they are subtracted from the
    end-to-end budget once.  May be <= 0, in which case nothing is
    feasible downstream.
    """
    return (s.d_max
            - latency.uplink_request_delay(s)
            - latency.deli_delay(s)
            - latency.access_delay(s))


def _fiber_terms(s):
    # fiber-miss delay of every cache size; the running sum gives each the
    # bits of popularity.hit_probability, so sweep targets agree with it
    return latency.fiber_delay(s) * (1.0 - zipf(s.beta, s.k_total).cum)


def _critical_densities(curve, fiber_terms, budget):
    """Critical density, residual and status for each fiber-miss term.

    ``curve`` is ``multipath._curve(s, scheme)``.  The continuous backhaul
    delay falls with the density, so its values at both ends of the
    bracket sort ``fiber_terms`` (a float or a numpy array, each entry on
    its own): ``_CLAMPED`` where the budget is slack at the sparse end
    (``lam`` is that end, ``residual`` 0), ``_SKIPPED`` where the bracket
    is empty or its dense end still misses (both 0), and otherwise
    ``_ROOTED``, at the closed-form density whose delay is ``budget -
    fiber_term`` (``residual`` is the absolute mismatch).  Returns ``(lam,
    residual, status)``, each shaped like ``fiber_terms``.
    """
    lo, hi, *shape = curve
    d_lo = multipath._curve_delay(*shape, lo)
    d_hi = multipath._curve_delay(*shape, hi)
    status = (lo < hi) * np.where(
        d_lo + fiber_terms - budget <= 0.0, _CLAMPED,
        np.where(d_hi + fiber_terms - budget <= 0.0, _ROOTED, _SKIPPED))
    rooted = status == _ROOTED
    # every other entry solves for the dense end's delay instead, a valid
    # input whose root is then dropped; the clip keeps a rounded root
    # inside the bracket, a valid scenario
    root = multipath._curve_density(
        *shape, np.where(rooted, budget - fiber_terms, d_hi)).clip(
            lo, math.nextafter(hi, 0.0))
    lam = np.where(rooted, root, np.where(status == _CLAMPED, lo, 0.0))
    residual = np.where(rooted, abs(
        multipath._curve_delay(*shape, root) + fiber_terms - budget), 0.0)
    return lam, residual, status


@functools.lru_cache(maxsize=_SOLVE_CACHE_SIZE)
def _critical_density(curve, fiber_term, budget):
    # one cache size's _critical_densities as Python scalars, keyed on
    # every input it reads: a density sweep's rows share the curve, the
    # fiber-miss term and the budget, and two cache sizes may share a
    # fiber-miss term, so the pair is built by the caller
    lam, residual, status = _critical_densities(curve, fiber_term, budget)
    return float(lam), float(residual), int(status)


def critical_edc_density(s, psi, budget, scheme=MULTIPATH):
    """Smallest edge density meeting the reduced budget at cache size psi.

    Returns
    -------
    FeasiblePair or None
        ``None`` exactly when ``optimize_cache_density`` skips ``psi``:
        even the densest deployment of ``multipath.density_bracket``
        misses the budget (always so when the fiber-miss term alone, or
        the fixed stages, exceed it).
    """
    if not 1 <= psi <= s.k_total:
        raise ValueError(f"psi {psi} outside [1, {s.k_total}]")
    curve = multipath._curve(s, scheme)
    fiber_term = latency.fiber_delay(s) * (
        1.0 - hit_probability(zipf(s.beta, s.k_total), psi))
    lam, residual, status = _critical_density(curve, fiber_term, budget)
    if status == _SKIPPED:
        return None
    return FeasiblePair(psi=psi, lambda_e_crit=lam, residual=residual,
                        at_lower_bound=status == _CLAMPED)


def optimize_cache_density(s, em, scheme=MULTIPATH):
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
    budget = reduced_delay_budget(s)
    if budget <= 0.0:
        raise NoFeasiblePairError(budget)
    lam, residual, status = _critical_densities(
        multipath._curve(s, scheme), _fiber_terms(s), budget)
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
