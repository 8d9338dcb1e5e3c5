"""Two-step minimisation of service effective energy over (psi, lambda_e).

Step 1 turns the delay budget into a per-cache-size critical edge
density: the cache size fixes the fiber-miss term, and the density whose
continuous backhaul delay fills the rest of the budget comes from the
closed-form inverse in ``multipath``: one array call for many sizes
(every size for ``optimize_cache_density``, a psi sweep's grid for the
command line), or one scalar call for a lone size, through the same
code.  Step 2 scores the feasible pairs of an array call
in one array evaluation of the areal system energy; the optimiser takes
its minimum.  Denser deployments also meet the budget but always cost
more energy, so only critical pairs need scoring.
"""

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


def _fiber_terms(s, psi):
    # fiber-miss delay of cache size psi (an int or an int array, each
    # entry on its own): the fiber delay of the requests its cache misses,
    # the full delay at psi 0
    return latency.fiber_delay(s) * (
        1.0 - hit_probability(zipf(s.beta, s.k_total), psi))


def _critical_densities(s, scheme, fiber_terms, budget):
    """Critical density, residual and status for each fiber-miss term.

    The scheme's continuous backhaul delay falls with the density, so
    its values at both ends of ``multipath.density_bracket(s)`` sort
    ``fiber_terms`` (a float or a numpy array, each entry on its own):
    ``_CLAMPED`` where the budget is slack at the sparse end (``lam`` is
    that end, ``residual`` 0), ``_SKIPPED`` where the bracket is empty or
    its dense end still misses (both 0), and otherwise ``_ROOTED``, at
    the closed-form density whose delay is ``budget - fiber_term``
    (``residual`` is the absolute mismatch).  Returns ``(lam, residual,
    status)``, each shaped like ``fiber_terms``, so a lone size reads the
    bits of its entry in an array call.
    """
    b = multipath.path_count(s, scheme)
    lo, hi = multipath.density_bracket(s)
    d_lo = multipath.continuous_backhaul_delay(s, lo, b)
    d_hi = multipath.continuous_backhaul_delay(s, hi, b)
    status = (lo < hi) * np.where(
        d_lo + fiber_terms - budget <= 0.0, _CLAMPED,
        np.where(d_hi + fiber_terms - budget <= 0.0, _ROOTED, _SKIPPED))
    rooted = status == _ROOTED
    # every other entry solves for the dense end's delay instead, a valid
    # input whose root is then dropped; the clip keeps a rounded root
    # inside the bracket, a valid scenario
    root = multipath.continuous_backhaul_density(
        s, np.where(rooted, budget - fiber_terms, d_hi), b).clip(
            lo, math.nextafter(hi, 0.0))
    lam = np.where(rooted, root, np.where(status == _CLAMPED, lo, 0.0))
    residual = np.where(rooted, abs(
        multipath.continuous_backhaul_delay(s, root, b) + fiber_terms
        - budget), 0.0)
    return lam, residual, status


def _critical_energies(s, em, psi, budget, scheme):
    """Step 1 for the cache sizes in the int array ``psi``, scored.

    Returns ``(lam, residual, status, e_sys)``, each shaped like ``psi``:
    :func:`_critical_densities` of each size's fiber-miss term, and the
    areal system energy at its critical density (NaN where ``_SKIPPED``).
    Every entry has the bits of a lone solve of its size, so a subset of
    ``1..k_total`` reads what ``optimize_cache_density`` reads there.
    """
    lam, residual, status = _critical_densities(s, scheme,
                                                _fiber_terms(s, psi), budget)
    feasible = status != _SKIPPED
    e_sys = np.full(psi.shape, np.nan)
    e_sys[feasible] = system_energy(s, em, psi[feasible],
                                    lambda_e=lam[feasible]).total
    return lam, residual, status, e_sys


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
    lam, residual, status = _critical_densities(
        s, scheme, _fiber_terms(s, psi), budget)
    if status == _SKIPPED:
        return None
    return FeasiblePair(psi=psi, lambda_e_crit=float(lam),
                        residual=float(residual),
                        at_lower_bound=bool(status == _CLAMPED))


def optimize_cache_density(s, em, scheme=MULTIPATH):
    """Minimise areal system energy over feasible (psi, density) pairs.

    Solves every cache size's critical density and scores the feasible
    pairs in one :func:`_critical_energies` pass (skipping sizes whose
    fiber-miss term already busts the budget or that need a denser
    deployment than allowed) and returns the energy-minimising pair.
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
    psi = np.arange(1, s.k_total + 1)
    lam, residual, status, e_sys = _critical_energies(s, em, psi, budget,
                                                      scheme)
    feasible = status != _SKIPPED
    if not feasible.any():
        raise NoFeasiblePairError(budget)
    psi, lam, residual, e_sys = (psi[feasible], lam[feasible],
                                 residual[feasible], e_sys[feasible])
    at_lower_bound = status[feasible] == _CLAMPED
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
