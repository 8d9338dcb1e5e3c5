"""Content popularity and edge-cache behaviour.

Popularity follows a Zipf law over a fixed library; content ids are
1-based and assigned in descending popularity, so a smaller id is always
at least as popular (ties at ``beta == 0`` resolve the same way).  Cache
policies are purely functional: each request maps an old cache state to a
new one plus a hit flag.
"""

from dataclasses import dataclass, replace

import numpy as np

FIFO = "fifo"
LRU = "lru"
POPULARITY_PRIORITY = "popularity"
POLICIES = (FIFO, LRU, POPULARITY_PRIORITY)


@dataclass(frozen=True)
class PopularityModel:
    """Zipf request distribution over a library of ``k_total`` contents."""

    beta: float
    k_total: int
    q: np.ndarray  # request probabilities, descending, sum to 1

    def __post_init__(self):
        self.q.flags.writeable = False


def zipf(beta, k_total):
    """Zipf popularity vector ``q_k = k^-beta / sum_j j^-beta``.

    Parameters
    ----------
    beta : float
        Skewness, >= 0 (0 gives the uniform distribution).
    k_total : int
        Library size, >= 1.
    """
    if k_total < 1:
        raise ValueError(f"library size must be >= 1, got {k_total}")
    if beta < 0:
        raise ValueError(f"skewness must be >= 0, got {beta}")
    ranks = np.arange(1, k_total + 1, dtype=float)
    weights = ranks ** (-float(beta))
    return PopularityModel(beta=float(beta), k_total=int(k_total),
                           q=weights / weights.sum())


def hit_probability(model, psi):
    """Probability a request is served from an edge cache of size ``psi``.

    Equals the total popularity mass of the ``psi`` most popular contents,
    summed in popularity order: the same bits as
    ``model.q.cumsum()[psi - 1]``, the running sum the optimiser takes for
    every cache size at once.  0 for an empty cache, 1 up to rounding
    when the whole library fits.
    """
    if not 0 <= psi <= model.k_total:
        raise ValueError(
            f"cache size {psi} outside [0, {model.k_total}]")
    return float(model.q[:psi].cumsum()[-1]) if psi else 0.0


@dataclass(frozen=True)
class CacheState:
    """One cache's contents under a given replacement policy.

    ``stored`` is ordered: insertion order for FIFO, least- to
    most-recently-used for LRU, and ascending id (descending popularity)
    for the popularity-priority policy.
    """

    psi: int
    policy: str
    stored: tuple = ()

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.psi < 0:
            raise ValueError("capacity must be >= 0")
        if len(self.stored) > self.psi:
            raise ValueError("stored contents exceed capacity")
        if len(set(self.stored)) != len(self.stored):
            raise ValueError("stored ids must be unique")


def cache_step(state, request):
    """Apply one request; returns ``(new_state, hit)``.

    FIFO evicts the oldest insertion; LRU refreshes recency on a hit and
    evicts the least recently used on a full miss; popularity-priority
    keeps the most popular contents seen so far, replacing its least
    popular entry when a more popular content misses.
    """
    if not isinstance(request, int) or request < 1:
        raise ValueError(f"invalid content id {request!r}")
    stored = state.stored
    hit = request in stored
    if state.psi == 0:
        return state, False

    if state.policy == FIFO:
        if hit:
            return state, True
        new = stored + (request,)
        if len(new) > state.psi:
            new = new[1:]
        return replace(state, stored=new), False

    if state.policy == LRU:
        if hit:
            new = tuple(c for c in stored if c != request) + (request,)
            return replace(state, stored=new), True
        new = stored + (request,)
        if len(new) > state.psi:
            new = new[1:]
        return replace(state, stored=new), False

    # popularity priority: lower id == more popular
    if hit:
        return state, True
    if len(stored) < state.psi:
        new = tuple(sorted(stored + (request,)))
        return replace(state, stored=new), False
    least_popular = stored[-1]
    if request < least_popular:
        new = tuple(sorted(stored[:-1] + (request,)))
        return replace(state, stored=new), False
    return state, False


def run_requests(state, requests):
    """Fold a request sequence through ``cache_step``; returns hits array."""
    hits = np.empty(len(requests), dtype=bool)
    for i, req in enumerate(requests):
        state, hits[i] = cache_step(state, int(req))
    return state, hits
