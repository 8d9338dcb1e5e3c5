"""Content popularity and edge-cache behaviour.

Popularity follows a Zipf law over a fixed library; content ids are
1-based and assigned in descending popularity, so a smaller id is always
at least as popular (ties at ``beta == 0`` resolve the same way).  One
read-only model per ``(beta, k_total)`` is built and kept, with its
running sum, so every hit probability of a library is one lookup.  Cache
policies are purely functional: each request maps an old cache state to a
new one plus a hit flag.
"""

import functools
from dataclasses import dataclass, field, replace

import numpy as np

FIFO = "fifo"
LRU = "lru"
POPULARITY_PRIORITY = "popularity"
POLICIES = (FIFO, LRU, POPULARITY_PRIORITY)

# models kept by _zipf_model; each holds two float arrays of k_total
# entries, so at most 4 * 2 * 8 B * MAX_K_TOTAL = 64 MB stay alive
_MODEL_CACHE_SIZE = 4


@dataclass(frozen=True)
class PopularityModel:
    """Zipf request distribution over a library of ``k_total`` contents."""

    beta: float
    k_total: int
    q: np.ndarray  # request probabilities, descending, sum to 1
    # running sum of q: cum[psi - 1] is the mass of the psi most popular
    cum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.q.flags.writeable = False
        cum = self.q.cumsum()
        # q is normalised by a pairwise sum and cum sums it in order, so
        # rounding can carry a full library a few ulps past 1: clamped, a
        # hit probability is always one
        np.minimum(cum, 1.0, out=cum)
        cum.flags.writeable = False
        object.__setattr__(self, "cum", cum)


def zipf(beta, k_total):
    """Zipf popularity vector ``q_k = k^-beta / sum_j j^-beta``.

    Parameters
    ----------
    beta : float
        Skewness, >= 0 (0 gives the uniform distribution).
    k_total : int
        Library size, >= 1.

    Equal arguments return the same read-only model.
    """
    if k_total < 1:
        raise ValueError(f"library size must be >= 1, got {k_total}")
    if beta < 0:
        raise ValueError(f"skewness must be >= 0, got {beta}")
    return _zipf_model(float(beta), int(k_total))


@functools.lru_cache(maxsize=_MODEL_CACHE_SIZE)
def _zipf_model(beta, k_total):
    weights = np.arange(1, k_total + 1, dtype=float) ** -beta
    return PopularityModel(beta=beta, k_total=k_total,
                           q=weights / weights.sum())


def hit_probability(model, psi):
    """Probability a request is served from an edge cache of size ``psi``.

    Equals the total popularity mass of the ``psi`` most popular contents,
    summed in popularity order: ``model.cum[psi - 1]``, the entry of the
    running sum the optimiser reads for every cache size at once.  0 for
    an empty cache, 1 up to rounding (never above) when the whole library
    fits.
    ``psi`` may be an int array: each entry of the result is then the
    probability of the scalar call there.
    """
    if isinstance(psi, np.ndarray):
        if not ((0 <= psi) & (psi <= model.k_total)).all():
            raise ValueError(
                f"cache size {psi} outside [0, {model.k_total}]")
        return np.where(psi > 0, model.cum[psi - 1], 0.0)
    if not 0 <= psi <= model.k_total:
        raise ValueError(
            f"cache size {psi} outside [0, {model.k_total}]")
    return float(model.cum[psi - 1]) if psi else 0.0


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
