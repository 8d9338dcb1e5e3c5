"""Stochastic oracles for every closed form in the analytical modules.

Each estimator samples the underlying random model directly (Poisson
fields, Gamma aggregate gains, log-normal shadowing, slotted retries) and
reports a mean with its standard error, so the library's analytical
results can be checked to within sampling noise.

The distance-based oracles use the ordered construction of a planar
Poisson field of density ``lam`` (mapping theorem): the values
``pi * lam * r**2`` over its points in distance order form a unit-rate
Poisson process on the line.  So the k-th nearest squared distance is
``Gamma(k, 1) / (pi * lam)``, the nearest is ``Exp(1) / (pi * lam)``,
and the ordered squared distances are cumulative sums of Exp(1) draws
over ``pi * lam``; no trial samples a point count or a disc.  The
delivery oracle samples its 16 nearest macro cells this way and draws
the interference beyond them as one Gamma variable with that shot
noise's exact mean and variance.

The packet-level backhaul simulator is the oracle for the integer-hop
(``EXACT_CEIL``) backhaul delay.  It takes its paths and their per-slot
success probabilities from ``multipath.build_plan``, each source at its
mean distance, and samples only the slotted retries along them.

Randomness comes from SFC64 streams keyed by ``(seed, stream path)``:
each oracle draws from its own stream family, and every chunk of trials
(and every simulator path) owns an independent substream within it.
The chunks run on a process-wide thread pool, one worker per available
CPU (numpy's draws and array operations release the interpreter lock),
and their results are combined in chunk order, so every estimate is
bit-reproducible and does not depend on the worker count or on the order
the chunks finish in.
"""

import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import multipath
from .multipath import MULTIPATH
from .scenario import ScenarioError

_CHUNK = 50_000
# macro cells sampled per delivery trial; interference beyond the last
# is a moment-matched Gamma draw, which biases the estimate far less
# than its standard error at 1e6 trials
_DELI_POINTS = 16
# delivery trials per chunk, not derived from _DELI_POINTS: 1e5 trials
# make four full chunks and a short one, which keep two workers busy to
# the end; chunks of 5e6 draws (312,500 trials at 16 cells) would hold
# them all in one and leave the other worker idle
_DELI_CHUNK = 24_752
# delivery trials per row block: a block of distances and one of gains
# (64 KiB each) stay in cache and are reused across a chunk
_DELI_BLOCK = 512
# CPUs this process may run on
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_POOL_LOCK = threading.Lock()
# numpy's negative_binomial(n, p) refuses (1 - p) / p * (n + 10 sqrt(n)),
# the reach of the Poisson mean it draws through, above this bound
_SLOTS_MAX = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo mean with its standard error."""

    mean: float
    std_error: float
    n_samples: int

    def z_score(self, reference):
        """Standardised deviation of the estimate from ``reference``."""
        if self.std_error == 0.0:
            return 0.0 if self.mean == reference else math.inf
        return (self.mean - reference) / self.std_error


def substream(seed, *path):
    """Independent SFC64 generator for ``(seed, path)``."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.SFC64(ss))


def _pool():
    """The process-wide worker pool, created on first use."""
    with _POOL_LOCK:
        return _pool_of(os.getpid())


@functools.cache
def _pool_of(pid):
    # keyed by process: a forked child has none of its parent's workers.
    # The local import keeps concurrent.futures, and the logging it
    # imports, off the package's own import path.
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(max_workers=_WORKERS,
                              thread_name_prefix="mcrnet-montecarlo")


def _pool_map(fn, tasks):
    """``[fn(*args) for args in tasks]``, spread over the worker pool.

    Each task draws from its own substream and writes nothing another
    task reads, so the results equal the serial ones, in task order.
    """
    if _WORKERS == 1 or len(tasks) < 2:
        return [fn(*args) for args in tasks]
    return list(_pool().map(lambda args: fn(*args), tasks))


def _map_chunks(fn, trials, chunk):
    """``fn(chunk_idx, m)`` over the ``chunk``-sized pieces of ``trials``."""
    return _pool_map(fn, [(chunk_idx, min(chunk, trials - start))
                          for chunk_idx, start
                          in enumerate(range(0, trials, chunk))])


def _proportion_estimate(successes, trials):
    p = successes / trials
    se = math.sqrt(p * (1.0 - p) / trials)
    return McEstimate(mean=p, std_error=se, n_samples=trials)


def proportion_z(est, analytic):
    """z-score of a sampled proportion against an analytic probability.

    Uses the binomial standard error under the analytic value, which
    stays meaningful when the sample happens to contain no failures (or
    no successes) and the empirical standard error degenerates to zero.
    """
    var = analytic * (1.0 - analytic)
    if var == 0.0:
        return 0.0 if est.mean == analytic else math.inf
    return (est.mean - analytic) / math.sqrt(var / est.n_samples)


def kth_nearest_distances(lambda_e, k, trials, seed=0):
    """Sampled distances to the k-th nearest point of a Poisson field.

    ``pi * lambda_e * r_k**2`` is the k-th arrival of a unit-rate Poisson
    process on the line, so it is drawn directly as Gamma(k, 1).
    """
    if k < 1 or lambda_e <= 0:
        raise ValueError("need k >= 1 and lambda_e > 0")
    out = np.empty(trials)

    def draw(chunk_idx, m):
        start = chunk_idx * _CHUNK
        substream(seed, 0, chunk_idx).standard_gamma(
            k, out=out[start:start + m])

    _map_chunks(draw, trials, _CHUNK)
    return np.sqrt(out / (math.pi * lambda_e))


def estimate_kth_nearest(lambda_e, k, trials, seed=0):
    """Mean distance to the k-th nearest edge node, sampled."""
    dist = kth_nearest_distances(lambda_e, k, trials, seed)
    se = float(dist.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return McEstimate(mean=float(dist.mean()), std_error=se,
                      n_samples=trials)


def _nearest_threshold_successes(lam, order, threshold_scale, alpha,
                                 trials, seed, family):
    """Trials where a Gamma(order, 1) gain beats a distance-based threshold.

    The nearest squared distance is Exp(1) / (pi * lam), so the threshold
    ``threshold_scale * r**alpha`` is taken from it without a square root.
    ``family`` names the substreams, one per oracle, so that two oracles
    with the same seed draw independent samples.
    """
    def count(chunk_idx, m):
        rng = substream(seed, family, chunk_idx)
        r_sq = rng.standard_exponential(m) / (math.pi * lam)
        gains = rng.gamma(order, size=m)
        with np.errstate(over="ignore"):
            threshold = threshold_scale * r_sq ** (alpha / 2.0)
        return int(np.count_nonzero(gains >= threshold))

    return sum(_map_chunks(count, trials, _CHUNK))


def estimate_uplink_success(s, trials=1_000_000, seed=0):
    """Oracle for the uplink request success probability."""
    order = s.nt_u * s.nr_m
    scale = s.theta1 * s.nt_u / s.p_u
    n = _nearest_threshold_successes(
        s.lambda_m, order, scale, s.alpha1, trials, seed, 1)
    return _proportion_estimate(n, trials)


def estimate_access_success(s, trials=1_000_000, seed=0):
    """Oracle for the mmWave access-hop success probability."""
    order = s.nt_s * s.nr_u
    scale = s.theta3 * s.nt_s / s.p_s
    n = _nearest_threshold_successes(
        s.lambda_s, order, scale, s.alpha2, trials, seed, 6)
    return _proportion_estimate(n, trials)


def estimate_deli_success(s, trials=1_000_000, seed=0):
    """Oracle for the routing-info delivery success probability.

    Each trial takes the 16 (``_DELI_POINTS``) nearest macro cells,
    serves from the nearest and treats the others as interferers, each
    link with an independent Gamma(order, 1) aggregate gain.  In distance
    order the values ``t = pi * lambda_m * r**2`` are the arrivals of a
    unit-rate Poisson process, cumulative sums of Exp(1) draws, so column
    0 is the serving cell.  The SINR test runs in these units: path loss
    ``t**(-a)`` with ``a = alpha / 2``, noise scaled by
    ``(pi * lambda_m)**(-a)``.  The receiver noise is ``n0 * w_mmw``
    (Watts).

    The interference beyond the last sampled point ``t_K`` is one
    Gamma draw per trial whose mean and variance are those of that shot
    noise (Campbell's theorem; the moment-matched interference model of
    Heath, Kountouris and Bai, IEEE Trans. Signal Process. 61(16), 2013):
    mean ``mu = 2 * order * t_K**(1 - a) / (alpha - 2)`` and variance
    ``order * (order + 1) * t_K**(1 - alpha) / (alpha - 1)``, drawn as
    ``Gamma(k) * theta`` with
    ``k = 4 * order * (alpha - 1) / ((order + 1) * (alpha - 2)**2) * t_K``
    and ``theta = (order + 1) * (alpha - 2) / (2 * (alpha - 1)) * t_K**-a``.
    Against the 202 nearest cells (the mean count of a disc of radius
    ``8 / sqrt(lambda_m)``) with the mean beyond them, 4e6 paired trials
    put the bias at 2.7e-5 or less, within 1.1 paired standard errors
    (4e-5) of 0, at orders 1, 4 and 16, at ``alpha`` 2.2, 2.5 and 6 and
    on a noise-limited link; the standard error at 1e6 trials is about
    5e-4.  The mean alone in place of the draw biases it by -2.0e-4 at
    order 1.

    A chunk draws its ``(m, 16)`` Exp(1) distances from substream
    ``(seed, 2, chunk, 0)`` and its gains from ``(seed, 2, chunk, 1)``,
    both in blocks of ``_DELI_BLOCK`` trials: the distances are those of
    one ``(m, 16)`` array; each block takes its ``(n, 16)`` gains and
    then its ``n`` far-field Gamma(k) draws from the gains substream, so
    no chunk-sized array is held.

    Raises
    ------
    ScenarioError
        When the scaled noise overflows a float (a huge ``alpha1``).
    """
    try:
        noise = (s.nt_m * s.n0 * s.w_mmw / s.p_m
                 * (math.pi * s.lambda_m) ** (-s.alpha1 / 2.0))
    except OverflowError:
        raise ScenarioError(
            "delivery stage: its sampled noise overflows a float at this "
            "path-loss exponent and macro density") from None

    def count(chunk_idx, m):
        return sum(
            int(np.count_nonzero(signal >= s.theta2 * (interference + noise)))
            for signal, interference in _deli_blocks(s, seed, chunk_idx, m))

    successes = sum(_map_chunks(count, trials, _DELI_CHUNK))
    return _proportion_estimate(successes, trials)


def _deli_blocks(s, seed, chunk_idx, m):
    """Serving power and interference of each of the ``m`` trials of
    delivery chunk ``chunk_idx``, in the units of
    :func:`estimate_deli_success`: one ``(signal, interference)`` pair of
    arrays per ``_DELI_BLOCK`` row block, ``signal`` a view that the next
    block overwrites."""
    order = s.nt_m * s.nr_e
    alpha = s.alpha1
    half = alpha / 2.0
    # far-field Gamma shape per unit t_K and scale per unit t_K**-a, each
    # a product of finite ratios for every alpha > 2
    far_shape = (4.0 * order / (order + 1.0) * ((alpha - 1.0) / (alpha - 2.0))
                 / (alpha - 2.0))
    far_scale = (order + 1.0) / 2.0 * ((alpha - 2.0) / (alpha - 1.0))
    dist_rng = substream(seed, 2, chunk_idx, 0)
    gains_rng = substream(seed, 2, chunk_idx, 1)
    t = np.empty((min(m, _DELI_BLOCK), _DELI_POINTS))
    power = np.empty_like(t)
    far = np.empty(len(t))
    for start in range(0, m, _DELI_BLOCK):
        n = min(_DELI_BLOCK, m - start)
        tb, pb, fb = t[:n], power[:n], far[:n]
        dist_rng.standard_exponential(out=tb)
        np.cumsum(tb, axis=1, out=tb)
        gains_rng.standard_gamma(order, out=pb)
        gains_rng.standard_gamma(far_shape * tb[:, -1], out=fb)
        pb *= np.power(tb, -half, out=tb)
        fb *= far_scale * tb[:, -1]
        yield pb[:, 0], pb[:, 1:].sum(axis=1) + fb


def estimate_shadowing_success(s, trials=1_000_000, seed=0):
    """Oracle for the per-slot mmWave link success under shadowing."""
    f = multipath.mmwave_link_margin(s)

    def count(chunk_idx, m):
        zeta = substream(seed, 3, chunk_idx).normal(0.0, s.sigma_db, size=m)
        return int(np.count_nonzero(zeta <= f))

    successes = sum(_map_chunks(count, trials, _CHUNK))
    return _proportion_estimate(successes, trials)


def _split_packets(shares, total):
    """Integer packet counts per path, largest-remainder apportionment."""
    raw = shares * total
    base = np.floor(raw).astype(int)
    short = total - int(base.sum())
    if short:
        order = np.argsort(-(raw - base), kind="stable")
        base[order[:short]] += 1
    return base


def simulate_backhaul(s, scheme=MULTIPATH, trials=1000, seed=0):
    """Packet-level slotted stop-and-wait simulation of a buffer transfer.

    The paths are those of ``multipath.build_plan(s, b)``: each source
    at its mean distance, its share of the buffer apportioned in whole
    packets, its relay chain ``ceil(r / r_mmw)`` hops long.  Every packet
    crosses its chain hop by hop; a hop repeats slots until relay
    selection and the shadowing-limited link both succeed in the same
    slot, a Geometric(p) count on {1, 2, ...} at the plan's ``p_first``
    for the hop leaving the edge node and ``p_relay`` for the others.
    A packet enters the chain only after the previous one reached the
    destination, so a path's n crossings at one p take
    n + NegativeBinomial(n, p) slots, drawn once per trial; the trial
    delay is the slowest path's total.

    Parameters
    ----------
    s : NetworkScenario
    scheme : str
        ``"multipath"`` (share across b_paths sources) or
        ``"single-path"`` (everything over the nearest source).

    Raises
    ------
    ValueError
        For an unknown scheme, fewer than one trial, or a hop that can
        never succeed or whose slot count outgrows an int64.
    """
    plan = multipath.build_plan(s, multipath.path_count(s, scheme))
    if trials < 1:
        raise ValueError("need at least one trial")
    packets = _split_packets(plan.shares, multipath.buffer_packets(s))
    # per path: (crossings, per-slot success) of its first and relay hops
    legs = [((int(n), plan.p_first), (int(n) * (int(h) - 1), plan.p_relay))
            for n, h in zip(packets, plan.hops)]
    for path_legs in legs:
        # summed over a path, the reach also keeps its int64 total in range
        reach = sum((1.0 - p) / p * (n + 10.0 * math.sqrt(n)) if p > 0.0
                    else math.inf for n, p in path_legs if n)
        if not reach <= _SLOTS_MAX:
            p = min(p for n, p in path_legs if n)
            raise ValueError(
                f"backhaul stage can never complete in the simulator: a "
                f"per-slot success probability of {p:.6g} needs more slots "
                f"than an int64 count holds")

    slots = np.zeros((trials, plan.b), dtype=np.int64)

    def draw(path):
        rng = substream(seed, 4, path)
        for n, p in legs[path]:
            if n:
                slots[:, path] += n + rng.negative_binomial(n, p, size=trials)

    _pool_map(draw, [(path,) for path in range(plan.b)])
    delays = slots.max(axis=1) * s.tau_mmw
    se = float(delays.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return McEstimate(mean=float(delays.mean()), std_error=se,
                      n_samples=trials)
