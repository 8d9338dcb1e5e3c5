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
over ``pi * lam``; no trial samples a point count or a disc.

The packet-level backhaul simulator is the oracle for the integer-hop
(``EXACT_CEIL``) backhaul delay.  It takes its paths from
``multipath.build_plan``, each source at its mean distance, and samples
only the slotted retries along them.

Randomness comes from counter-based Philox streams keyed by
``(seed, stream path)``: each oracle draws from its own stream family,
and every chunk of trials (and every simulator path) owns an independent
substream within it.  The chunks run on a process-wide thread
pool, one worker per available CPU (numpy's draws and array operations
release the interpreter lock), and their results are combined in chunk
order, so every estimate is bit-reproducible and does not depend on the
worker count or on the order the chunks finish in.
"""

import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import multipath
from .multipath import EXACT_CEIL, MULTIPATH

_CHUNK = 50_000
# macro cells per delivery trial: the mean count of a disc of radius
# 8 / sqrt(lambda_m), beyond which interference enters as its mean
_DELI_POINTS = math.ceil(64 * math.pi)
# delivery trials per chunk, _CHUNK * 100 cells in all
_DELI_CHUNK = _CHUNK * 100 // _DELI_POINTS
# delivery trials per row block: a block of distances and one of gains
# (0.8 MB each) stay in cache and are reused across a chunk
_DELI_BLOCK = 512
# CPUs this process may run on
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_POOL_LOCK = threading.Lock()


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo mean with its standard error."""

    mean: float
    std_error: float
    n_samples: int
    seed: int

    def z_score(self, reference):
        """Standardised deviation of the estimate from ``reference``."""
        if self.std_error == 0.0:
            return 0.0 if self.mean == reference else math.inf
        return (self.mean - reference) / self.std_error


def substream(seed, *path):
    """Independent counter-based generator for ``(seed, path)``."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(ss))


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


def _proportion_estimate(successes, trials, seed):
    p = successes / trials
    se = math.sqrt(p * (1.0 - p) / trials)
    return McEstimate(mean=p, std_error=se, n_samples=trials, seed=seed)


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
                      n_samples=trials, seed=seed)


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
    return _proportion_estimate(n, trials, seed)


def estimate_access_success(s, trials=1_000_000, seed=0):
    """Oracle for the mmWave access-hop success probability."""
    order = s.nt_s * s.nr_u
    scale = s.theta3 * s.nt_s / s.p_s
    n = _nearest_threshold_successes(
        s.lambda_s, order, scale, s.alpha2, trials, seed, 6)
    return _proportion_estimate(n, trials, seed)


def estimate_deli_success(s, trials=1_000_000, seed=0, noise_power=None):
    """Oracle for the routing-info delivery success probability.

    Each trial takes the 202 (``_DELI_POINTS``) nearest macro cells,
    serves from the nearest and treats the others as interferers, each
    link with an independent Gamma(order, 1) aggregate gain.  In distance
    order the values ``t = pi * lambda_m * r**2`` are the arrivals of a
    unit-rate Poisson process, cumulative sums of Exp(1) draws, so column
    0 is the serving cell.  The SINR test runs in these units: path loss
    ``t**(-alpha/2)``, noise scaled by ``(pi * lambda_m)**(-alpha/2)``.
    Interference beyond the last sampled point ``t_N`` is added as its
    exact conditional mean ``order * 2 * t_N**(1 - alpha/2) / (alpha - 2)``;
    its fluctuation is far below the sampling noise.  ``noise_power``
    overrides the default receiver noise ``n0 * w_mmw`` (Watts).

    A chunk's substream holds all its ``(m, 202)`` Exp(1) draws, then all
    its ``(m, 202)`` gain draws.  The chunk walks its stream once past the
    distances, then replays them from a twin stream beside the gains, in
    blocks of ``_DELI_BLOCK`` trials: the draws are those of one
    ``(m, 202)`` array each, with no chunk-sized array held.
    """
    order = s.nt_m * s.nr_e
    alpha = s.alpha1
    half = alpha / 2.0
    sigma_z2 = s.n0 * s.w_mmw if noise_power is None else noise_power
    noise = s.nt_m * sigma_z2 / s.p_m * (math.pi * s.lambda_m) ** -half

    def count(chunk_idx, m):
        gains_rng = substream(seed, 2, chunk_idx)
        dist_rng = substream(seed, 2, chunk_idx)
        blocks = [min(_DELI_BLOCK, m - start)
                  for start in range(0, m, _DELI_BLOCK)]
        t = np.empty((blocks[0], _DELI_POINTS))
        power = np.empty_like(t)
        for n in blocks:  # skip the distances; dist_rng replays them
            gains_rng.standard_exponential(out=t[:n])
        successes = 0
        for n in blocks:
            tb, pb = t[:n], power[:n]
            dist_rng.standard_exponential(out=tb)
            np.cumsum(tb, axis=1, out=tb)
            far_mean = order * 2.0 * tb[:, -1] ** (1.0 - half) / (alpha - 2.0)
            gains_rng.standard_gamma(order, out=pb)
            pb *= np.power(tb, -half, out=tb)
            interference = pb[:, 1:].sum(axis=1) + far_mean
            ok = pb[:, 0] >= s.theta2 * (interference + noise)
            successes += int(np.count_nonzero(ok))
        return successes

    successes = sum(_map_chunks(count, trials, _DELI_CHUNK))
    return _proportion_estimate(successes, trials, seed)


def estimate_shadowing_success(s, trials=1_000_000, seed=0):
    """Oracle for the per-slot mmWave link success under shadowing."""
    f = multipath.mmwave_link_margin(s)

    def count(chunk_idx, m):
        zeta = substream(seed, 3, chunk_idx).normal(0.0, s.sigma_db, size=m)
        return int(np.count_nonzero(zeta <= f))

    successes = sum(_map_chunks(count, trials, _CHUNK))
    return _proportion_estimate(successes, trials, seed)


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

    The paths are those of ``multipath.build_plan(s, EXACT_CEIL, b)``:
    each source at its mean distance, its share of the buffer apportioned
    in whole packets, its relay chain ``ceil(r / r_mmw)`` hops long.
    Every packet crosses its chain hop by hop; a hop repeats slots until
    relay selection and the shadowing-limited link both succeed in the
    same slot (slot counts are drawn from the equivalent geometric law),
    and the first hop leaves the edge node at its transmit power.  A
    packet enters the chain only after the previous one reached the
    destination; the trial delay is the slowest path's total.

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
        never succeed.
    """
    plan = multipath.build_plan(s, EXACT_CEIL, multipath.path_count(s, scheme))
    if trials < 1:
        raise ValueError("need at least one trial")
    packets = _split_packets(plan.shares, multipath.buffer_packets(s))
    p_first = plan.p1 * multipath.mmwave_success_prob(s, tx_power_w=s.p_e)
    p_relay = plan.p1 * plan.p2
    if p_first <= 0.0 or p_relay <= 0.0:
        raise ValueError(
            "per-slot success probability is zero; the transfer can never "
            "complete")

    slots = np.zeros((trials, plan.b), dtype=np.int64)

    def draw(path):
        rng = substream(seed, 4, path)
        n_first = int(packets[path])
        n_rest = int(packets[path]) * (int(plan.hops[path]) - 1)
        if n_first:
            slots[:, path] += rng.geometric(p_first, size=(trials, n_first)
                                            ).sum(axis=1)
        if n_rest:
            slots[:, path] += rng.geometric(p_relay, size=(trials, n_rest)
                                            ).sum(axis=1)

    _pool_map(draw, [(path,) for path in range(plan.b)])
    delays = slots.max(axis=1) * s.tau_mmw
    se = float(delays.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return McEstimate(mean=float(delays.mean()), std_error=se,
                      n_samples=trials, seed=seed)
