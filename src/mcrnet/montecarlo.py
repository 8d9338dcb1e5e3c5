"""Stochastic oracles for every closed form in the analytical modules.

Each estimator samples the underlying random model directly (Poisson
fields, Gamma aggregate gains, log-normal shadowing, slotted retries) and
reports a mean with its standard error, so the library's analytical
results can be checked to within sampling noise.

The distance-based oracles use the ordered construction of a planar
Poisson field of density ``lam`` (mapping theorem): the values
``pi * lam * r**2`` over its points in distance order form a unit-rate
Poisson process on the line (Haenggi, "On distances in uniformly random
networks", IEEE Trans. Inf. Theory 51(10), 2005).  So the ordered
squared distances are cumulative sums of Exp(1) draws over
``pi * lam``, the k-th of them ``Gamma(k, 1) / (pi * lam)``; no trial
samples a point count or a disc.  The delivery oracle samples its 4
nearest macro cells this way and draws the interference beyond them as
one Gamma variable with that shot noise's exact mean and variance.

The packet-level backhaul simulator is the oracle for the integer-hop
(``EXACT_CEIL``) backhaul delay.  It takes its paths and their per-slot
success probabilities from ``multipath.build_plan``, each source at its
mean distance, and samples only the slotted retries along them.

Every Exp(1) draw is ``-log(1 - U)`` of a uniform ``U``
(:func:`_exponentials`), and every Gamma(m, 1) gain of a whole order
``m`` up to ``_GAMMA_PRODUCT_MAX`` (5) is ``-log`` of a product of ``m``
such factors (:func:`_gammas`), which costs less than numpy's ziggurat
and Marsaglia-Tsang samplers; above that order the gains, and the
delivery oracle's far-field draws, whose shape differs per trial, are
numpy's ``standard_gamma``.

Randomness comes from SFC64 streams keyed by ``(seed, stream path)``:
each oracle draws from its own stream family, and every chunk of trials
(and every simulator path) owns an independent substream within it.
The chunks run one after another in the calling thread and their results
are combined in chunk order, so every estimate is bit-reproducible: the
chunk sizes, not the machine, fix every stream.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import multipath, numerics
from .multipath import MULTIPATH
from .scenario import ScenarioError

# trials per chunk of the uplink, access and shadowing oracles and of
# nearest_distances: each chunk owns a substream, so this fixes every
# stream, and it bounds the arrays a chunk holds
_CHUNK = 50_000
# gains per draw block (64 KiB): 8192 uplink or access trials, or
# 8192 // _DELI_POINTS delivery trials
_DRAW_BLOCK = 8192
# macro cells sampled per delivery trial; interference beyond the last
# is a moment-matched Gamma draw, which biases the estimate by at most
# about 1.5e-4 (at order 1), under a third of its standard error at 1e6
# trials
_DELI_POINTS = 4
# delivery trials per chunk, not derived from _DELI_POINTS: each chunk
# owns its two substreams, so this value, with _DELI_BLOCK, fixes every
# stream (1e5 trials make four full chunks and a short one); a chunk's
# arrays hold the shorter of the chunk and one pass of _DELI_PASS blocks
_DELI_CHUNK = 24_752
# delivery trials per draw block: each block takes its gains and then its
# far-field draws from the gains substream, so this constant and
# _DELI_CHUNK fix every stream
_DELI_BLOCK = _DRAW_BLOCK // _DELI_POINTS
# draw blocks per pass: the distances, powers and sums of a pass (512 KiB
# per array) are each one numpy call, and it moves no draw; passes of 4
# to 8 blocks timed fastest, a whole chunk in one pass slower
_DELI_PASS = 8
# largest whole Gamma order drawn as a product of uniforms: each order
# adds a uniform, a subtraction and a product per draw (about 2.7 ns on a
# 2-vCPU host), and above 5 numpy's Marsaglia-Tsang sampler (about 17 ns
# a draw there) is faster
_GAMMA_PRODUCT_MAX = 5
# added to every -log(1 - U) draw: below half a unit in the last place of
# the smallest nonzero one, 2**-53, so it moves only the draw at U = 0,
# which would otherwise be exactly 0
_DRAW_FLOOR = 2.0 ** -110
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


def _exponentials(rng, out):
    """Fill ``out`` with Exp(1) draws, ``-log(1 - U)`` for uniforms ``U``
    from ``rng``, in place; returns ``out``.

    ``1 - U`` is exact and lies in ``[2**-53, 1]``, so every draw is
    finite (at most ``53 log 2``, about 36.7), and ``_DRAW_FLOOR`` keeps
    the one at ``U = 0`` above 0.
    """
    rng.random(out=out)
    np.subtract(1.0, out, out=out)
    np.log(out, out=out)
    return np.subtract(_DRAW_FLOOR, out, out=out)


def _gammas(rng, order, out):
    """Fill ``out`` with Gamma(order, 1) draws for a whole ``order >= 1``,
    in place; returns ``out``.

    Up to ``_GAMMA_PRODUCT_MAX`` a draw is the sum of ``order`` Exp(1)
    variables, taken as ``-log`` of the product of ``order`` values
    ``1 - U`` (Devroye, Non-Uniform Random Variate Generation, 1986,
    ch. IX): the factors are drawn one whole ``out``-shaped array after
    another and multiplied in that order, and their product is at least
    ``2**(-53 * order)``, so it never underflows.  Above it the draws
    are numpy's ``standard_gamma``.
    """
    if order > _GAMMA_PRODUCT_MAX:
        return rng.standard_gamma(order, out=out)
    # one draw of every factor: few numpy calls, each over many values
    factors = rng.random((order,) + out.shape)
    np.subtract(1.0, factors, out=factors)
    np.prod(factors, axis=0, out=out)
    np.log(out, out=out)
    return np.subtract(_DRAW_FLOOR, out, out=out)


def _check_trials(trials):
    """Refuse a trial count below 1, before an oracle draws anything."""
    if trials < 1:
        raise ValueError("need at least one trial")


def _map_chunks(fn, trials, chunk):
    """``fn(chunk_idx, m)`` over the ``chunk``-sized pieces of ``trials``,
    a list in chunk order."""
    return [fn(chunk_idx, min(chunk, trials - start))
            for chunk_idx, start in enumerate(range(0, trials, chunk))]


def _proportion_estimate(successes, trials):
    p = successes / trials
    se = math.sqrt(p * (1.0 - p) / trials)
    return McEstimate(mean=p, std_error=se, n_samples=trials)


def mean_estimate(samples):
    """Sample mean of a 1-D array with its standard error."""
    n = len(samples)
    se = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return McEstimate(mean=float(samples.mean()), std_error=se, n_samples=n)


def proportion_z(est, analytic):
    """z-score of a sampled proportion against an analytic probability.

    The mid-p value of the success count ``k`` under ``X ~ Binomial(n,
    analytic)``, ``P(X < k) + P(X = k) / 2``, mapped through the inverse
    normal CDF; it is taken from the smaller tail, so it stays finite
    where that tail is tiny.  Unlike the normal approximation it holds
    where ``n * analytic * (1 - analytic)`` is far below 1: one failure
    in 1e5 trials at a failure probability of 8.3e-9 has probability
    8.3e-4 and reads z = -3.34, not -34.7.  Where ``n * p * (1 - p)``
    is large the two agree, up to the binomial's skewness.  A tail that
    underflows (a count dozens of standard errors out) falls back to
    the normal z, as does an analytic value of 0 or 1, which has no
    spread: 0 when the sample equals it, else infinite.
    """
    var = analytic * (1.0 - analytic)
    if var == 0.0:
        return 0.0 if est.mean == analytic else math.inf
    # imported here, so that no command but validate loads statistics
    from statistics import NormalDist
    n = est.n_samples
    k = round(est.mean * n)
    # below = P(X < k), at_least = P(X >= k), at_most = P(X <= k) and
    # above = P(X > k): one continued fraction per split, each tail taken
    # on the side where it is small
    below, at_least = (numerics.binomial_tails(n, analytic, k) if k
                       else (0.0, 1.0))
    at_most, above = (numerics.binomial_tails(n, analytic, k + 1) if k < n
                      else (1.0, 0.0))
    # the mid-p value of each tail: P(X < k) or P(X > k), plus P(X = k) / 2
    lower, upper = 0.5 * (below + at_most), 0.5 * (above + at_least)
    tail = min(lower, upper)
    if tail > 0.0:
        z = NormalDist().inv_cdf(tail)
        return z if lower <= upper else -z
    return (est.mean - analytic) / math.sqrt(var / n)


def nearest_distances(lambda_e, k, trials, seed=0):
    """Sampled distances to the 1st..k-th nearest points of a Poisson field.

    Returns a ``(k, trials)`` array, row ``j`` the ``(j + 1)``-th nearest
    distance of each trial.  Each ``_CHUNK`` chunk of trials fills its
    rows one after another from substream ``(seed, 0, chunk)``: row 0 is
    Exp(1) draws (:func:`_exponentials`), row ``j`` row ``j - 1`` plus
    fresh Exp(1) draws, the arrivals of a unit-rate Poisson process;
    then the chunk is divided by ``pi * lambda_e`` and square-rooted in
    place.  So the first ``j`` rows do not depend on ``k``, and each
    trial's distances never decrease from row to row.  Holds ``k *
    trials`` floats.
    """
    _check_trials(trials)
    if k < 1 or lambda_e <= 0:
        raise ValueError("need k >= 1 and lambda_e > 0")
    out = np.empty((k, trials))
    scale = math.pi * lambda_e

    def draw(chunk_idx, m):
        start = chunk_idx * _CHUNK
        rows = out[:, start:start + m]
        rng = substream(seed, 0, chunk_idx)
        for j, row in enumerate(rows):
            _exponentials(rng, row)
            if j:
                row += rows[j - 1]
        rows /= scale
        np.sqrt(rows, out=rows)

    _map_chunks(draw, trials, _CHUNK)
    return out


def _nearest_threshold_successes(lam, order, threshold_scale, alpha,
                                 trials, seed, family):
    """Trials where a Gamma(order, 1) gain beats a distance-based threshold.

    The nearest squared distance is Exp(1) / (pi * lam), so the threshold
    ``threshold_scale * r**alpha`` is taken from it without a square root,
    in place.  A chunk draws its ``m`` distances from substream ``(seed,
    family, chunk)`` and then its gains from the same substream in blocks
    of ``_DRAW_BLOCK`` trials (:func:`_gammas`), so no chunk-sized gain
    array is held.  ``family`` names the substreams, one per oracle, so
    that two oracles with the same seed draw independent samples.
    """
    _check_trials(trials)

    def count(chunk_idx, m):
        rng = substream(seed, family, chunk_idx)
        threshold = _exponentials(rng, np.empty(m))
        threshold /= math.pi * lam
        with np.errstate(over="ignore"):
            threshold **= alpha / 2.0
            threshold *= threshold_scale
        gains = np.empty(min(m, _DRAW_BLOCK))
        successes = 0
        for start in range(0, m, _DRAW_BLOCK):
            block = threshold[start:start + _DRAW_BLOCK]
            drawn = _gammas(rng, order, gains[:len(block)])
            successes += int(np.count_nonzero(drawn >= block))
        return successes

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

    Each trial takes the 4 (``_DELI_POINTS``) nearest macro cells,
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
    ``8 / sqrt(lambda_m)``) with the mean beyond them, the bias at order
    1 is +1.0e-4 to +1.5e-4 (+-3e-5): 24 paired runs of the harness of
    ``test_deli_truncation_bias_against_reference_cells[order1]``,
    1.6e6 trials each at seeds 100-123, read +1.04e-4 +- 2.8e-5
    with :func:`_exponentials` and :func:`_gammas` and +1.47e-4 +- 3.0e-5
    with numpy's samplers.  An earlier study of 4e6 paired trials put it
    within 0.83 paired standard errors (at most 9.5e-5) of 0 at orders 4
    and 16, at ``alpha`` 2.2, 2.5 and 6, on a noise-limited link and at
    order 16 with ``alpha`` 2.2.  The standard error at 1e6 trials is
    about 5e-4.  The mean alone in place of the draw biases it by
    -3.4e-3 at order 1.

    A chunk draws its ``(m, 4)`` Exp(1) distances (:func:`_exponentials`)
    from substream ``(seed, 2, chunk, 0)``, those of one ``(m, 4)``
    array, and its gains from ``(seed, 2, chunk, 1)`` in draw blocks of
    ``_DELI_BLOCK`` trials: each block takes its ``(n, 4)`` gains
    (:func:`_gammas`) and then its ``n`` far-field Gamma(k) draws, whose
    shape differs from trial to trial, from numpy's ``standard_gamma``.
    It computes a pass of ``_DELI_PASS`` blocks at a time, so no
    chunk-sized array is held; the pass size moves no draw and no result
    bit.

    Raises
    ------
    ScenarioError
        When the scaled noise overflows a float (a huge ``alpha1``).
    ValueError
        For fewer than one trial.
    """
    _check_trials(trials)
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
    arrays per pass of ``_DELI_PASS`` draw blocks, ``signal`` a view that
    the next pass overwrites."""
    order = s.nt_m * s.nr_e
    half = s.alpha1 / 2.0
    far_shape, far_scale = _far_field_gamma(order, s.alpha1)
    dist_rng = substream(seed, 2, chunk_idx, 0)
    gains_rng = substream(seed, 2, chunk_idx, 1)
    rows = _DELI_PASS * _DELI_BLOCK
    t = np.empty((min(m, rows), _DELI_POINTS))
    power = np.empty_like(t)
    far = np.empty(len(t))
    for start in range(0, m, rows):
        n = min(rows, m - start)
        tp, pp, fp = t[:n], power[:n], far[:n]
        _exponentials(dist_rng, tp)
        # running sums and the interference sum as column adds, in the
        # order of np.cumsum and of sum(axis=1): on 4 columns those
        # short-axis reductions cost more than the adds
        for j in range(1, _DELI_POINTS):
            tp[:, j] += tp[:, j - 1]
        shapes = far_shape * tp[:, -1]
        for b in range(0, n, _DELI_BLOCK):
            _gammas(gains_rng, order, pp[b:b + _DELI_BLOCK])
            gains_rng.standard_gamma(shapes[b:b + _DELI_BLOCK],
                                     out=fp[b:b + _DELI_BLOCK])
        pp *= np.power(tp, -half, out=tp)
        fp *= far_scale * tp[:, -1]
        # a copy: the next pass overwrites pp, and callers keep this
        interference = pp[:, 1].copy()
        for j in range(2, _DELI_POINTS):
            interference += pp[:, j]
        interference += fp
        yield pp[:, 0], interference


def _far_field_gamma(order, alpha):
    """Shape per unit ``t_K`` and scale per unit ``t_K**(-alpha/2)`` of
    the delivery oracle's far-field Gamma draw, each a product of finite
    ratios for every ``alpha > 2``."""
    shape = (4.0 * order / (order + 1.0) * ((alpha - 1.0) / (alpha - 2.0))
             / (alpha - 2.0))
    return shape, (order + 1.0) / 2.0 * ((alpha - 2.0) / (alpha - 1.0))


def estimate_shadowing_success(s, trials=1_000_000, seed=0):
    """Oracle for the per-slot mmWave link success under shadowing."""
    _check_trials(trials)
    f = multipath.mmwave_link_margin(s)

    def count(chunk_idx, m):
        zeta = substream(seed, 3, chunk_idx).normal(0.0, s.sigma_db, size=m)
        return int(np.count_nonzero(zeta <= f))

    successes = sum(_map_chunks(count, trials, _CHUNK))
    return _proportion_estimate(successes, trials)


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
        For an unknown scheme, fewer than one trial, a path whose packet
        count or slot total outgrows an int64, or a hop that can never
        succeed.
    """
    plan = multipath.build_plan(s, multipath.path_count(s, scheme))
    _check_trials(trials)
    packets = multipath.split_packets(plan.shares, multipath.buffer_packets(s),
                                      "the simulator")
    # per path: (crossings, per-slot success) of its first and relay hops
    legs = [((int(n), plan.p_first), (int(n) * (int(h) - 1), plan.p_relay))
            for n, h in zip(packets, plan.hops)]
    for path_legs in legs:
        # summed over a path with its n crossings, the reach also keeps
        # its int64 total in range
        reach = sum(n + (1.0 - p) / p * (n + 10.0 * math.sqrt(n)) if p > 0.0
                    else math.inf for n, p in path_legs if n)
        if not reach <= _SLOTS_MAX:
            p = min(p for n, p in path_legs if n)
            crossings = sum(n for n, _ in path_legs)
            raise ValueError(
                f"backhaul stage can never complete in the simulator: "
                f"{crossings:.6g} hop crossings at a per-slot success "
                f"probability of {p:.6g} need more slots than an int64 "
                f"count holds")

    slots = np.zeros((trials, plan.b), dtype=np.int64)
    for path, path_legs in enumerate(legs):
        rng = substream(seed, 4, path)
        for n, p in path_legs:
            if n:
                slots[:, path] += n + rng.negative_binomial(n, p, size=trials)
    # in slots, scaled once: the squared deviations stay finite at any
    # slot length
    est = mean_estimate(slots.max(axis=1))
    return McEstimate(mean=est.mean * s.tau_mmw,
                      std_error=est.std_error * s.tau_mmw,
                      n_samples=est.n_samples)
