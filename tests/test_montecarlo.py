import math
import os
import pathlib
import subprocess
import sys
import threading
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from mcrnet import cli, latency, montecarlo, multipath
from mcrnet.montecarlo import (McEstimate, estimate_access_success,
                               estimate_deli_success,
                               estimate_shadowing_success,
                               estimate_uplink_success, mean_estimate,
                               nearest_distances, proportion_z,
                               simulate_backhaul, substream)
from mcrnet.multipath import EXACT_CEIL, MULTIPATH, SCHEMES, SINGLE_PATH
from mcrnet.scenario import MAX_GAIN_ORDER, ScenarioError, load_scenario
from oracles import binomial_grid, scipy_proportion_z

SEED = 1234
DELI_CHUNK = montecarlo._DELI_CHUNK
# the oracles' samplers, kept for the stand-ins that replace them
_exponentials, _gammas = montecarlo._exponentials, montecarlo._gammas
GAMMA_ORDERS = range(1, montecarlo._GAMMA_PRODUCT_MAX + 2)


@pytest.mark.parametrize("k", [1, 2])
def test_kth_nearest_matches_closed_form(k):
    est = mean_estimate(nearest_distances(1e-5, k, 100_000, SEED)[-1])
    ref = multipath.mean_kth_edc_distance(1e-5, k)
    assert abs(est.z_score(ref)) <= 3.0


def test_kth_nearest_distribution_ks():
    lam, k = 1e-5, 2
    samples = nearest_distances(lam, k, trials=100_000, seed=SEED)[-1]

    def cdf(r):
        return special.gammainc(k, lam * math.pi * r ** 2)

    d_stat = stats.kstest(samples, cdf).statistic
    assert d_stat < 0.01


def test_kth_nearest_reproducible():
    a = nearest_distances(1e-5, 3, 20_000, SEED)
    b = nearest_distances(1e-5, 3, 20_000, SEED)
    assert a.tobytes() == b.tobytes()
    assert mean_estimate(a[-1]) == mean_estimate(b[-1])


def _disc_sq_radii(rng, lam, radius, trials):
    """Brute-force Poisson fields on a disc, one row per trial.

    A Poisson point count and uniform positions on the disc; only
    squared distances from the centre matter, and a uniform point
    on the disc has a squared radius uniform on [0, radius**2].  Rows are
    padded with inf beyond their count.
    """
    counts = rng.poisson(lam * math.pi * radius ** 2, size=trials)
    width = int(counts.max())
    sq = radius ** 2 * rng.random((trials, width))
    sq[np.arange(width) >= counts[:, None]] = np.inf
    return sq


def test_kth_nearest_matches_brute_force_disc_sampling():
    # independent oracle for the ordered (Gamma) construction; the disc
    # holds 25 pi points on average, so fewer than 3 has probability
    # below 1e-30
    lam, trials = 1e-5, 20_000
    rng = np.random.default_rng(SEED)
    sq = np.sort(_disc_sq_radii(rng, lam, 5.0 / math.sqrt(lam), trials),
                 axis=1)
    for k in (1, 2, 3):
        brute = np.sqrt(sq[:, k - 1])
        ordered = nearest_distances(lam, k, trials, seed=SEED + k)[-1]
        assert stats.ks_2samp(brute, ordered).pvalue > 1e-3, k


@pytest.mark.parametrize("trials", [1, montecarlo._CHUNK - 1,
                                    montecarlo._CHUNK + 1,
                                    2 * montecarlo._CHUNK + 3])
def test_nearest_distances_are_an_ordered_prefix(trials):
    # the first j rows do not depend on k, bit for bit, and each trial's
    # distances do not decrease from row to row
    lam, k = 1e-5, 4
    rows = nearest_distances(lam, k, trials, SEED)
    assert rows.shape == (k, trials)
    for j in range(1, k + 1):
        prefix = nearest_distances(lam, j, trials, SEED)
        assert prefix.tobytes() == rows[:j].tobytes(), j
    assert (np.diff(rows, axis=0) >= 0.0).all()


def test_nearest_distance_is_a_direct_exponential_draw():
    # k = 1: chunk by chunk, Exp(1) draws from substream (seed, 0, chunk)
    # over pi * lambda, square-rooted
    lam, trials, chunk = 1e-5, 2 * montecarlo._CHUNK + 3, montecarlo._CHUNK
    direct = np.concatenate([
        np.sqrt(_exponentials(substream(SEED, 0, i), np.empty(
            min(chunk, trials - start))) / (math.pi * lam))
        for i, start in enumerate(range(0, trials, chunk))])
    assert (nearest_distances(lam, 1, trials, SEED)[0].tobytes()
            == direct.tobytes())


# Dvoretzky-Kiefer-Wolfowitz (with Massart's constant): n draws of a
# sampler with the right law stray more than eps from its CDF with
# probability at most 2 exp(-2 n eps**2), here 1e-6
LAW_DRAWS = 200_000
DKW_BAND = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * LAW_DRAWS))


def _cdf_distance(draws, cdf):
    # sup |F_n - F| over the sorted draws, from both sides of each step
    f = cdf(np.sort(draws.ravel()))
    steps = np.arange(len(f) + 1) / len(f)
    return max((steps[1:] - f).max(), (f - steps[:-1]).max())


def test_exponentials_follow_the_exponential_law():
    draws = _exponentials(substream(SEED, 90), np.empty(LAW_DRAWS))
    assert _cdf_distance(draws, lambda x: -np.expm1(-x)) <= DKW_BAND


@pytest.mark.parametrize("order", GAMMA_ORDERS)
def test_gammas_follow_the_gamma_law(order):
    # every order drawn as a product of uniforms and the first above them;
    # a 2-D fill, as the delivery oracle's gains are
    draws = _gammas(substream(SEED, 91, order), order,
                    np.empty((LAW_DRAWS // 4, 4)))
    assert _cdf_distance(draws, lambda x: special.gammainc(order, x)) \
        <= DKW_BAND


@pytest.mark.parametrize("order", GAMMA_ORDERS)
def test_gammas_are_uniform_products_up_to_the_crossover(order):
    # order factors 1 - U, each a whole array drawn after the last, so a
    # 2-D fill is the 1-D fill of its size; numpy's sampler above them
    n = 1000
    flat = _gammas(substream(SEED, 92), order, np.empty(n))
    assert _gammas(substream(SEED, 92), order,
                   np.empty((n // 4, 4))).ravel().tobytes() == flat.tobytes()
    rng = substream(SEED, 92)
    if order > montecarlo._GAMMA_PRODUCT_MAX:
        expected = rng.standard_gamma(order, n)
    else:
        product = np.ones(n)
        for _ in range(order):
            product *= 1.0 - rng.random(n)
        expected = -np.log(product)
    assert flat.tobytes() == expected.tobytes()
    rng = substream(SEED, 93)
    assert (_exponentials(substream(SEED, 93), np.empty(n)).tobytes()
            == (-np.log(1.0 - rng.random(n))).tobytes())


class _ConstantUniforms:
    """Generator stand-in whose every uniform is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None, out=None):
        out = np.empty(size) if out is None else out
        out[:] = self.u
        return out


# 0 and the largest double a numpy Generator's random() returns
@pytest.mark.parametrize("u", [0.0, 1.0 - 2.0 ** -53])
def test_draws_are_positive_and_finite_at_the_extremes_of_u(u):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = [_exponentials(_ConstantUniforms(u), np.empty(3))] + [
            _gammas(_ConstantUniforms(u), order, np.empty((3, 2)))
            for order in range(1, montecarlo._GAMMA_PRODUCT_MAX + 1)]
    for d in draws:
        assert ((0.0 < d) & (d < math.inf)).all(), d


def test_mean_estimate_is_the_mean_with_its_standard_error():
    x = np.array([1.0, 2.0, 4.0, 9.0])
    est = mean_estimate(x)
    assert est == McEstimate(mean=4.0, std_error=float(x.std(ddof=1)) / 2.0,
                             n_samples=4)
    assert mean_estimate(np.array([3.0])) == McEstimate(3.0, 0.0, 1)


def _brute_force_deli_successes(s, trials, rng):
    # every macro cell in a disc of radius 8 / sqrt(lambda_m), the nearest
    # serving; interference beyond the disc enters as its mean
    order = s.nt_m * s.nr_e
    lam, alpha = s.lambda_m, s.alpha1
    radius = 8.0 / math.sqrt(lam)
    far_mean = (order * 2.0 * math.pi * lam * radius ** (2.0 - alpha)
                / (alpha - 2.0))
    noise = s.nt_m * s.n0 * s.w_mmw / s.p_m
    sq = _disc_sq_radii(rng, lam, radius, trials)
    power = rng.gamma(order, size=sq.shape) * sq ** (-alpha / 2.0)
    serving = np.take_along_axis(power, sq.argmin(axis=1)[:, None], 1)[:, 0]
    interference = power.sum(axis=1) - serving + far_mean
    return int(np.count_nonzero(serving >= s.theta2 * (interference + noise)))


# at the default noise density the delivery link is interference-limited;
# n0 = 4e-15 W/Hz halves its success probability, which checks the noise
@pytest.mark.parametrize("overrides",
                         [{}, {"nt_m": 1, "nr_e": 1}, {"n0": 4e-15}],
                         ids=["default", "rayleigh", "noisy"])
def test_deli_oracle_matches_brute_force_disc_sampling(overrides):
    s = load_scenario(overrides=overrides)
    trials = 40_000
    rng = np.random.default_rng(SEED)
    brute = _brute_force_deli_successes(s, trials, rng) / trials
    est = estimate_deli_success(s, trials=trials, seed=SEED)
    combined_se = math.sqrt(brute * (1.0 - brute) / trials
                            + est.std_error ** 2)
    assert abs(est.mean - brute) <= 3.0 * combined_se


# the delivery oracle's reference cell count: the mean count of a disc of
# radius 8 / sqrt(lambda_m)
REF_DELI_POINTS = 202


def _ref_deli_successes(s, t, gains):
    # rows of cumulative distances t and gains over REF_DELI_POINTS cells,
    # decided as the oracle decides, with the far field beyond the last
    order = s.nt_m * s.nr_e
    alpha = s.alpha1
    half = alpha / 2.0
    noise = s.nt_m * s.n0 * s.w_mmw / s.p_m * (math.pi * s.lambda_m) ** -half
    far_mean = order * 2.0 * t[:, -1] ** (1.0 - half) / (alpha - 2.0)
    power = gains * t ** -half
    interference = power[:, 1:].sum(axis=1) + far_mean
    return int(np.count_nonzero(power[:, 0] >= s.theta2 * (interference
                                                           + noise)))


def _draw_through_stand_ins(monkeypatch):
    """Route the oracle's Exp(1) and Gamma(order) draws to the methods of
    the stand-in it holds in place of a substream."""
    monkeypatch.setattr(montecarlo, "_exponentials",
                        lambda rng, out: rng.exponentials(out))
    monkeypatch.setattr(montecarlo, "_gammas",
                        lambda rng, order, out: rng.gammas(order, out))


class _PairedDeliChunk:
    """Both substreams of one delivery chunk, drawn over the reference cells.

    The oracle receives the leading cells of each reference trial, a
    pass of draw blocks at a time, and the reference decides a draw
    block's trials when its gains are served, taking their distances at
    a running row offset into the pass.  A trial whose serving cell
    already loses to the interference of those leading cells and the
    noise fails whatever lies beyond them, so only the other trials draw
    their remaining REF_DELI_POINTS cells, from where the leading ones
    end.  The chunk stands in for the oracle's two samplers and draws
    every cell, the oracle's far-field Gamma draws too, with the same
    generator's own methods: the pairing measures the truncation
    whatever the sampler, and the samplers' law is tested on its own.
    """

    def __init__(self, s, chunk_idx):
        self.s = s
        self.rng = np.random.default_rng([SEED, chunk_idx])
        self.successes = 0

    def exponentials(self, out):
        self.rng.standard_exponential(out=out)
        self.pass_exp, self.row = out.copy(), 0

    def standard_gamma(self, shape, out):
        # the far field beyond the oracle's cells
        self.rng.standard_gamma(shape, out=out)

    def gammas(self, order, out):
        self.rng.standard_gamma(order, out=out)
        s, (n, k) = self.s, out.shape
        exp = self.pass_exp[self.row:self.row + n]
        self.row += n
        half = s.alpha1 / 2.0
        noise = (s.nt_m * s.n0 * s.w_mmw / s.p_m
                 * (math.pi * s.lambda_m) ** -half)
        power = out * np.cumsum(exp, axis=1) ** -half
        open_ = power[:, 0] >= s.theta2 * (power[:, 1:].sum(axis=1) + noise)
        rest = (int(np.count_nonzero(open_)), REF_DELI_POINTS - k)
        exp = np.hstack([exp[open_], self.rng.standard_exponential(rest)])
        gains = np.hstack([out[open_], self.rng.standard_gamma(order, rest)])
        self.successes += _ref_deli_successes(s, np.cumsum(exp, axis=1),
                                              gains)


# gain orders 1, 4 (default) and 16, alpha1 from a heavy far field (2.2)
# to a noise-limited link (6), a noise-limited link at about -114 dBm/Hz,
# and order 16 under the heaviest far field
@pytest.mark.parametrize("overrides", [
    {"nt_m": 1, "nr_e": 1}, {}, {"nt_m": 4, "nr_e": 4},
    {"alpha1": 2.2}, {"alpha1": 2.5}, {"alpha1": 6.0}, {"n0": 4e-15},
    {"nt_m": 4, "nr_e": 4, "alpha1": 2.2}],
    ids=["order1", "order4", "order16", "alpha2.2", "alpha2.5", "alpha6",
         "noisy", "order16-alpha2.2"])
def test_deli_truncation_bias_against_reference_cells(monkeypatch,
                                                      overrides):
    # the oracle's cells are the leading cells of each reference trial,
    # so the two decisions differ only through the far field, which the
    # oracle draws independently of the reference's cells beyond its own.
    # 2e-4 is 0.4 of the standard error at 1e6 trials; at 4 cells the
    # paired difference has a standard deviation of up to about 0.19 per
    # trial, so 1.6e6 trials put its standard error at up to 1.5e-4
    s = load_scenario(overrides=overrides)
    trials = 1_600_000
    chunks = {}

    def paired_substream(seed, family, chunk_idx, stream):
        assert (seed, family) == (SEED, 2)
        return chunks.setdefault(chunk_idx, _PairedDeliChunk(s, chunk_idx))

    monkeypatch.setattr(montecarlo, "substream", paired_substream)
    _draw_through_stand_ins(monkeypatch)
    est = estimate_deli_success(s, trials=trials, seed=SEED)
    reference = sum(c.successes for c in chunks.values()) / trials
    assert montecarlo._DELI_POINTS < REF_DELI_POINTS
    assert abs(est.mean - reference) <= 2e-4


def _far_field_gamma(order, alpha):
    """Shape of the far-field Gamma draw per unit ``t_K`` and its scale
    per unit ``t_K**(-alpha/2)``, in the oracle's arithmetic."""
    shape = (4.0 * order / (order + 1.0) * ((alpha - 1.0) / (alpha - 2.0))
             / (alpha - 2.0))
    return shape, (order + 1.0) / 2.0 * ((alpha - 2.0) / (alpha - 1.0))


def _far_field_moments(order, alpha, t):
    """Mean and variance of the shot noise beyond ``t`` (Campbell)."""
    mean = 2.0 * order * t ** (1.0 - alpha / 2.0) / (alpha - 2.0)
    var = order * (order + 1.0) * t ** (1.0 - alpha) / (alpha - 1.0)
    return mean, var


class _FixedDistanceChunk:
    """Substream stand-in: every trial's last sampled cell at ``t_k``, unit
    gains, and the far-field draws kept where the oracle scales them."""

    def __init__(self, t_k, rng):
        self.t_k, self.rng = t_k, rng

    def exponentials(self, out):
        out[:] = self.t_k / out.shape[1]

    def gammas(self, order, out):
        out[:] = 1.0

    def standard_gamma(self, shape, out):
        self.far = out
        self.rng.standard_gamma(shape, out=out)


@pytest.mark.parametrize("order,alpha", [(1, 3.5), (4, 3.5), (16, 3.5),
                                         (4, 2.2), (4, 6.0)])
def test_deli_far_field_matches_shot_noise_moments(monkeypatch, order,
                                                   alpha):
    t_k, trials = float(montecarlo._DELI_POINTS), 200_000
    mean, var = _far_field_moments(order, alpha, t_k)
    s = load_scenario(overrides={"nt_m": 1, "nr_e": order, "alpha1": alpha})

    # the oracle's draw at a fixed t_K, all trials in one chunk, one draw
    # block and one pass, so the stand-in holds every scaled draw.  Its
    # sample variance has a standard error of var * sqrt((kurtosis - 1) /
    # trials), the kurtosis of a Gamma(k) draw being 3 + 6 / k
    stand_in = _FixedDistanceChunk(t_k, np.random.default_rng(SEED))
    monkeypatch.setattr(montecarlo, "substream", lambda *key: stand_in)
    _draw_through_stand_ins(monkeypatch)
    monkeypatch.setattr(montecarlo, "_DELI_CHUNK", trials)
    monkeypatch.setattr(montecarlo, "_DELI_BLOCK", trials)
    estimate_deli_success(s, trials=trials, seed=SEED)
    far = stand_in.far
    assert far.shape == (trials,)
    k = mean * mean / var
    assert abs(far.mean() - mean) <= 4.0 * math.sqrt(var / trials)
    assert (abs(far.var(ddof=1) - var)
            <= 4.0 * var * math.sqrt((2.0 + 6.0 / k) / trials))

    # the formulas against a Poisson tail summed point by point: the
    # shot noise of the window (t_K, 8 t_K] has the mean and variance of
    # the tail beyond t_K less those of the tail beyond 8 t_K
    rng = np.random.default_rng(SEED + order)
    tails = 20_000
    points = int(7 * t_k + 12 * math.sqrt(7 * t_k))  # P(short) < 1e-24
    t = t_k + np.cumsum(rng.standard_exponential((tails, points)), axis=1)
    assert (t[:, -1] > 8 * t_k).all()
    shot = np.where(t <= 8 * t_k, rng.standard_gamma(order, t.shape)
                    * t ** (-alpha / 2.0), 0.0).sum(axis=1)
    window_mean, window_var = np.subtract(
        _far_field_moments(order, alpha, t_k),
        _far_field_moments(order, alpha, 8 * t_k))
    assert abs(shot.mean() - window_mean) <= 4.0 * shot.std() / math.sqrt(
        tails)
    fourth = ((shot - shot.mean()) ** 4).mean()
    assert (abs(shot.var(ddof=1) - window_var)
            <= 4.0 * math.sqrt((fourth - window_var ** 2) / tails))


@settings(max_examples=300, deadline=None)
@given(order=st.integers(1, MAX_GAIN_ORDER),
       alpha=st.floats(2.0, sys.float_info.max, exclude_min=True))
@example(order=1, alpha=math.nextafter(2.0, 3.0))
@example(order=MAX_GAIN_ORDER, alpha=math.nextafter(2.0, 3.0))
@example(order=1, alpha=sys.float_info.max)
@example(order=MAX_GAIN_ORDER, alpha=sys.float_info.max)
def test_deli_far_field_coefficients_finite_and_positive(order, alpha):
    # every gain order and path-loss exponent the scenario accepts
    s = load_scenario(overrides={"nt_m": 1, "nr_e": order, "alpha1": alpha})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coefficients = montecarlo._far_field_gamma(s.nt_m * s.nr_e, s.alpha1)
    assert all(math.isfinite(c) and c > 0.0 for c in coefficients)


def test_deli_oracle_names_noise_overflow():
    s = load_scenario(overrides={"alpha1": 1000})
    with pytest.raises(ScenarioError, match=r"^delivery stage: .*noise"):
        estimate_deli_success(s, trials=100, seed=SEED)


def test_kth_nearest_validates_args():
    with pytest.raises(ValueError):
        nearest_distances(1e-5, 0, 100)


def _mid_p_z(k, n, p):
    # the mid-p value of the smaller tail of Binomial(n, p) at k, its
    # terms summed one by one at 50 digits, through the inverse normal CDF
    with mpmath.workdps(50):
        p = mpmath.mpf(p)
        pmf = [mpmath.binomial(n, j) * p ** j * (1 - p) ** (n - j)
               for j in range(n + 1)]
        lower = mpmath.fsum(pmf[:k]) + pmf[k] / 2
        upper = mpmath.fsum(pmf[k + 1:]) + pmf[k] / 2
        z = mpmath.sqrt(2) * mpmath.erfinv(2 * min(lower, upper) - 1)
        return float(z if lower <= upper else -z)


@pytest.mark.parametrize("k,n,p", [
    (0, 50, 0.3), (50, 50, 0.3), (7, 50, 0.3), (31, 50, 0.3),
    (0, 1000, 1e-3), (4, 1000, 1e-3), (999, 1000, 1.0 - 8.27e-9),
    (1000, 1000, 1.0 - 8.27e-9), (400, 1000, 0.5), (1, 1, 0.25)])
def test_proportion_z_is_the_mid_p_binomial_z(k, n, p):
    est = McEstimate(mean=k / n, std_error=0.0, n_samples=n)
    assert proportion_z(est, p) == pytest.approx(_mid_p_z(k, n, p),
                                                 rel=1e-12, abs=1e-12)


def test_proportion_z_matches_the_scipy_z_on_the_grid():
    for n, p, k in binomial_grid():
        est = McEstimate(mean=k / n, std_error=0.0, n_samples=n)
        assert proportion_z(est, p) == pytest.approx(
            scipy_proportion_z(est, p), rel=0.0, abs=1e-9), (n, p, k)


def test_proportion_z_falls_back_to_the_normal_z():
    # an analytic value of 0 or 1 has no spread
    assert proportion_z(McEstimate(1.0, 0.0, 10), 1.0) == 0.0
    assert proportion_z(McEstimate(0.9, 0.1, 10), 1.0) == math.inf
    assert proportion_z(McEstimate(0.0, 0.0, 10), 0.0) == 0.0
    # a tail that underflows: 7850 successes in 20000 trials at 0.7956
    est = McEstimate(mean=7850 / 20000, std_error=0.0, n_samples=20000)
    normal = (est.mean - 0.7956) / math.sqrt(0.7956 * 0.2044 / 20000)
    assert proportion_z(est, 0.7956) == normal < -141.0


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1_000, 10 ** 9),
       q=st.floats(1e-9, 0.5),
       upper=st.booleans(),
       z_target=st.floats(-6.0, 6.0))
def test_mid_p_z_agrees_with_normal_z_where_the_spread_is_large(n, q, upper,
                                                                  z_target):
    # With sigma**2 = n p (1 - p), the Cornish-Fisher expansion of the
    # binomial's mid-p CDF at a count k gives the normal z of k less the
    # skewness term: z_mid = z - gamma (z**2 - 1) / 6 + O((1 + |z|**3) /
    # sigma**2), gamma = (1 - 2p) / sigma.  (The mid-p value cancels the
    # lattice term of order 1 / sigma.)  So |z_mid - z| is held to
    # |gamma| |z**2 - 1| / 6 + (1 + |z|**3) / (2 sigma**2); over sigma**2
    # >= 1000 and |z| <= 6 that is under 0.3, and a scan of 6e4
    # random draws put the second-order term below 0.1 (1 + |z|**3) /
    # sigma**2 for sigma**2 down to 100
    p = 1.0 - q if upper else q
    var = n * p * (1.0 - p)
    assume(var >= 1000.0)
    sigma = math.sqrt(var)
    k = min(max(round(n * p + z_target * sigma), 0), n)
    z = (k / n - p) / math.sqrt(p * (1.0 - p) / n)
    z_mid = proportion_z(McEstimate(k / n, 0.0, n), p)
    gamma = (1.0 - 2.0 * p) / sigma
    assert abs(z_mid - z) <= (abs(gamma) * abs(z * z - 1.0) / 6.0
                              + (1.0 + abs(z) ** 3) / (2.0 * var))


def test_uplink_oracle_agreement():
    s = load_scenario(overrides={"theta1_dbm": -60})
    est = estimate_uplink_success(s, trials=200_000, seed=SEED)
    assert abs(proportion_z(est, latency.uplink_success_prob(s))) <= 3.0


def test_uplink_oracle_rayleigh():
    s = load_scenario(overrides={"theta1_dbm": -70, "nt_u": 1, "nr_m": 1})
    est = estimate_uplink_success(s, trials=200_000, seed=SEED)
    assert abs(proportion_z(est, latency.uplink_success_prob(s))) <= 3.0


def test_uplink_oracle_trivial_threshold_is_exactly_one():
    s = load_scenario(overrides={"theta1": 1e-300})
    est = estimate_uplink_success(s, trials=50_000, seed=SEED)
    assert est.mean == 1.0 and est.std_error == 0.0


def test_access_oracle_agreement():
    s = load_scenario(overrides={"theta3_dbm": -5})
    est = estimate_access_success(s, trials=200_000, seed=SEED)
    assert abs(proportion_z(est, latency.access_success_prob(s))) <= 3.0


def test_deli_oracle_agreement():
    s = load_scenario()
    est = estimate_deli_success(s, trials=150_000, seed=SEED)
    assert abs(proportion_z(est, latency.deli_success_prob(s))) <= 3.0


def test_deli_oracle_rayleigh():
    s = load_scenario(overrides={"nt_m": 1, "nr_e": 1})
    est = estimate_deli_success(s, trials=150_000, seed=SEED)
    assert abs(proportion_z(est, latency.deli_success_prob(s))) <= 3.0


def test_shadowing_oracle_zero_margin():
    s = load_scenario(overrides={"theta4_dbm": 11})
    assert abs(multipath.mmwave_link_margin(s)) < 0.05
    est = estimate_shadowing_success(s, trials=200_000, seed=SEED)
    assert abs(proportion_z(est, multipath.mmwave_success_prob(s))) <= 3.0
    assert est.mean == pytest.approx(0.5, abs=0.01)


def test_shadowing_oracle_reference_point():
    # margin 5 dB over 5 dB spread: Phi(1)
    s = load_scenario(overrides={"theta4_dbm": 6})
    assert multipath.mmwave_link_margin(s) == pytest.approx(5.0, abs=0.02)
    est = estimate_shadowing_success(s, trials=200_000, seed=SEED)
    ref = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
    assert abs(proportion_z(est, ref)) <= 3.5


def test_shadowing_degenerate_spread():
    s = load_scenario(overrides={"sigma_db": 1e-12})
    est = estimate_shadowing_success(s, trials=10_000, seed=SEED)
    assert est.mean == 1.0


def test_standard_error_scales_inverse_sqrt():
    s = load_scenario(overrides={"theta1_dbm": -60})
    small = estimate_uplink_success(s, trials=50_000, seed=SEED)
    large = estimate_uplink_success(s, trials=200_000, seed=SEED)
    assert 1.8 <= small.std_error / large.std_error <= 2.2


def test_estimates_reproducible_bit_exact():
    s = load_scenario()
    for fn in (estimate_uplink_success, estimate_access_success,
               estimate_deli_success, estimate_shadowing_success):
        assert fn(s, trials=20_000, seed=SEED) == fn(s, trials=20_000,
                                                     seed=SEED)


def test_substream_independence():
    a = substream(SEED, 0).random(5)
    b = substream(SEED, 1).random(5)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, substream(SEED, 0).random(5))


def test_simulator_deterministic_unit_case():
    # certain per-slot success, one packet, one hop: exactly one slot.
    # At 4e-5 per m^2 the nearest source is 79 m out, within one hop.
    s = load_scenario(overrides={
        "lambda_e": 4e-5, "relay_coeff": 1e-18,
        "theta4_dbm": -110, "packet_l": 4096, "buffer_omega": 4096})
    assert multipath.build_plan(s, 1).hops.tolist() == [1.0]
    est = simulate_backhaul(s, SINGLE_PATH, trials=50, seed=SEED)
    assert est.mean == s.tau_mmw
    assert est.std_error == 0.0


def test_simulator_single_path_geometric_mean():
    # at 6e-6 per m^2 the nearest source is 204 m out: 3 hops
    s = load_scenario(overrides={"buffer_omega": 102400,  # 100 packets
                                 "lambda_e": 6e-6})
    assert multipath.build_plan(s, 1).hops.tolist() == [3.0]
    est = simulate_backhaul(s, SINGLE_PATH, trials=3000, seed=SEED)
    p = (multipath.relay_selection_prob(s.lambda_s, s.lambda_e, s.relay_coeff)
         * multipath.mmwave_success_prob(s))
    expected = 100 * 3 * s.tau_mmw / p
    assert abs(est.mean - expected) <= 3.0 * est.std_error


def test_simulator_slot_totals_follow_geometric_sums():
    # one path of 3 hops carrying 100 packets; the weak edge node makes
    # the first hop's per-slot success smaller than the relays'.  A
    # packet's hop takes Geometric(p) slots on {1, 2, ...}, so the path
    # total is a sum of 100 first-hop and 200 relay-hop geometric counts.
    s = load_scenario(overrides={"buffer_omega": 102400, "lambda_e": 6e-6,
                                 "p_e": 1e-10})
    assert multipath.build_plan(s, 1).hops.tolist() == [3.0]
    p1 = multipath.relay_selection_prob(s.lambda_s, s.lambda_e, s.relay_coeff)
    p_first = p1 * multipath.mmwave_success_prob(s, tx_power_w=s.p_e)
    p_relay = p1 * multipath.mmwave_success_prob(s)
    assert p_first < 0.7 * p_relay
    trials = 10_000

    # one trial per seed: the simulator's slot totals, sample by sample
    totals = np.round([simulate_backhaul(s, SINGLE_PATH, trials=1,
                                         seed=seed).mean / s.tau_mmw
                       for seed in range(trials)])
    rng = np.random.default_rng(SEED)
    explicit = (rng.geometric(p_first, size=(trials, 100)).sum(axis=1)
                + rng.geometric(p_relay, size=(trials, 200)).sum(axis=1))
    assert stats.ks_2samp(totals, explicit).pvalue >= 1e-3

    # exact cumulants of the sums: a Geometric(p) count has variance
    # q / p**2 and fourth cumulant q * (1 + 4q + q**2) / p**4, q = 1 - p
    def cumulants(n, p):
        q = 1.0 - p
        return n / p, n * q / p ** 2, n * q * (1 + 4 * q + q * q) / p ** 4

    mean, var, k4 = (a + b for a, b in zip(cumulants(100, p_first),
                                           cumulants(200, p_relay)))
    est = simulate_backhaul(s, SINGLE_PATH, trials=trials, seed=SEED)
    sample_var = (est.std_error / s.tau_mmw) ** 2 * trials
    assert abs(est.mean / s.tau_mmw - mean) <= 4.0 * math.sqrt(var / trials)
    var_se = math.sqrt(k4 / trials + 2.0 * var ** 2 / (trials - 1))
    assert abs(sample_var - var) <= 4.0 * var_se


def test_simulator_matches_integer_hop_closed_form():
    s = load_scenario()
    est = simulate_backhaul(s, trials=1200, seed=SEED)
    analytic = multipath.multipath_backhaul_delay(s, EXACT_CEIL)
    assert abs(est.mean - analytic) / analytic <= 0.05


def test_simulator_rejects_transfer_that_never_completes():
    # an edge node too weak for any first hop to succeed
    with pytest.raises(ValueError, match="never"):
        simulate_backhaul(load_scenario(overrides={"p_e": 1e-300}),
                          trials=10, seed=SEED)
    s = load_scenario()
    with pytest.raises(ValueError, match="scheme"):
        simulate_backhaul(s, "two-path", trials=10, seed=SEED)
    with pytest.raises(ValueError, match="trial"):
        simulate_backhaul(s, trials=0, seed=SEED)


@pytest.mark.parametrize("trials", [0, -5])
@pytest.mark.parametrize("oracle", [
    lambda s, n: nearest_distances(s.lambda_e, 2, n, SEED),
    lambda s, n: estimate_uplink_success(s, n, SEED),
    lambda s, n: estimate_access_success(s, n, SEED),
    lambda s, n: estimate_deli_success(s, n, SEED),
    lambda s, n: estimate_shadowing_success(s, n, SEED),
    lambda s, n: simulate_backhaul(s, trials=n, seed=SEED),
], ids=["nearest", "uplink", "access", "deli", "shadowing",
        "simulator"])
def test_oracles_reject_fewer_than_one_trial(monkeypatch, oracle, trials):
    # one named error before any draw, never a negative sample count, a
    # ZeroDivisionError or a "Mean of empty slice" warning
    monkeypatch.setattr(montecarlo, "substream", lambda *key: pytest.fail(
        "drew with fewer than one trial"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^need at least one trial$"):
            oracle(load_scenario(), trials)


def test_simulator_names_slot_count_overflow():
    # a first hop that succeeds once in ~4e16 slots: a path's hundreds of
    # crossings would take more slots than an int64 count holds, which
    # numpy's negative_binomial refuses, so the simulator names the stage
    s = load_scenario(overrides={"p_e": 6.6e-15})
    p_first = multipath.build_plan(s).p_first
    assert 0.0 < p_first < 1e-16
    with pytest.raises(ValueError, match=(
            rf"backhaul stage .* probability of {p_first:.6g}\b")):
        simulate_backhaul(s, trials=10, seed=SEED)


def test_simulator_reproducible():
    s = load_scenario()
    a = simulate_backhaul(s, trials=200, seed=SEED)
    b = simulate_backhaul(s, trials=200, seed=SEED)
    assert a == b


# serial references: each chunk (or path) in turn, in the calling thread


def _serial_deli_success(s, trials, seed):
    # the distances as one whole-chunk array; the gains substream in the
    # oracle's order, each draw block's gains and then its far-field draws;
    # returns the estimate and every trial's serving power and interference
    order = s.nt_m * s.nr_e
    alpha = s.alpha1
    half = alpha / 2.0
    noise = s.nt_m * s.n0 * s.w_mmw / s.p_m * (math.pi * s.lambda_m) ** -half
    far_shape, far_scale = _far_field_gamma(order, alpha)
    successes, signals, interferences = 0, [], []
    chunk, block = montecarlo._DELI_CHUNK, montecarlo._DELI_BLOCK
    for chunk_idx, start in enumerate(range(0, trials, chunk)):
        m = min(chunk, trials - start)
        t = _exponentials(substream(seed, 2, chunk_idx, 0),
                          np.empty((m, montecarlo._DELI_POINTS)))
        np.cumsum(t, axis=1, out=t)
        gains_rng = substream(seed, 2, chunk_idx, 1)
        power, far = np.empty_like(t), np.empty(m)
        for b in range(0, m, block):
            _gammas(gains_rng, order, power[b:b + block])
            far[b:b + block] = gains_rng.gamma(far_shape * t[b:b + block, -1])
        power *= np.power(t, -half, out=t)
        far *= far_scale * t[:, -1]
        interference = power[:, 1:].sum(axis=1) + far
        ok = power[:, 0] >= s.theta2 * (interference + noise)
        successes += int(np.count_nonzero(ok))
        signals.append(power[:, 0])
        interferences.append(interference)
    return (montecarlo._proportion_estimate(successes, trials),
            np.concatenate(signals), np.concatenate(interferences))


def _oracle_deli_terms(s, trials, seed):
    # the oracle's per-trial serving power and interference, chunk by
    # chunk and block by block
    signals, interferences = [], []
    chunk = montecarlo._DELI_CHUNK
    for chunk_idx, start in enumerate(range(0, trials, chunk)):
        for signal, interference in montecarlo._deli_blocks(
                s, seed, chunk_idx, min(chunk, trials - start)):
            signals.append(signal.copy())
            interferences.append(interference)
    return np.concatenate(signals), np.concatenate(interferences)


def _serial_simulate_backhaul(s, scheme, trials, seed):
    plan = multipath.build_plan(s, s.b_paths if scheme == MULTIPATH else 1)
    hops = plan.hops.astype(int)
    packets = multipath.split_packets(plan.shares,
                                      multipath.buffer_packets(s),
                                      "the simulator")
    slots = np.zeros((trials, plan.b), dtype=np.int64)
    for path in range(plan.b):
        rng = substream(seed, 4, path)
        n_first = int(packets[path])
        n_rest = int(packets[path]) * (int(hops[path]) - 1)
        if n_first:
            slots[:, path] += n_first + rng.negative_binomial(
                n_first, plan.p_first, size=trials)
        if n_rest:
            slots[:, path] += n_rest + rng.negative_binomial(
                n_rest, plan.p_relay, size=trials)
    worst = slots.max(axis=1)
    se = float(worst.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return McEstimate(mean=float(worst.mean()) * s.tau_mmw,
                      std_error=se * s.tau_mmw, n_samples=trials)


def _serial_nearest_distances(lam, k, trials, seed):
    # per chunk: its k rows of Exp(1) draws in turn, summed down the rows
    chunks, chunk = [], montecarlo._CHUNK
    for chunk_idx, start in enumerate(range(0, trials, chunk)):
        m = min(chunk, trials - start)
        rng = substream(seed, 0, chunk_idx)
        rows = np.cumsum([_exponentials(rng, np.empty(m)) for _ in range(k)],
                         axis=0)
        chunks.append(np.sqrt(rows / (math.pi * lam)))
    return np.concatenate(chunks, axis=1)


def _serial_threshold_successes(lam, order, threshold_scale, alpha, trials,
                                seed, family):
    # per chunk: its distances as one array, then its gains in blocks
    successes, chunk, block = 0, montecarlo._CHUNK, montecarlo._DRAW_BLOCK
    for chunk_idx, start in enumerate(range(0, trials, chunk)):
        m = min(chunk, trials - start)
        rng = substream(seed, family, chunk_idx)
        r_sq = _exponentials(rng, np.empty(m)) / (math.pi * lam)
        threshold = threshold_scale * r_sq ** (alpha / 2.0)
        gains = np.concatenate([
            _gammas(rng, order, np.empty(min(block, m - b)))
            for b in range(0, m, block)])
        successes += int(np.count_nonzero(gains >= threshold))
    return montecarlo._proportion_estimate(successes, trials)


@pytest.mark.parametrize("trials", [1, montecarlo._DRAW_BLOCK + 1,
                                    montecarlo._CHUNK + 1])
@pytest.mark.parametrize("overrides", [
    {"theta1_dbm": -60, "theta3_dbm": -5},
    {"theta1_dbm": -75, "theta3_dbm": -15, "nt_u": 1, "nr_m": 1,
     "nt_s": 1, "nr_u": 1},
    {"theta1_dbm": -55, "theta3_dbm": -2, "alpha2": 3.5, "nr_m": 8,
     "nr_u": 8}], ids=["order4", "order1", "order16"])
def test_threshold_oracles_equal_serial_reference(overrides, trials):
    s = load_scenario(overrides=overrides)
    uplink = _without_warnings(estimate_uplink_success, s, trials, SEED)
    assert uplink == _serial_threshold_successes(
        s.lambda_m, s.nt_u * s.nr_m, s.theta1 * s.nt_u / s.p_u, s.alpha1,
        trials, SEED, 1)
    access = _without_warnings(estimate_access_success, s, trials, SEED)
    assert access == _serial_threshold_successes(
        s.lambda_s, s.nt_s * s.nr_u, s.theta3 * s.nt_s / s.p_s, s.alpha2,
        trials, SEED, 6)


@pytest.mark.parametrize("k", [1, 3])
def test_nearest_distances_equal_serial_reference(monkeypatch, k):
    # thirty full chunks and a short last one of 17 trials
    monkeypatch.setattr(montecarlo, "_CHUNK", 1000)
    lam = load_scenario().lambda_e
    got = _without_warnings(nearest_distances, lam, k, 30_017, SEED)
    assert got.tobytes() == _serial_nearest_distances(
        lam, k, 30_017, SEED).tobytes()


def _without_warnings(fn, *args, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args, **kwargs)
    assert not caught, [str(w.message) for w in caught]
    return result


def _chunk_edges(chunk):
    return [1, 2, chunk - 1, chunk, chunk + 1, 3 * chunk + 17]


def _assert_deli_oracle_is_serial_reference(s, trials):
    # bit for bit per trial, not only the success count: a far-field draw
    # with the right mean and another variance flips few decisions
    est = _without_warnings(estimate_deli_success, s, trials, SEED)
    signal, interference = _without_warnings(_oracle_deli_terms, s, trials,
                                             SEED)
    ref_est, ref_signal, ref_interference = _serial_deli_success(s, trials,
                                                                 SEED)
    assert est == ref_est
    assert signal.tobytes() == ref_signal.tobytes()
    assert interference.tobytes() == ref_interference.tobytes()


@pytest.mark.parametrize("trials", _chunk_edges(DELI_CHUNK))
def test_deli_oracle_equals_serial_reference(trials):
    _assert_deli_oracle_is_serial_reference(load_scenario(), trials)


# gain orders 1, 4 (default) and 16, alpha1 at both ends of its range,
# and a noise-limited link (n0 = 4e-15 W/Hz halves the success probability)
DELI_MODELS = {
    "order1": {"nt_m": 1, "nr_e": 1},
    "order4": {},
    "order16": {"nt_m": 4, "nr_e": 4},
    "alpha2.001": {"alpha1": 2.001},
    "alpha6": {"alpha1": 6.0},
    "noisy": {"n0": 4e-15},
}
SMALL_DELI_CHUNK = 990
SMALL_DELI_BLOCK = 512  # two draw blocks per small chunk: 512 + 478


@pytest.mark.parametrize("trials", _chunk_edges(SMALL_DELI_CHUNK))
@pytest.mark.parametrize("model", DELI_MODELS)
def test_deli_oracle_equals_serial_reference_per_model(monkeypatch, model,
                                                       trials):
    # a small chunk puts every chunk edge within a few thousand trials;
    # test_deli_oracle_equals_serial_reference covers the oracle's own
    # draw block, and test_deli_pass_size_moves_no_bit its passes
    monkeypatch.setattr(montecarlo, "_DELI_CHUNK", SMALL_DELI_CHUNK)
    monkeypatch.setattr(montecarlo, "_DELI_BLOCK", SMALL_DELI_BLOCK)
    _assert_deli_oracle_is_serial_reference(
        load_scenario(overrides=DELI_MODELS[model]), trials)


@pytest.mark.parametrize("trials", _chunk_edges(DELI_CHUNK))
@pytest.mark.parametrize("blocks", [
    1, 3, 8, 24, -(-DELI_CHUNK // montecarlo._DELI_BLOCK)],
    ids=["1", "3", "8", "24", "chunk"])
def test_deli_pass_size_moves_no_bit(monkeypatch, blocks, trials):
    # the pass only sets how many rows one numpy call covers: the draw
    # block and the chunk fix every stream, so every pass size gives the
    # serial reference's estimate and terms, a whole chunk in one pass too
    monkeypatch.setattr(montecarlo, "_DELI_PASS", blocks)
    _assert_deli_oracle_is_serial_reference(load_scenario(), trials)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_simulator_equals_serial_reference(scheme):
    s = load_scenario()
    est = _without_warnings(simulate_backhaul, s, scheme, 500, SEED)
    assert est == _serial_simulate_backhaul(s, scheme, 500, SEED)


def _every_oracle(s):
    trials = 2 * montecarlo._CHUNK + 3
    return (nearest_distances(s.lambda_e, 2, trials, SEED)[-1].tolist(),
            estimate_uplink_success(s, trials, SEED),
            estimate_access_success(s, trials, SEED),
            estimate_shadowing_success(s, trials, SEED),
            estimate_deli_success(s, 2 * DELI_CHUNK + 5, SEED),
            simulate_backhaul(s, trials=300, seed=SEED))


def test_oracles_and_validate_start_no_thread(monkeypatch, capsys):
    # every chunk and simulator path draws in the calling thread
    threads = set()

    def recording_substream(*key):
        threads.add(threading.current_thread())
        return substream(*key)

    monkeypatch.setattr(montecarlo, "substream", recording_substream)
    before = threading.active_count()
    _without_warnings(_every_oracle, load_scenario())
    assert cli.main(["validate", "--trials", "2000"]) == 0
    capsys.readouterr()
    assert threading.active_count() == before
    assert threads == {threading.current_thread()}


def test_validate_never_imports_concurrent_futures():
    # a fresh interpreter: nothing else of the process has imported it
    src = str(pathlib.Path(montecarlo.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import os, sys, threading\n"
            "from mcrnet import cli\n"
            "assert cli.main(['validate', '--trials', '2000',"
            " '--out', os.devnull]) == 0\n"
            "print(threading.active_count(),"
            " 'concurrent.futures' in sys.modules)\n")
    result = subprocess.run([sys.executable, "-c", code],
                            env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "1 False\n"
