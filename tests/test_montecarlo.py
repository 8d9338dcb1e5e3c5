import math
import multiprocessing
import os
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import special, stats

from mcrnet import latency, montecarlo, multipath
from mcrnet.montecarlo import (McEstimate, estimate_access_success,
                               estimate_deli_success, estimate_kth_nearest,
                               estimate_shadowing_success,
                               estimate_uplink_success,
                               kth_nearest_distances, proportion_z,
                               simulate_backhaul, substream)
from mcrnet.multipath import EXACT_CEIL, MULTIPATH, SCHEMES, SINGLE_PATH
from mcrnet.scenario import ScenarioError, load_scenario

SEED = 1234
DELI_CHUNK = montecarlo._DELI_CHUNK


@pytest.mark.parametrize("k", [1, 2])
def test_kth_nearest_matches_closed_form(k):
    est = estimate_kth_nearest(1e-5, k, trials=100_000, seed=SEED)
    ref = multipath.mean_kth_edc_distance(1e-5, k)
    assert abs(est.z_score(ref)) <= 3.0


def test_kth_nearest_distribution_ks():
    lam, k = 1e-5, 2
    samples = kth_nearest_distances(lam, k, trials=100_000, seed=SEED)

    def cdf(r):
        return special.gammainc(k, lam * math.pi * r ** 2)

    d_stat = stats.kstest(samples, cdf).statistic
    assert d_stat < 0.01


def test_kth_nearest_reproducible():
    a = estimate_kth_nearest(1e-5, 3, trials=20_000, seed=SEED)
    b = estimate_kth_nearest(1e-5, 3, trials=20_000, seed=SEED)
    assert a == b


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
        ordered = kth_nearest_distances(lam, k, trials, seed=SEED + k)
        assert stats.ks_2samp(brute, ordered).pvalue > 1e-3, k


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


class _PairedDeliChunk:
    """Both substreams of one delivery chunk, drawn over the reference cells.

    The oracle receives the leading cells of each reference trial, and
    the reference decides the trial when the block's gains are served.
    A trial whose serving cell already loses to the interference of those
    leading cells and the noise fails whatever lies beyond them, so only
    the other trials draw their remaining REF_DELI_POINTS cells, from
    where the leading ones end.  The oracle's far-field Gamma draws come
    from the same generator.
    """

    def __init__(self, s, chunk_idx):
        self.s = s
        self.rng = np.random.default_rng([SEED, chunk_idx])
        self.successes = 0

    def standard_exponential(self, out):
        self.rng.standard_exponential(out=out)
        self.exp = out.copy()

    def standard_gamma(self, shape, out):
        self.rng.standard_gamma(shape, out=out)
        if out.ndim == 1:  # the far field beyond the oracle's cells
            return
        s, (n, k) = self.s, out.shape
        half = s.alpha1 / 2.0
        noise = (s.nt_m * s.n0 * s.w_mmw / s.p_m
                 * (math.pi * s.lambda_m) ** -half)
        power = out * np.cumsum(self.exp, axis=1) ** -half
        open_ = power[:, 0] >= s.theta2 * (power[:, 1:].sum(axis=1) + noise)
        rest = (int(np.count_nonzero(open_)), REF_DELI_POINTS - k)
        exp = np.hstack([self.exp[open_], self.rng.standard_exponential(rest)])
        gains = np.hstack([out[open_], self.rng.standard_gamma(shape, rest)])
        self.successes += _ref_deli_successes(s, np.cumsum(exp, axis=1),
                                              gains)


# gain orders 1, 4 (default) and 16, and alpha1 from a heavy far field
# (2.2) to a noise-limited link (6)
@pytest.mark.parametrize("overrides", [
    {"nt_m": 1, "nr_e": 1}, {}, {"nt_m": 4, "nr_e": 4},
    {"alpha1": 2.2}, {"alpha1": 2.5}, {"alpha1": 6.0}],
    ids=["order1", "order4", "order16", "alpha2.2", "alpha2.5", "alpha6"])
def test_deli_truncation_bias_against_reference_cells(monkeypatch,
                                                      overrides):
    # the oracle's cells are the leading cells of each reference trial,
    # so the two decisions differ only through the far field, which the
    # oracle draws independently of the reference's cells beyond its own.
    # 2e-4 is 0.4 of the standard error at 1e6 trials; the paired
    # difference has a standard deviation of about 0.08 per trial, so
    # 1.6e6 trials put its standard error near 6e-5
    s = load_scenario(overrides=overrides)
    trials = 1_600_000
    chunks = {}

    def paired_substream(seed, family, chunk_idx, stream):
        assert (seed, family) == (SEED, 2)
        return chunks.setdefault(chunk_idx, _PairedDeliChunk(s, chunk_idx))

    monkeypatch.setattr(montecarlo, "substream", paired_substream)
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

    def standard_exponential(self, out):
        out[:] = self.t_k / out.shape[1]

    def standard_gamma(self, shape, out):
        if out.ndim == 1:
            self.far = out
            self.rng.standard_gamma(shape, out=out)
        else:
            out[:] = 1.0


@pytest.mark.parametrize("order,alpha", [(1, 3.5), (4, 3.5), (16, 3.5),
                                         (4, 2.2), (4, 6.0)])
def test_deli_far_field_matches_shot_noise_moments(monkeypatch, order,
                                                   alpha):
    t_k, trials = 16.0, 200_000
    mean, var = _far_field_moments(order, alpha, t_k)
    s = load_scenario(overrides={"nt_m": 1, "nr_e": order, "alpha1": alpha})

    # the oracle's draw at a fixed t_K, all trials in one chunk and one
    # row block, so the stand-in holds every scaled draw.  Its
    # sample variance has a standard error of var * sqrt((kurtosis - 1) /
    # trials), the kurtosis of a Gamma(k) draw being 3 + 6 / k
    stand_in = _FixedDistanceChunk(t_k, np.random.default_rng(SEED))
    monkeypatch.setattr(montecarlo, "substream", lambda *key: stand_in)
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


def test_deli_oracle_names_noise_overflow():
    s = load_scenario(overrides={"alpha1": 1000})
    with pytest.raises(ScenarioError, match=r"^delivery stage: .*noise"):
        estimate_deli_success(s, trials=100, seed=SEED)


def test_kth_nearest_validates_args():
    with pytest.raises(ValueError):
        estimate_kth_nearest(1e-5, 0, 100)


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
    # oracle's order, each row block's gains and then its far-field draws;
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
        t = substream(seed, 2, chunk_idx, 0).standard_exponential(
            (m, montecarlo._DELI_POINTS))
        np.cumsum(t, axis=1, out=t)
        gains_rng = substream(seed, 2, chunk_idx, 1)
        power, far = np.empty_like(t), np.empty(m)
        for b in range(0, m, block):
            power[b:b + block] = gains_rng.gamma(
                order, size=power[b:b + block].shape)
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
    packets = montecarlo._split_packets(plan.shares,
                                        multipath.buffer_packets(s))
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
    delays = slots.max(axis=1) * s.tau_mmw
    se = float(delays.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return McEstimate(mean=float(delays.mean()), std_error=se,
                      n_samples=trials)


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
SMALL_DELI_CHUNK = 990  # two row blocks: 512 + 478


@pytest.mark.parametrize("trials", _chunk_edges(SMALL_DELI_CHUNK))
@pytest.mark.parametrize("model", DELI_MODELS)
def test_deli_oracle_equals_serial_reference_per_model(monkeypatch, model,
                                                       trials):
    # a small chunk puts every chunk edge within a few thousand trials
    monkeypatch.setattr(montecarlo, "_DELI_CHUNK", SMALL_DELI_CHUNK)
    _assert_deli_oracle_is_serial_reference(
        load_scenario(overrides=DELI_MODELS[model]), trials)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_simulator_equals_serial_reference(scheme):
    s = load_scenario()
    est = _without_warnings(simulate_backhaul, s, scheme, 500, SEED)
    assert est == _serial_simulate_backhaul(s, scheme, 500, SEED)


def _every_oracle(s):
    trials = 2 * montecarlo._CHUNK + 3
    return (kth_nearest_distances(s.lambda_e, 2, trials, SEED).tolist(),
            estimate_uplink_success(s, trials, SEED),
            estimate_access_success(s, trials, SEED),
            estimate_shadowing_success(s, trials, SEED),
            estimate_deli_success(s, 2 * DELI_CHUNK + 5, SEED),
            simulate_backhaul(s, trials=300, seed=SEED))


def test_one_worker_equals_pool(monkeypatch):
    s = load_scenario()
    threads = set()

    def recording_substream(*key):
        threads.add(threading.current_thread().name)
        return substream(*key)

    monkeypatch.setattr(montecarlo, "substream", recording_substream)
    monkeypatch.setattr(montecarlo, "_WORKERS", max(2, montecarlo._WORKERS))
    pooled = _without_warnings(_every_oracle, s)
    assert any(name.startswith("mcrnet-montecarlo") for name in threads)

    threads.clear()
    monkeypatch.setattr(montecarlo, "_WORKERS", 1)
    monkeypatch.setattr(montecarlo, "_pool", lambda: pytest.fail(
        "the pool was used with one worker"))
    assert _without_warnings(_every_oracle, s) == pooled
    assert threads == {threading.current_thread().name}


def test_oversubscribed_pool_equals_serial(monkeypatch):
    # far more workers than cores and a short switch interval, so tasks
    # interleave as much as they can; each writes only its own slice of
    # the distances or its own column of the simulator's slot counts
    s = load_scenario(overrides={"b_paths": 7})
    monkeypatch.setattr(montecarlo, "_CHUNK", 1000)
    monkeypatch.setattr(montecarlo, "_DELI_CHUNK", 495)

    def run():
        return (kth_nearest_distances(s.lambda_e, 3, 30_017, SEED).tolist(),
                estimate_deli_success(s, 3000, SEED),
                simulate_backhaul(s, trials=200, seed=SEED))

    monkeypatch.setattr(montecarlo, "_WORKERS", 1)
    serial = run()
    workers = 4 * (os.cpu_count() or 1)
    result = {}
    with ThreadPoolExecutor(max_workers=workers) as pool:
        monkeypatch.setattr(montecarlo, "_pool", lambda: pool)
        monkeypatch.setattr(montecarlo, "_WORKERS", workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller = threading.Thread(
                target=lambda: result.update(value=run()))
            caller.start()
            caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive()
    assert result["value"] == serial


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_forked_child_builds_its_own_pool(monkeypatch):
    # a child forked while the parent's pool runs has none of its workers
    monkeypatch.setattr(montecarlo, "_WORKERS", max(2, montecarlo._WORKERS))
    s = load_scenario()
    trials = 2 * montecarlo._CHUNK + 3
    expected = estimate_uplink_success(s, trials, SEED)

    def check():
        assert estimate_uplink_success(s, trials, SEED) == expected

    child = multiprocessing.get_context("fork").Process(target=check)
    child.start()
    child.join(timeout=60)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join()
    assert not hung
    assert child.exitcode == 0
