import json
import math

import numpy as np
import pytest
from scipy import special, stats

from mcrnet import latency, multipath
from mcrnet.montecarlo import (ChainDisconnectedError, SampledTopology,
                               TopologyError, estimate_access_success,
                               estimate_deli_success, estimate_kth_nearest,
                               estimate_shadowing_success,
                               estimate_uplink_success,
                               kth_nearest_distances, mean_distance_topology,
                               proportion_z, sample_ppp, sample_topology,
                               simulate_backhaul, substream)
from mcrnet.multipath import EXACT_CEIL, SINGLE_PATH
from mcrnet.scenario import load_scenario

SEED = 1234


def test_sample_ppp_empty_for_zero_density():
    assert sample_ppp(0.0, 100.0, seed=SEED).shape == (0, 2)


def test_sample_ppp_deterministic():
    a = sample_ppp(1e-4, 500.0, seed=SEED)
    b = sample_ppp(1e-4, 500.0, seed=SEED)
    assert np.array_equal(a, b)
    c = sample_ppp(1e-4, 500.0, seed=SEED + 1)
    assert not np.array_equal(a, c)


def test_sample_ppp_mean_count():
    lam, radius, trials = 2e-4, 300.0, 2000
    counts = [len(sample_ppp(lam, radius, seed=SEED + i))
              for i in range(trials)]
    expected = lam * math.pi * radius ** 2
    se = math.sqrt(expected / trials)
    assert abs(np.mean(counts) - expected) <= 3 * se


def test_sample_ppp_positions_inside_region():
    pts = sample_ppp(1e-4, 250.0, seed=SEED)
    assert (np.linalg.norm(pts, axis=1) <= 250.0).all()


def test_sample_topology_tiers():
    s = load_scenario()
    topo = sample_topology(s, seed=SEED)
    assert topo.region_radius == pytest.approx(5.0 / math.sqrt(s.lambda_m))
    assert topo.users.shape[1] == 2
    assert len(topo.sbs) > len(topo.mbs)
    assert topo.content_hash() == sample_topology(s, seed=SEED).content_hash()


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

    A Poisson point count and uniform positions, as in ``sample_ppp``;
    only squared distances from the centre matter, and a uniform point
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


def _single_hop_topology(s, distance):
    return SampledTopology(
        region_radius=1000.0,
        mbs=np.empty((0, 2)),
        sbs=np.array([[0.0, 0.0]]),
        edc=np.array([[distance, 0.0]]),
        users=np.array([[0.0, 1.0]]),
        densities=(s.lambda_m, s.lambda_s, s.lambda_e, s.lambda_u),
        seed=SEED)


def test_simulator_deterministic_unit_case():
    # certain per-slot success, one packet, one hop: exactly one slot
    s = load_scenario(overrides={
        "relay_coeff": 1e-18, "theta4_dbm": -110,
        "packet_l": 4096, "buffer_omega": 4096})
    topo = _single_hop_topology(s, 80.0)
    est = simulate_backhaul(s, topo, SINGLE_PATH, trials=50, seed=SEED)
    assert est.mean == s.tau_mmw
    assert est.std_error == 0.0


def test_simulator_single_path_geometric_mean():
    s = load_scenario(overrides={"buffer_omega": 102400})  # 100 packets
    topo = _single_hop_topology(s, 250.0)  # 3 hops
    topo = SampledTopology(  # place relays on the chain waypoints
        region_radius=topo.region_radius, mbs=topo.mbs,
        sbs=np.array([[0.0, 0.0], [250.0 / 3, 0.0], [500.0 / 3, 0.0]]),
        edc=topo.edc, users=topo.users, densities=topo.densities,
        seed=topo.seed)
    est = simulate_backhaul(s, topo, SINGLE_PATH, trials=3000, seed=SEED)
    p = (multipath.relay_selection_prob(s.lambda_s, s.lambda_e)
         * multipath.mmwave_success_prob(s))
    expected = 100 * 3 * s.tau_mmw / p
    assert abs(est.mean - expected) <= 3.0 * est.std_error


def test_simulator_matches_integer_hop_closed_form():
    s = load_scenario()
    topo = mean_distance_topology(s)
    est = simulate_backhaul(s, topo, trials=1200, seed=SEED)
    analytic = multipath.multipath_backhaul_delay(s, EXACT_CEIL)
    assert abs(est.mean - analytic) / analytic <= 0.05


def test_simulator_reproducible():
    s = load_scenario()
    topo = mean_distance_topology(s)
    a = simulate_backhaul(s, topo, trials=200, seed=SEED)
    b = simulate_backhaul(s, topo, trials=200, seed=SEED)
    assert a == b


def test_simulator_trace_output(tmp_path):
    s = load_scenario()
    topo = mean_distance_topology(s)
    trace = tmp_path / "trace.jsonl"
    est = simulate_backhaul(s, topo, trials=10, seed=SEED,
                            trace_path=str(trace))
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert len(records) == 10
    assert records[0]["topology"] == topo.content_hash()
    assert records[0]["seed"] == SEED
    assert len(records[0]["slots"]) == s.b_paths
    assert max(r["delay"] for r in records) >= est.mean


def test_simulator_disconnected_chain():
    s = load_scenario()
    # a source two hops out but no relay anywhere near the midpoint
    topo = SampledTopology(
        region_radius=1000.0,
        mbs=np.empty((0, 2)),
        sbs=np.array([[0.0, 0.0]]),
        edc=np.array([[190.0, 0.0]]),
        users=np.array([[0.0, 1.0]]),
        densities=(s.lambda_m, s.lambda_s, s.lambda_e, s.lambda_u),
        seed=SEED)
    with pytest.raises(ChainDisconnectedError):
        simulate_backhaul(s, topo, SINGLE_PATH, trials=10, seed=SEED)


def test_simulator_requires_enough_sources():
    s = load_scenario()
    topo = _single_hop_topology(s, 80.0)
    with pytest.raises(TopologyError):
        simulate_backhaul(s, topo, trials=10, seed=SEED)  # b_paths = 4
