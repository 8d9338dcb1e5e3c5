import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcrnet import multipath
from mcrnet.multipath import (CONTINUOUS, EXACT_CEIL, SINGLE_PATH,
                              InfeasiblePlanError, build_plan, buffer_packets,
                              continuous_backhaul_coeff,
                              continuous_backhaul_delay,
                              continuous_backhaul_density, delay_bounds,
                              density_bracket, max_cooperative_paths,
                              mean_kth_edc_distance, mmwave_link_margin,
                              mmwave_success_prob,
                              multipath_backhaul_delay, relay_selection_prob,
                              split_packets)
from mcrnet.scenario import load_scenario, min_edge_density, watt_to_dbm
from memos import clear_memos, misses
from oracles import integrate_semi_infinite, per_packet_path_delay

# frozen closed-form mean distances at lambda_e = 1e-5 per m^2
R_MEAN_1E5 = [158.11388300841892, 237.17082451262854, 296.4635306407855,
              345.8741190809165, 389.1083839660314]


def double_factorial_distance(lam, p):
    num = 1
    for i in range(2 * p - 1, 0, -2):
        num *= i
    return num / (math.gamma(p) * 2 ** p * math.sqrt(lam))


@pytest.mark.parametrize("p", range(1, 6))
def test_mean_distance_matches_double_factorial_form(p):
    got = mean_kth_edc_distance(1e-5, p)
    assert got == pytest.approx(double_factorial_distance(1e-5, p), rel=1e-12)
    assert got == pytest.approx(R_MEAN_1E5[p - 1], rel=1e-12)


def test_mean_distance_density_scaling():
    for p in (1, 3, 7):
        assert mean_kth_edc_distance(4e-5, p) == pytest.approx(
            mean_kth_edc_distance(1e-5, p) / 2.0, rel=1e-12)


@pytest.mark.parametrize("p", range(1, 9))
def test_mean_distance_matches_pdf_quadrature(p):
    lam = 1e-5

    def r_times_pdf(r):
        xi = lam * math.pi * r * r
        return math.exp(-xi) * 2.0 * xi ** p / math.gamma(p)

    mean = integrate_semi_infinite(r_times_pdf, 1e-12)
    assert mean_kth_edc_distance(lam, p) == pytest.approx(mean, rel=1e-8)


def test_mean_distance_rejects_bad_index():
    with pytest.raises(ValueError):
        mean_kth_edc_distance(1e-5, 0)


def test_relay_selection_values():
    assert relay_selection_prob(1e-5, 1e-5, 1.28) == pytest.approx(
        1 / 2.28, rel=1e-12)
    assert relay_selection_prob(5e-5, 1e-5, 1.28) == pytest.approx(
        1 / 7.4, rel=1e-12)
    assert relay_selection_prob(1e-12, 1e-5, 1.28) == pytest.approx(
        1.0, rel=1e-6)


def test_link_margin_constructed_cancellation():
    # choose the threshold so every dB term cancels
    s = load_scenario()
    cancel_dbm = (watt_to_dbm(s.p_s) - watt_to_dbm(s.n0 * s.w_mmw)
                  - 70.0 - 20.0 * math.log10(s.r_mmw))
    s0 = s.with_params(theta4=10 ** ((cancel_dbm - 30) / 10))
    assert mmwave_link_margin(s0) == pytest.approx(0.0, abs=1e-9)
    assert mmwave_success_prob(s0) == pytest.approx(0.5, abs=1e-9)


def test_link_margin_distance_slope():
    s = load_scenario()
    assert mmwave_link_margin(s.with_params(r_mmw=1000.0)) == pytest.approx(
        mmwave_link_margin(s) - 20.0, rel=1e-12)


def test_link_margin_independent_db_arithmetic():
    s = load_scenario()
    expected = (30.0 - (-90.0)
                - (10 * math.log10(s.n0 * s.w_mmw * 1e3))
                - 70.0 - 20.0 * math.log10(100.0))
    assert mmwave_link_margin(s) == pytest.approx(expected, rel=1e-12)


def test_success_prob_limits():
    s = load_scenario()
    assert mmwave_success_prob(s) == pytest.approx(1.0, abs=1e-15)
    f = mmwave_link_margin(s)
    expected = 0.5 * (1.0 + math.erf(f / (math.sqrt(2) * s.sigma_db)))
    assert mmwave_success_prob(s) == expected


def test_buffer_packets_default():
    assert buffer_packets(load_scenario()) == 1024


def test_plan_shares_normalised():
    s = load_scenario()
    for b in (1, 2, 4, 7):
        plan = build_plan(s, b=b)
        assert abs(plan.shares.sum() - 1.0) <= 1e-12
        assert (np.diff(plan.r) > 0).all()
    assert build_plan(s, b=1).shares.tolist() == [1.0]


def test_plan_infeasible_when_too_far():
    s = load_scenario()
    with pytest.raises(InfeasiblePlanError):
        build_plan(s, b=12, lambda_e=6e-6)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(b_paths=st.integers(1, 300), log_r_max=st.floats(0.0, 5.0),
       log_lambda_m=st.floats(-9.0, -3.0))
def test_plan_reaches_sparse_end_of_bracket_property(b_paths, log_r_max,
                                                     log_lambda_m):
    # Gautschi's inequality Gamma(b + 1/2) / Gamma(b) < sqrt(b) keeps every
    # plan's reach floor below b_paths / (pi r_max^2), so the sparse end
    # of the bracket needs no plan floor of its own
    r_max, lambda_m = 10.0 ** log_r_max, 10.0 ** log_lambda_m
    lambda_e = 2.0 * max(lambda_m, b_paths / (math.pi * r_max ** 2))
    s = load_scenario().with_params(
        b_paths=b_paths, r_max=r_max, lambda_m=lambda_m, lambda_e=lambda_e,
        lambda_s=10.0 * lambda_e)
    lo = min_edge_density(s)
    assert density_bracket(s) == (lo, s.lambda_s)
    for b in range(1, b_paths + 1):
        assert build_plan(s, b, lo).b == b


@pytest.mark.parametrize("mode", (CONTINUOUS, EXACT_CEIL))
def test_backhaul_delay_infeasible_below_reach_floor(mode):
    # the continuous delay builds no plan, yet refuses the same densities
    # with the same message
    s = load_scenario()
    with pytest.raises(InfeasiblePlanError) as plan_err:
        build_plan(s, b=12, lambda_e=6e-6)
    with pytest.raises(InfeasiblePlanError) as delay_err:
        multipath_backhaul_delay(s, mode, b=12, lambda_e=6e-6)
    assert str(delay_err.value) == str(plan_err.value)
    assert "exceeds r_max" in str(delay_err.value)


def test_continuous_delay_takes_a_density_array():
    # one entry per density with the bits of the scalar call; a density
    # below the plan's reach floor fails the array, named at the sparsest
    s = load_scenario()
    lams = np.array([1e-5, 6e-6, 4.9e-5])
    for b in (None, 1, 2, 4):
        delay = multipath_backhaul_delay(s, b=b, lambda_e=lams)
        assert delay.tolist() == [multipath_backhaul_delay(s, b=b, lambda_e=v)
                                  for v in lams.tolist()]
    with pytest.raises(InfeasiblePlanError) as scalar_err:
        multipath_backhaul_delay(s, b=12, lambda_e=6e-6)
    with pytest.raises(InfeasiblePlanError) as array_err:
        multipath_backhaul_delay(s, b=12, lambda_e=lams)
    assert str(array_err.value) == str(scalar_err.value)


def test_backhaul_delay_rejects_unknown_mode():
    with pytest.raises(ValueError, match="hop mode"):
        multipath_backhaul_delay(load_scenario(), "rounded")


def test_path_delay_modes_agree_on_integer_ratio():
    s = load_scenario()
    r_p = 2.0 * s.r_mmw
    cont = per_packet_path_delay(s, r_p, CONTINUOUS)
    exact = per_packet_path_delay(s, r_p, EXACT_CEIL)
    assert cont == pytest.approx(exact, rel=1e-12)
    p1 = relay_selection_prob(s.lambda_s, s.lambda_e, s.relay_coeff)
    p2 = mmwave_success_prob(s)
    assert cont == pytest.approx(2.0 * s.tau_mmw / (p1 * p2), rel=1e-12)


def test_path_delay_ceil_vs_continuous_hops():
    s = load_scenario()
    r_p = 237.17
    p1 = relay_selection_prob(s.lambda_s, s.lambda_e, s.relay_coeff)
    p2 = mmwave_success_prob(s)
    assert per_packet_path_delay(s, r_p, EXACT_CEIL) == pytest.approx(
        3 * s.tau_mmw / (p1 * p2), rel=1e-12)
    assert per_packet_path_delay(s, r_p, CONTINUOUS) == pytest.approx(
        2.3717 * s.tau_mmw / (p1 * p2), rel=1e-4)


def test_path_delay_edc_power_split():
    # hop one runs at the source's own power; only exact-ceil mode sees it
    s = load_scenario(overrides={"p_e_dbm": 20, "theta4_dbm": 9})
    p1 = relay_selection_prob(s.lambda_s, s.lambda_e, s.relay_coeff)
    p2_sbs = mmwave_success_prob(s)
    p2_edc = mmwave_success_prob(s, tx_power_w=s.p_e)
    assert p2_edc < p2_sbs
    got = per_packet_path_delay(s, 250.0, EXACT_CEIL)
    expected = s.tau_mmw * (1 / (p1 * p2_edc) + 2 / (p1 * p2_sbs))
    assert got == pytest.approx(expected, rel=1e-12)
    # the plan carries both per-slot probabilities; at 6e-6 per m^2 the
    # nearest source is 204 m out, three hops
    lam = 6e-6
    p1 = relay_selection_prob(s.lambda_s, lam, s.relay_coeff)
    plan = build_plan(s, b=1, lambda_e=lam)
    assert plan.hops.tolist() == [3.0]
    assert (plan.p_first, plan.p_relay) == (p1 * p2_edc, p1 * p2_sbs)
    assert multipath_backhaul_delay(s, EXACT_CEIL, b=1, lambda_e=lam) == \
        pytest.approx(buffer_packets(s) * s.tau_mmw
                      * (1 / (p1 * p2_edc) + 2 / (p1 * p2_sbs)), rel=1e-14)


def test_backhaul_single_path_is_b_equal_one():
    # the single-path scheme is the one-source plan of the scenario
    s = load_scenario()
    assert multipath.path_count(s, SINGLE_PATH) == 1
    assert multipath_backhaul_delay(s, b=1) == multipath_backhaul_delay(
        s.with_params(b_paths=1))


def test_backhaul_decreases_with_paths():
    s = load_scenario()
    delays = [multipath_backhaul_delay(s, b=b) for b in (1, 2, 4, 6)]
    assert all(b < a for a, b in zip(delays, delays[1:]))
    assert all(multipath_backhaul_delay(s, b=1) >= d for d in delays)


def test_backhaul_closed_form_value():
    # direct arithmetic recomputation of the closed form at defaults
    s = load_scenario()
    inv_sum = sum(1.0 / r for r in R_MEAN_1E5[:4])
    f = mmwave_link_margin(s)
    expected = (1024 / inv_sum) * 2 * s.tau_mmw * (1 + 1.28 * 5.0) / (
        100.0 * (1 + math.erf(f / (math.sqrt(2) * 5.0))))
    assert multipath_backhaul_delay(s) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("b", (1, 2, 4, 9, 16))
@pytest.mark.parametrize("lam", (5.5e-6, 1e-5, 3.3e-5))
def test_coefficient_form_equals_per_path_sum(b, lam):
    # the density enters only through 1/sqrt(lam): A(s, b) times that
    # factor is the per-path form with the mean distances of build_plan
    s = load_scenario().with_params(r_max=2000.0)
    plan = build_plan(s, b=b, lambda_e=lam)
    f = mmwave_link_margin(s)
    coverage = 1.0 + s.relay_coeff * s.lambda_s / lam
    per_path = (buffer_packets(s) / (1.0 / plan.r).sum()
                * 2.0 * s.tau_mmw * coverage
                / (s.r_mmw * (1.0 + math.erf(f / (math.sqrt(2.0)
                                                  * s.sigma_db)))))
    via_coeff = continuous_backhaul_coeff(s, b) * coverage / math.sqrt(lam)
    assert via_coeff == pytest.approx(per_path, rel=1e-14)
    assert multipath_backhaul_delay(s, b=b, lambda_e=lam) == via_coeff


def test_per_path_totals_equalised_in_continuous_mode():
    s = load_scenario()
    packets = buffer_packets(s)
    for b, lam in ((2, 7e-6), (2, 3e-5), (4, 1e-5), (4, 3e-5), (8, 1.2e-5),
                   (8, 3e-5)):
        plan = build_plan(s, b=b, lambda_e=lam)
        totals = [plan.shares[p] * packets * per_packet_path_delay(
            s, plan.r[p], CONTINUOUS, lambda_e=lam)
            for p in range(b)]
        spread = (max(totals) - min(totals)) / max(totals)
        assert spread <= 1e-12
        assert multipath_backhaul_delay(s, b=b, lambda_e=lam) == \
            pytest.approx(totals[0], rel=1e-12)


def _whole_packets(shares, total):
    # Hamilton's method in Python: each path's floor, then one more packet
    # for each of the largest remainders, the first path winning a tie
    raw = [share * total for share in shares.tolist()]
    counts = [math.floor(x) for x in raw]
    by_remainder = sorted(range(len(raw)), key=lambda p: counts[p] - raw[p])
    for p in by_remainder[:total - sum(counts)]:
        counts[p] += 1
    return counts


@pytest.mark.parametrize("shares,total,counts", [
    ([0.5, 0.3, 0.2], 10, [5, 3, 2]), ([0.5, 0.3, 0.2], 1, [1, 0, 0]),
    ([0.4, 0.35, 0.25], 3, [1, 1, 1]), ([0.25] * 4, 2, [1, 1, 0, 0]),
    ([0.45, 0.3, 0.25], 7, [3, 2, 2])])
def test_split_packets_by_largest_remainders(shares, total, counts):
    got = split_packets(np.array(shares), total, "the simulator")
    assert got.tolist() == counts == _whole_packets(np.array(shares), total)


@pytest.mark.parametrize("overrides", [{"buffer_omega_mb": 1e300},
                                       {"packet_l": 1e-300}])
def test_integer_hop_delay_names_its_model_at_an_int64_packet_count(
        overrides):
    # the closed form sends the simulator's whole packets, so it refuses
    # the same counts, but in its own name
    s = load_scenario(overrides=overrides)
    with pytest.raises(ValueError) as err:
        multipath_backhaul_delay(s, EXACT_CEIL)
    assert str(err.value) == (
        f"backhaul stage can never complete in the integer-hop model: a "
        f"buffer of {buffer_packets(s):.6g} packets needs more packets on "
        f"a path than an int64 count holds")


def test_backhaul_exact_ceil_is_max_over_paths():
    # each path sends its whole packets, as the simulator does
    s = load_scenario()
    plan = build_plan(s)
    packets = _whole_packets(plan.shares, buffer_packets(s))
    assert sum(packets) == buffer_packets(s)
    per_path = [packets[p] * per_packet_path_delay(
        s, plan.r[p], EXACT_CEIL) for p in range(plan.b)]
    assert multipath_backhaul_delay(s, EXACT_CEIL) == pytest.approx(
        max(per_path), rel=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(b_paths=st.integers(1, 16), log_lambda_e=st.floats(
           math.log10(6e-6), math.log10(4.9e-5)),
       r_max_scale=st.floats(1.001, 4.0), r_mmw=st.floats(20.0, 400.0),
       p_e_dbm=st.floats(5.0, 40.0), theta4_dbm=st.floats(-95.0, 15.0))
def test_exact_ceil_delay_equals_per_path_reference_property(
        b_paths, log_lambda_e, r_max_scale, r_mmw, p_e_dbm, theta4_dbm):
    # the array expression over the plan against the scalar per-path
    # reference, with the edge node's own power on every first hop
    lam = 10.0 ** log_lambda_e
    s = load_scenario(overrides={
        "b_paths": b_paths, "lambda_e": lam, "r_mmw": r_mmw,
        "r_max": r_max_scale * math.sqrt(b_paths / (math.pi * lam)),
        "p_e_dbm": p_e_dbm, "theta4_dbm": theta4_dbm})
    plan = build_plan(s)
    p1 = relay_selection_prob(s.lambda_s, lam, s.relay_coeff)
    assert plan.p_first == p1 * mmwave_success_prob(s, tx_power_w=s.p_e)
    assert plan.p_relay == p1 * mmwave_success_prob(s)
    assert plan.hops.tolist() == [math.ceil(r / r_mmw) for r in plan.r]
    packets = _whole_packets(plan.shares, buffer_packets(s))
    reference = max(packets[p]
                    * per_packet_path_delay(s, plan.r[p], EXACT_CEIL)
                    for p in range(b_paths))
    assert multipath_backhaul_delay(s, EXACT_CEIL) == pytest.approx(
        reference, rel=1e-14)


def test_backhaul_monotone_trends():
    s = load_scenario()
    # decreasing in edge density
    lams = [6e-6, 8e-6, 1e-5, 2e-5, 4e-5]
    d_lam = [multipath_backhaul_delay(s, lambda_e=lam) for lam in lams]
    assert all(b < a for a, b in zip(d_lam, d_lam[1:]))
    # decreasing in hop range
    d_hop = [multipath_backhaul_delay(s.with_params(r_mmw=r))
             for r in (50.0, 100.0, 150.0, 200.0)]
    assert all(b < a for a, b in zip(d_hop, d_hop[1:]))
    # increasing in buffer size
    d_buf = [multipath_backhaul_delay(s.with_params(buffer_omega=o * 2.0 ** 20))
             for o in (0.5, 1.0, 2.0, 4.0)]
    assert all(b > a for a, b in zip(d_buf, d_buf[1:]))
    # increasing in small-cell density
    d_sbs = [multipath_backhaul_delay(s.with_params(lambda_s=v * 1e-6))
             for v in (20.0, 50.0, 80.0, 120.0)]
    assert all(b > a for a, b in zip(d_sbs, d_sbs[1:]))


def test_backhaul_gain_shrinks_with_density():
    s = load_scenario()
    gains = [multipath_backhaul_delay(s, b=1, lambda_e=lam)
             - multipath_backhaul_delay(s, lambda_e=lam)
             for lam in (6e-6, 1e-5, 2e-5, 4e-5)]
    assert all(g > 0 for g in gains)
    assert all(b < a for a, b in zip(gains, gains[1:]))


def test_max_cooperative_paths():
    assert max_cooperative_paths(1e-5, 500.0) == 7
    assert max_cooperative_paths(1e-7, 100.0) == 1


def test_bounds_bracket_default():
    s = load_scenario()
    lower, upper = delay_bounds(s)
    d = multipath_backhaul_delay(s)
    assert lower < d < upper


def test_bounds_tighten_towards_dense_limit():
    # the lower-bound chain becomes tight as the edge density approaches
    # the small-cell density
    s = load_scenario()
    lower, _ = delay_bounds(s)
    packets = buffer_packets(s)
    f = mmwave_link_margin(s)
    erf_term = 1.0 + math.erf(f / (math.sqrt(2) * s.sigma_db))
    gaps = []
    for lam in (2e-5, 3e-5, 4.5e-5, 4.99e-5):
        step = (packets / (lam * math.pi * s.r_max ** 2 * math.sqrt(lam))
                * s.tau_mmw * (1 + s.relay_coeff * s.lambda_s / lam)
                / (s.r_mmw * erf_term))
        gaps.append(step - lower)
    assert all(g > 0 for g in gaps)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.05 * lower


# edge densities over two decades above the default macro density 5e-6
LOG_LAMBDA_E = st.floats(math.log10(6e-6), math.log10(6e-4))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(b_paths=st.integers(1, 16), log_lams=st.lists(
           LOG_LAMBDA_E, min_size=2, max_size=2, unique=True),
       s_over_e=st.floats(1.01, 10.0), r_max_scale=st.floats(1.001, 4.0))
def test_continuous_delay_decreasing_and_bounded_property(
        b_paths, log_lams, s_over_e, r_max_scale):
    lam_lo, lam_hi = sorted(10.0 ** x for x in log_lams)
    # r_max just above the smallest the sparser density accepts for b_paths
    s = load_scenario().with_params(
        b_paths=b_paths, lambda_e=lam_lo, lambda_s=s_over_e * lam_hi,
        r_max=r_max_scale * math.sqrt(b_paths / (math.pi * lam_lo)))
    d_lo = multipath_backhaul_delay(s)
    d_hi = multipath_backhaul_delay(s, lambda_e=lam_hi)
    assert d_hi < d_lo
    if b_paths > 1:  # delay_bounds needs more than one path
        for lam, d in ((lam_lo, d_lo), (lam_hi, d_hi)):
            lower, upper = delay_bounds(s.with_params(lambda_e=lam))
            assert lower < d < upper


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(log_lambda_s=st.floats(-4.5, 250.0), log_ratio=st.floats(-12.0, 0.0),
       b=st.integers(1, 16))
def test_continuous_density_inverts_delay_property(log_lambda_s, log_ratio,
                                                   b):
    # the closed-form inverse returns the density whose delay it is given,
    # for densities up to lambda_s at any scale of lambda_s (the same cubic
    # written in sqrt(lambda_e) overflows from lambda_s ~ 1e200 upwards)
    s = load_scenario(overrides={"lambda_s": 10.0 ** log_lambda_s})
    lam = s.lambda_s * 10.0 ** log_ratio
    delay = continuous_backhaul_delay(s, lam, b)
    assert continuous_backhaul_density(s, delay, b) == pytest.approx(
        lam, rel=1e-13)
    lams = np.array([lam, s.lambda_s])
    assert continuous_backhaul_density(
        s, continuous_backhaul_delay(s, lams, b), b) == pytest.approx(
            lams, rel=1e-13)


def test_bounds_preconditions():
    s = load_scenario()
    with pytest.raises(ValueError, match="b_paths"):
        delay_bounds(s.with_params(b_paths=1))


@pytest.mark.parametrize("b", [1, 4, 16, 1000])
def test_path_sum_matches_mpmath(b):
    # the sum of S_b's terms stays within 9e-16 relative at b = 1000,
    # where the Gamma-ratio closed form 2 sqrt(pi) Gamma(b + 1) /
    # Gamma(b + 1/2) - 2 is 6.5e-13 off
    with mpmath.workdps(40):
        ref = float(mpmath.fsum(
            mpmath.sqrt(mpmath.pi) * mpmath.gamma(p)
            / mpmath.gamma(p + mpmath.mpf(1) / 2) for p in range(1, b + 1)))
    assert abs(multipath._path_sum(b) - ref) <= 2e-15 * ref


def test_path_sum_is_memoised_on_the_path_count():
    s = load_scenario()
    clear_memos()
    coeffs = [continuous_backhaul_coeff(scen, b)
              for scen in (s, s.with_params(tau_mmw=2e-5))
              for b in (4, 1, 4, 1)]
    assert misses(multipath._path_sum) == 2
    assert coeffs[0] == coeffs[2] and coeffs[1] == coeffs[3]
    assert coeffs[4] == pytest.approx(4.0 * coeffs[0], rel=1e-15)


POSITIVE = st.floats(min_value=1e-18, max_value=1e6)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(tx=POSITIVE, theta4=POSITIVE, n0=POSITIVE, w_mmw=POSITIVE,
       r_mmw=POSITIVE, sigma_db=st.floats(min_value=1e-3, max_value=50.0))
def test_memoised_mmwave_success_equals_uncached_property(
        tx, theta4, n0, w_mmw, r_mmw, sigma_db):
    # a probability at any link margin, the far tails included; the link
    # reads only these fields, so no scenario constraint narrows them
    link = SimpleNamespace(p_s=tx, theta4=theta4, n0=n0, w_mmw=w_mmw,
                           r_mmw=r_mmw, sigma_db=sigma_db)
    assert 0.0 <= mmwave_success_prob(link) <= 1.0
