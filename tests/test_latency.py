import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcrnet import latency
from mcrnet.cli import TARGETS, main
from mcrnet.latency import (DelayBreakdown, LatencyError, access_delay,
                            access_success_prob, deli_delay,
                            deli_success_prob, fiber_delay, sinr_recursion,
                            total_latency, uplink_delay_parts,
                            uplink_request_delay, uplink_success_prob)
from mcrnet.numerics import DEFAULT_QUADRATURE, NumericsError, QuadratureSpec
from mcrnet.scenario import load_scenario

# frozen module outputs at the documented defaults (regression guards)
DELI_RHO_DEFAULT = 0.5282701969743324
UPLINK_RHO_60DBM = 0.6957995583777764


def gamma_tail_sum(order, x):
    # explicit finite sum: exp(-x) * sum_{t<order} x^t / t!
    return math.exp(-x) * sum(x ** t / math.factorial(t)
                              for t in range(order))


def brute_force_nearest_success(lam, order, scale, alpha, n_grid=400_000,
                                r_max=None):
    # independent oracle: flat trapezoid grid over the distance integrand
    r_max = r_max if r_max else 12.0 / math.sqrt(lam)
    r = np.linspace(1e-9, r_max, n_grid)
    pdf = 2.0 * math.pi * lam * r * np.exp(-lam * math.pi * r ** 2)
    tail = np.array([gamma_tail_sum(order, scale * ri ** alpha) for ri in
                     r[:: max(1, n_grid // 4000)]])
    # evaluate the tail on the decimated grid, interpolate back
    r_dec = r[:: max(1, n_grid // 4000)]
    tail_full = np.interp(r, r_dec, tail)
    return float(np.trapezoid(pdf * tail_full, r))


def test_uplink_trivial_threshold():
    s = load_scenario(overrides={"theta1": 1e-30})
    assert uplink_success_prob(s) == pytest.approx(1.0, abs=1e-9)


def test_uplink_matches_brute_force_quadrature():
    s = load_scenario(overrides={"theta1_dbm": -60})
    rho = uplink_success_prob(s)
    assert rho == pytest.approx(UPLINK_RHO_60DBM, rel=1e-10)
    brute = brute_force_nearest_success(
        s.lambda_m, s.nt_u * s.nr_m, s.theta1 * s.nt_u / s.p_u, s.alpha1)
    assert rho == pytest.approx(brute, rel=2e-4)


def test_uplink_rayleigh_reduction():
    # order 1: the tail is a bare exponential; closed-form alpha=2 case
    s = load_scenario(overrides={"theta1_dbm": -70, "nt_u": 1, "nr_m": 1,
                                 "alpha1": 2.0000001})
    rho = uplink_success_prob(s)
    # for alpha=2 exactly: integral of exp(-(c + lam pi) r^2) * 2 pi lam r dr
    c = s.theta1 * s.nt_u / s.p_u
    closed = s.lambda_m * math.pi / (c + s.lambda_m * math.pi)
    assert rho == pytest.approx(closed, rel=1e-4)


def test_uplink_order_one_equals_exponential_special_case():
    # the general gamma-tail path at order 1 must agree with an
    # exponential-only evaluation of the same average to 1e-8
    from mcrnet.numerics import integrate_semi_infinite

    s = load_scenario(overrides={"theta1_dbm": -65, "nt_u": 1, "nr_m": 1})
    c = s.theta1 * s.nt_u / s.p_u
    area = s.lambda_m * math.pi

    def rayleigh_integrand(xi):
        return math.exp(-xi - c * (xi / area) ** (s.alpha1 / 2.0))

    special = integrate_semi_infinite(rayleigh_integrand, 0.0)
    assert uplink_success_prob(s) == pytest.approx(special, rel=1e-8)


def test_uplink_request_delay_queue_term():
    s = load_scenario()
    tx, queue = uplink_delay_parts(s)
    assert queue == pytest.approx(1.0 / (1.05e4 - 5e7 * 2e-4), rel=1e-12)
    assert queue == pytest.approx(2e-3, rel=1e-12)
    rho = uplink_success_prob(s)
    assert tx == pytest.approx(s.t_ul_req / rho, rel=1e-12)
    assert uplink_request_delay(s) == pytest.approx(tx + queue, rel=1e-12)


def test_uplink_delay_instability_error():
    # the scenario constructor forbids unstable queues; the delay op keeps
    # its own guard for duck-typed inputs
    from types import SimpleNamespace

    bad = SimpleNamespace(mu=1e3, chi=5e7, lambda_u=2e-4)
    with pytest.raises(LatencyError, match="unstable"):
        uplink_delay_parts(bad)


def test_retransmission_scaling():
    s = load_scenario()
    rho = deli_success_prob(s)
    assert deli_delay(s) == pytest.approx(s.t_dl_deli / rho, rel=1e-12)
    rho_a = access_success_prob(s)
    assert access_delay(s) == pytest.approx(s.t_dl_as / rho_a, rel=1e-12)


def test_sinr_recursion_order_one_has_empty_correction():
    state = sinr_recursion(1, 1.0, 3.5, 5e-6, 250.0)
    assert state.x.shape == (1,)
    assert state.correction_sum() == 0.0
    assert state.g.shape == (1, 1) and state.g[0, 0] == 0.0


def test_sinr_recursion_k0_vanishes_with_threshold():
    state = sinr_recursion(2, 1e-9, 3.5, 5e-6, 250.0)
    assert state.k[0] < 1e-5


def test_k0_small_threshold_limit():
    # 1 - (1 + theta u^-a)^-order = order theta u^-a + O(theta^2), so
    # k_0 -> order theta / (alpha / 2 - 1); the unscaled integral over
    # [theta^(-2/alpha), inf) fell back to truncation here
    order, theta, alpha = 2, 1e-9, 3.5
    state = sinr_recursion(order, theta, alpha, 5e-6, 250.0)
    assert state.k[0] == pytest.approx(
        order * theta / (alpha / 2.0 - 1.0), rel=1e-6)


def test_sinr_recursion_coefficients_match_fixed_grid():
    # independent oracle: trapezoid integration on a huge flat grid
    theta, alpha, order = 1.0, 4.0, 2
    state = sinr_recursion(order, theta, alpha, 5e-6, 250.0)
    v = np.linspace(1.0, 4000.0, 4_000_000)
    base = 1.0 - (1.0 + v ** -2.0) ** -order
    k0_grid = float(np.trapezoid(base, v))
    # analytic tail beyond the grid: integrand ~ order * v^-2
    k0_tail = order / v[-1]
    assert state.k[0] == pytest.approx(k0_grid + k0_tail, rel=1e-5)
    k1_int = (1.0 + v ** 2.0) ** -1.0 * (1.0 + v ** -2.0) ** -order
    k1_grid = float(np.trapezoid(k1_int, v))
    k1_tail = 1.0 / v[-1]
    assert state.k[1] == pytest.approx(k1_grid + k1_tail, rel=1e-5)


def test_sinr_recursion_matrix_shape_and_triangularity():
    state = sinr_recursion(4, 1.0, 3.5, 5e-6, 300.0)
    assert state.k.shape == (5,)
    assert state.y.shape == (4,)
    assert state.g.shape == (4, 4)
    assert np.allclose(np.triu(state.g), 0.0)
    assert np.isfinite(state.x).all()


def test_deli_trivial_threshold():
    s = load_scenario(overrides={"theta2": 1e-12})
    assert deli_success_prob(s) == pytest.approx(1.0, abs=1e-6)


def test_deli_rayleigh_case_closed_form():
    s = load_scenario(overrides={"nt_m": 1, "nr_e": 1})
    state = sinr_recursion(1, s.theta2, s.alpha1, s.lambda_m, 1.0)
    assert deli_success_prob(s) == pytest.approx(
        1.0 / (1.0 + state.k[0]), rel=1e-9)


def test_deli_quadrature_matches_moment_closed_form():
    # the outer integral has an exact factorial-moment evaluation; the
    # quadrature path must reproduce it
    from mcrnet.latency import _correction_poly, _interference_coefficients
    from mcrnet.numerics import DEFAULT_QUADRATURE

    s = load_scenario()
    order = s.nt_m * s.nr_e
    k = _interference_coefficients(order, s.theta2, s.alpha1,
                                   DEFAULT_QUADRATURE)
    a = _correction_poly(order, k)
    closed = 1.0 / (1.0 + k[0])
    for t in range(1, order):
        closed += a[t] * math.factorial(t) / (1.0 + k[0]) ** (t + 1)
    rho = deli_success_prob(s)
    assert rho == pytest.approx(closed, rel=1e-9)
    assert rho == pytest.approx(DELI_RHO_DEFAULT, rel=1e-10)


def test_access_trivial_threshold():
    s = load_scenario(overrides={"theta3": 1e-30})
    assert access_success_prob(s) == pytest.approx(1.0, abs=1e-9)
    assert access_delay(s) == pytest.approx(s.t_dl_as, rel=1e-9)


def test_access_matches_brute_force_quadrature():
    s = load_scenario(overrides={"theta3_dbm": -10})
    brute = brute_force_nearest_success(
        s.lambda_s, s.nt_s * s.nr_u, s.theta3 * s.nt_s / s.p_s, s.alpha2)
    assert access_success_prob(s) == pytest.approx(brute, rel=2e-4)


def test_fiber_delay_value_and_linearity():
    s = load_scenario()
    assert fiber_delay(s) == pytest.approx(0.01, rel=1e-15)
    assert fiber_delay(s.with_params(l_fiber=2e6)) == pytest.approx(
        2.0 * fiber_delay(s), rel=1e-15)
    assert fiber_delay(s.with_params(l_fiber=0.0)) == 0.0


def test_total_latency_breakdown():
    s = load_scenario()
    d = total_latency(s, p_hit=0.6, d_bh=3e-3)
    assert isinstance(d, DelayBreakdown)
    parts = (d.d_ul_req_tx + d.d_ul_req_queue + d.d_dl_deli + d.d_dl_bh
             + d.d_dl_as + d.d_fiber_term)
    assert d.total == pytest.approx(parts, rel=1e-12)
    assert d.d_fiber_term == pytest.approx(0.01 * 0.4, rel=1e-12)
    assert d.d_dl_bh == 3e-3


def test_total_latency_hit_branches():
    s = load_scenario()
    assert total_latency(s, 1.0, 0.0).d_fiber_term == 0.0
    assert total_latency(s, 0.0, 0.0).d_fiber_term == pytest.approx(
        fiber_delay(s), rel=1e-15)
    with pytest.raises(ValueError):
        total_latency(s, 1.5, 0.0)
    with pytest.raises(ValueError):
        total_latency(s, 0.5, -1e-9)


@pytest.mark.parametrize("prob_fn,theta_key,power_key", [
    (uplink_success_prob, "theta1", "p_u"),
    (access_success_prob, "theta3", "p_s"),
])
def test_success_monotone_in_threshold_and_power(prob_fn, theta_key,
                                                 power_key):
    # 5 x 5 grid: non-increasing along thresholds, non-decreasing along
    # transmit power
    s = load_scenario()
    thetas = np.geomspace(1e-13, 1e-9, 5)
    factors = (0.25, 0.5, 1.0, 2.0, 4.0)
    grid = np.array([[prob_fn(s.with_params(**{
        theta_key: th, power_key: getattr(s, power_key) * f}))
        for f in factors] for th in thetas])
    assert ((grid > 0.0) & (grid <= 1.0)).all()
    assert (np.diff(grid, axis=0) <= 1e-12).all()
    assert (np.diff(grid, axis=1) >= -1e-12).all()


def test_deli_monotone_in_threshold():
    s = load_scenario()
    probs = [deli_success_prob(s.with_params(theta2=th))
             for th in (0.1, 0.3, 1.0, 3.0, 10.0)]
    assert all(0.0 < p <= 1.0 for p in probs)
    assert all(b < a for a, b in zip(probs, probs[1:]))


# --- memoised stage success probabilities ---------------------------------

STAGE_CACHES = (latency._nearest_tx_success, latency._deli_success)
ANTENNAS_4 = {key: 4 for key in ("nt_u", "nr_m", "nt_m", "nr_e", "nt_s",
                                 "nr_u")}


def clear_stage_caches():
    for cache in STAGE_CACHES:
        cache.cache_clear()


def stage_misses():
    return sum(cache.cache_info().misses for cache in STAGE_CACHES)


def stage_values(s):
    return (uplink_success_prob(s), deli_success_prob(s),
            access_success_prob(s))


@pytest.mark.parametrize("overrides", [{}, ANTENNAS_4],
                         ids=["default", "antennas_4"])
def test_memoised_stages_equal_fresh_evaluation(overrides):
    s = load_scenario(overrides=overrides)
    before = stage_values(s)
    clear_stage_caches()
    fresh = stage_values(s)
    assert stage_misses() == 3
    again = stage_values(s)
    assert stage_misses() == 3
    assert before == fresh == again


@pytest.mark.parametrize("overrides", [
    {"theta2": 2.0}, {"alpha1": 4.5}, {"nt_m": 4}])
def test_deli_memo_keys_on_its_inputs(overrides):
    s = load_scenario()
    assert (deli_success_prob(s.with_params(**overrides))
            != deli_success_prob(s))


def test_edge_density_adds_no_stage_miss():
    s = load_scenario()
    stage_values(s)
    misses = stage_misses()
    for lambda_e in (1.2e-5, 2e-5, 3e-5):
        stage_values(s.with_params(lambda_e=lambda_e))
    assert stage_misses() == misses


def test_psi_sweep_integrates_each_stage_once(capsys):
    clear_stage_caches()
    values = ",".join(str(10 * i) for i in range(50))
    code = main(["sweep", "psi", "--values", values,
                 "--targets", ",".join(TARGETS)])
    capsys.readouterr()
    assert code == 0
    assert stage_misses() <= 3


def test_failed_quadrature_is_not_memoised():
    s = load_scenario()
    strict = QuadratureSpec(max_subdivisions=1, truncation="off")
    sizes = [cache.cache_info().currsize for cache in STAGE_CACHES]
    for prob_fn in (uplink_success_prob, deli_success_prob,
                    access_success_prob):
        with pytest.raises(NumericsError):
            prob_fn(s, strict)
    assert [cache.cache_info().currsize for cache in STAGE_CACHES] == sizes


def test_alpha_near_two_raises_numerics_error_uncached():
    # the coefficient quadrature loses the slowly decaying tail here and
    # used to hand a negative coefficient to the delivery integrand
    s = load_scenario(overrides={"alpha1": 2.001})
    size = latency._deli_success.cache_info().currsize
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(2):
            misses = latency._deli_success.cache_info().misses
            with pytest.raises(NumericsError, match="path-loss exponent"):
                deli_success_prob(s)
            assert latency._deli_success.cache_info().misses == misses + 1
    assert [str(w.message) for w in caught] == []
    assert latency._deli_success.cache_info().currsize == size


# alpha stays clear of 2, where the interference integrands decay like
# v**-1 and the coefficient integrals diverge; thresholds span -20..+10 dB
ORDERS = st.integers(min_value=1, max_value=16)
THRESHOLDS = st.floats(min_value=1e-2, max_value=10.0)
ALPHAS = st.floats(min_value=2.1, max_value=6.0)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(order=ORDERS, theta=THRESHOLDS, alpha=ALPHAS)
def test_memoised_stage_equals_uncached_property(order, theta, alpha):
    # unit area density, so the threshold scale is the dimensionless one
    args = (1.0 / math.pi, order, theta, alpha, DEFAULT_QUADRATURE)
    nearest = latency._nearest_tx_success(*args)
    assert nearest == latency._nearest_tx_success.__wrapped__(*args)
    assert 0.0 < nearest <= 1.0
    deli = latency._deli_success(order, theta, alpha, DEFAULT_QUADRATURE)
    assert deli == latency._deli_success.__wrapped__(
        order, theta, alpha, DEFAULT_QUADRATURE)
    assert 0.0 < deli <= 1.0
