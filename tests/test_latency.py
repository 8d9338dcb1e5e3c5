import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from mcrnet import latency, numerics
from mcrnet.cli import TARGETS, main
from mcrnet.latency import (DelayBreakdown, LatencyError, access_delay,
                            access_success_prob, deli_delay,
                            deli_success_prob, fiber_delay, total_latency,
                            uplink_delay_parts, uplink_request_delay,
                            uplink_success_prob)
from mcrnet.numerics import NumericsError
from mcrnet.scenario import ScenarioError, load_scenario
from memos import STAGE_CACHES, clear_memos, misses
from oracles import integrate_semi_infinite, nearest_tx_success_exact

# frozen module outputs at the documented defaults (regression guards)
DELI_RHO_DEFAULT = 0.5282701969743324
UPLINK_RHO_60DBM = 0.6957995583777764


# --- delivery-stage oracles -------------------------------------------------
# The library sums the delivery coverage series in closed form.  The
# quadrature oracle integrates the interference coefficients
#   k_0 = int_1^inf 1 - (1 + theta u^(-alpha/2))^(-order) du
#   k_q = int_1^inf (1 + u^(alpha/2) / theta)^(-q)
#                   * (1 + theta u^(-alpha/2))^(-order) du
# and then the distance average of the conditional coverage
# exp(-k_0 xi) * (1 + sum_t a_t xi^t) directly.

def quad_interference_coefficients(order, theta, alpha):
    """k_0..k_order by quadrature."""
    half_alpha = alpha / 2.0
    k = np.empty(order + 1)

    def base(u):
        # stable form of 1 - (1 + theta u^-a/2)^-order for tiny arguments
        return -math.expm1(-order * math.log1p(theta * u ** -half_alpha))

    k[0] = integrate_semi_infinite(base, 1.0)
    for q in range(1, order + 1):
        def deriv(u, q=q):
            return ((1.0 + u ** half_alpha / theta) ** (-q)
                    * (1.0 + theta * u ** -half_alpha) ** (-order))
        k[q] = integrate_semi_infinite(deriv, 1.0)
    return k


def correction_poly(order, k):
    """a_1..a_{order-1} of the conditional coverage correction polynomial.

    Built from the binomially weighted source vector ``y`` and the
    strictly lower triangular propagation matrix ``g``.
    """
    y = np.array([math.comb(order + j - 1, j) * k[j]
                  for j in range(1, order + 1)])
    g = np.zeros((order, order))
    for i in range(2, order + 1):
        for j in range(1, i):
            d = i - j
            g[i - 1, j - 1] = (d / i) * math.comb(order + d - 1, d) * k[d]
    a = np.zeros(order)  # a[0] unused
    term = y
    for t in range(1, order):
        a[t] = term[: order - 1].sum()
        term = g @ term
    return a


def quad_deli_success(order, theta, alpha):
    """Delivery success probability with every integral done numerically."""
    k = quad_interference_coefficients(order, theta, alpha)
    a = correction_poly(order, k)

    def integrand(xi):
        corr = sum(a[t] * xi ** t for t in range(1, order))
        return math.exp(-(1.0 + k[0]) * xi) * (1.0 + corr)

    return min(1.0, integrate_semi_infinite(integrand, 0.0))


def mpmath_deli_success(order, theta, alpha):
    """50-digit reference for large orders.

    ``k_0`` is integrated from its definition (with ``w = theta
    u^(-alpha/2)`` and ``w = t^(1/(1-s))``, which leaves a smooth
    integrand on a finite interval), the weights ``p_q`` come from
    mpmath's own Gamma and incomplete Beta functions, and the series
    recursion is summed in 50-digit arithmetic.
    """
    with mpmath.workdps(50):
        theta = mpmath.mpf(theta)
        s = 2 / mpmath.mpf(alpha)
        e = 1 / (1 - s)
        k0 = s * theta ** s * e * mpmath.quad(
            lambda t: -mpmath.expm1(-order * mpmath.log1p(t ** e)) / t ** e,
            [0, theta ** (1 - s)])
        x = theta / (1 + theta)
        p = [s * theta ** s * mpmath.gamma(q - s) * mpmath.gamma(order + s)
             / (mpmath.gamma(q + 1) * mpmath.gamma(order))
             * mpmath.betainc(q - s, order + s, 0, x, regularized=True)
             for q in range(1, order)]
        c = [1 / (1 + k0)]
        for n in range(1, order):
            c.append(mpmath.fsum(p[j - 1] * c[n - j]
                                 for j in range(1, n + 1)) / (1 + k0))
        return float(mpmath.fsum(c))


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
    k0, p = latency._interference_series(1, 1.0, 3.5)
    assert p.shape == (0,)
    assert latency._deli_success(1, 1.0, 3.5) == 1.0 / (1.0 + k0)


def test_sinr_recursion_k0_vanishes_with_threshold():
    k0, _ = latency._interference_series(2, 1e-9, 3.5)
    assert 0.0 < k0 < 1e-5


def test_k0_small_threshold_limit():
    # 1 - (1 + theta u^-a)^-order = order theta u^-a + O(theta^2), so
    # k_0 -> order theta / (alpha / 2 - 1)
    order, theta, alpha = 2, 1e-9, 3.5
    k0, _ = latency._interference_series(order, theta, alpha)
    assert k0 == pytest.approx(order * theta / (alpha / 2.0 - 1.0), rel=1e-6)


def test_sinr_recursion_coefficients_match_fixed_grid():
    # independent oracle: trapezoid integration on a huge flat grid
    theta, alpha, order = 1.0, 4.0, 2
    k0, p = latency._interference_series(order, theta, alpha)
    v = np.linspace(1.0, 4000.0, 4_000_000)
    base = 1.0 - (1.0 + v ** -2.0) ** -order
    k0_grid = float(np.trapezoid(base, v))
    # analytic tail beyond the grid: integrand ~ order * v^-2
    k0_tail = order / v[-1]
    assert k0 == pytest.approx(k0_grid + k0_tail, rel=1e-5)
    k1_int = (1.0 + v ** 2.0) ** -1.0 * (1.0 + v ** -2.0) ** -order
    k1_grid = float(np.trapezoid(k1_int, v))
    k1_tail = 1.0 / v[-1]
    # p_1 = C(order, 1) k_1
    assert p[0] / order == pytest.approx(k1_grid + k1_tail, rel=1e-5)


def test_sinr_recursion_matrix_shape_and_triangularity():
    # the series terms are the first column of the inverse of the lower
    # triangular Toeplitz matrix with d = 1 + k_0 on the diagonal and
    # -p_j on the j-th subdiagonal
    order, theta, alpha = 4, 1.0, 3.5
    k0, p = latency._interference_series(order, theta, alpha)
    assert p.shape == (order - 1,)
    assert (p > 0.0).all()
    toeplitz = (1.0 + k0) * np.eye(order) - sum(
        p[j - 1] * np.eye(order, k=-j) for j in range(1, order))
    terms = np.linalg.solve(toeplitz, np.eye(order)[:, 0])
    assert (terms > 0.0).all()
    assert latency._deli_success(order, theta, alpha) == pytest.approx(
        terms.sum(), rel=1e-13)


def test_deli_trivial_threshold():
    s = load_scenario(overrides={"theta2": 1e-12})
    assert deli_success_prob(s) == pytest.approx(1.0, abs=1e-6)


def test_deli_rayleigh_case_closed_form():
    s = load_scenario(overrides={"nt_m": 1, "nr_e": 1})
    k = quad_interference_coefficients(1, s.theta2, s.alpha1)
    assert deli_success_prob(s) == pytest.approx(
        1.0 / (1.0 + k[0]), rel=1e-9)


def test_deli_quadrature_matches_moment_closed_form():
    # with the quadrature coefficients the outer integral has an exact
    # factorial-moment evaluation; the oracle's quadrature of that
    # integral and the library's closed form must both reproduce it
    s = load_scenario()
    order = s.nt_m * s.nr_e
    k = quad_interference_coefficients(order, s.theta2, s.alpha1)
    a = correction_poly(order, k)
    closed = 1.0 / (1.0 + k[0])
    for t in range(1, order):
        closed += a[t] * math.factorial(t) / (1.0 + k[0]) ** (t + 1)
    assert quad_deli_success(order, s.theta2, s.alpha1) == pytest.approx(
        closed, rel=1e-9)
    rho = deli_success_prob(s)
    assert rho == pytest.approx(closed, rel=1e-9)
    assert rho == pytest.approx(DELI_RHO_DEFAULT, rel=1e-10)


@pytest.mark.parametrize("order,theta,alpha", [
    (32, 0.1, 6.0), (64, 10.0, 2.1), (256, 1.0, 3.5)])
def test_deli_matches_mpmath_reference_at_large_order(order, theta, alpha):
    rho = latency._deli_success.__wrapped__(order, theta, alpha)
    assert rho == pytest.approx(mpmath_deli_success(order, theta, alpha),
                                rel=1e-10)


@pytest.mark.parametrize("alpha1", [2.001, 2.00001])
def test_deli_alpha_near_two_limit(alpha1):
    # as alpha1 -> 2, k_0 grows like order theta2 / (1 - 2 / alpha1) and
    # the coverage tends to (alpha1 - 2) / (alpha1 theta2)
    s = load_scenario(overrides={"alpha1": alpha1})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rho = latency._deli_success.__wrapped__(
            s.nt_m * s.nr_e, s.theta2, s.alpha1)
    assert [str(w.message) for w in caught] == []
    assert rho * alpha1 * s.theta2 / (alpha1 - 2.0) == pytest.approx(
        1.0, rel=alpha1 - 2.0)


# thresholds near the largest float with alpha1 near 2: k_0 itself
# overflows, or only the weights p_q do
@pytest.mark.parametrize("theta2,alpha1", [(1e308, 2.0001), (1e305, 2.001)])
def test_deli_overflow_is_named_error(theta2, alpha1):
    s = load_scenario(overrides={"theta2": theta2, "alpha1": alpha1})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScenarioError, match="delivery stage"):
            deli_success_prob(s)


def test_access_trivial_threshold():
    s = load_scenario(overrides={"theta3": 1e-30})
    assert access_success_prob(s) == pytest.approx(1.0, abs=1e-9)
    assert access_delay(s) == pytest.approx(s.t_dl_as, rel=1e-9)


@pytest.mark.parametrize("theta3_dbm", range(-30, 31, 5))
def test_access_closed_form_at_alpha_two_matches_quadrature(theta3_dbm):
    # at alpha2 = 2 the library reads 1 - (C / (1 + C))^order; the
    # QUADPACK oracle integrates the distance average itself
    s = load_scenario(overrides={"theta3_dbm": theta3_dbm})
    assert s.alpha2 == 2.0
    order, scale = s.nt_s * s.nr_u, s.theta3 * s.nt_s / s.p_s
    c = scale / (s.lambda_s * math.pi)
    quad = integrate_semi_infinite(
        lambda xi: math.exp(-xi) * special.gammaincc(order, c * xi), 0.0)
    assert access_success_prob(s) == pytest.approx(min(1.0, quad),
                                                   rel=1e-12, abs=0.0)


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


def test_total_latency_takes_a_backhaul_delay_array():
    s = load_scenario()
    d_bh = np.array([0.0, 3e-3, 1e-2, math.inf])
    total = total_latency(s, 0.6, d_bh).total
    assert total.tolist() == [total_latency(s, 0.6, d).total
                              for d in d_bh.tolist()]
    with pytest.raises(ValueError, match="d_bh"):
        total_latency(s, 0.6, np.array([1e-3, -1e-9]))


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

ANTENNAS_4 = {key: 4 for key in ("nt_u", "nr_m", "nt_m", "nr_e", "nt_s",
                                 "nr_u")}


def stage_misses():
    return misses(*STAGE_CACHES)


def stage_values(s):
    return (uplink_success_prob(s), deli_success_prob(s),
            access_success_prob(s))


@pytest.mark.parametrize("overrides", [{}, ANTENNAS_4],
                         ids=["default", "antennas_4"])
def test_memoised_stages_equal_fresh_evaluation(overrides):
    s = load_scenario(overrides=overrides)
    before = stage_values(s)
    clear_memos()
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
    clear_memos()
    values = ",".join(str(10 * i) for i in range(50))
    code = main(["sweep", "psi", "--values", values,
                 "--targets", ",".join(TARGETS)])
    capsys.readouterr()
    assert code == 0
    assert stage_misses() <= 3


def test_failed_quadrature_is_not_memoised(monkeypatch):
    # the default access stage (alpha2 = 2) has a closed form, so alpha2
    # = 3 gives it a quadrature to fail; a zero tolerance and a one-cell
    # budget fail every quadrature on its first pass
    s = load_scenario(overrides={"alpha2": 3.0})
    clear_memos()
    monkeypatch.setattr(numerics, "_REL_TOL", 0.0)
    monkeypatch.setattr(numerics, "_MAX_CELLS", 1)
    sizes = [cache.cache_info().currsize for cache in STAGE_CACHES]
    for prob_fn in (uplink_success_prob, access_success_prob):
        with pytest.raises(NumericsError):
            prob_fn(s)
    assert [cache.cache_info().currsize for cache in STAGE_CACHES] == sizes


# alpha stays clear of 2, where the quadrature oracle's coefficient
# integrands decay like u**(-alpha/2), too slowly to converge; thresholds
# span -20..+10 dB
ORDERS = st.integers(min_value=1, max_value=16)
THRESHOLDS = st.floats(min_value=1e-2, max_value=10.0)
THRESHOLDS_DB = st.floats(min_value=-20.0, max_value=10.0)
ALPHAS = st.floats(min_value=2.1, max_value=6.0)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(order=ORDERS, theta=THRESHOLDS, alpha=ALPHAS)
def test_memoised_stage_equals_uncached_property(order, theta, alpha):
    # unit area density, so the threshold scale is the dimensionless one
    args = (1.0 / math.pi, order, theta, alpha)
    nearest = latency._nearest_tx_success(*args)
    assert nearest == latency._nearest_tx_success.__wrapped__(*args)
    assert 0.0 < nearest <= 1.0
    deli = latency._deli_success(order, theta, alpha)
    assert deli == latency._deli_success.__wrapped__(order, theta, alpha)
    assert 0.0 < deli <= 1.0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(order=ORDERS, theta_db=THRESHOLDS_DB, alpha=ALPHAS)
def test_deli_closed_form_matches_quadrature_property(order, theta_db, alpha):
    theta = 10.0 ** (theta_db / 10.0)
    rho = latency._deli_success.__wrapped__(order, theta, alpha)
    assert 0.0 < rho <= 1.0
    assert rho == pytest.approx(quad_deli_success(order, theta, alpha),
                                rel=1e-8)


# --- the uplink and access stages at any threshold ---------------------------
# The library's value of int_0^inf exp(-xi) Q(order, C xi^(alpha/2)) dxi at
# unit area density, where its threshold scale is C itself, against the
# 30-digit mpmath reference, to 1e-8 relative.

def nearest_success(order, c, alpha):
    return latency._nearest_tx_success.__wrapped__(1.0 / math.pi, order, c,
                                                   alpha)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(order=st.integers(min_value=1, max_value=64),
       alpha=st.floats(min_value=2.0, max_value=6.0),
       log10_c=st.floats(min_value=-8.0, max_value=8.0))
@example(order=4, alpha=2.0, log10_c=8.0)
@example(order=64, alpha=2.0001, log10_c=8.0)
@example(order=1, alpha=6.0, log10_c=-8.0)
def test_nearest_success_matches_exact_reference_property(order, alpha,
                                                          log10_c):
    c = 10.0 ** log10_c
    assert nearest_success(order, c, alpha) == pytest.approx(
        nearest_tx_success_exact(order, c, alpha), rel=1e-8, abs=0.0)


# the large-order corners of a grid of orders {1, ..., 16384}, alpha in
# {2, ..., 6} and C in [1e-8, 1e8]: QUADPACK over xi missed the knee at
# C = 1e6 and 1e8, off by up to 100 %
@pytest.mark.parametrize("order", [1024, 16384])
@pytest.mark.parametrize("alpha", [2.0001, 6.0])
@pytest.mark.parametrize("c", [1e-8, 1e6, 1e8])
def test_nearest_success_at_large_order_corners(order, alpha, c):
    assert nearest_success(order, c, alpha) == pytest.approx(
        nearest_tx_success_exact(order, c, alpha), rel=1e-8, abs=0.0)


@pytest.mark.parametrize("order", [1, 64, 16384])
@pytest.mark.parametrize("alpha", [2.0001, 3.5, 6.0])
@pytest.mark.parametrize("c", [1e60, 1e200])
def test_nearest_success_at_a_huge_threshold_is_its_asymptote(order, alpha,
                                                              c):
    # -expm1(-x) = x (1 + O(x)), so for a huge C the G form gives
    # P = E[G^(2/alpha)] C^(-2/alpha) = Gamma(m + 2/alpha) / Gamma(m)
    # C^(-2/alpha), to far below 1e-8 relative at these C
    e = 2.0 / alpha
    asymptote = math.exp(math.lgamma(order + e) - math.lgamma(order)
                         - e * math.log(c))
    assert nearest_success(order, c, alpha) == pytest.approx(
        asymptote, rel=1e-8, abs=0.0)


def test_access_success_keeps_its_digits_at_a_large_threshold():
    # at 40 dBm the exact access success is 3.14e-5; the QUADPACK
    # quadrature returned 8.3e-115
    s = load_scenario(overrides={"theta3_dbm": 40})
    c = s.theta3 * s.nt_s / s.p_s / (s.lambda_s * math.pi)
    exact = nearest_tx_success_exact(s.nt_s * s.nr_u, c, s.alpha2)
    assert exact == pytest.approx(3.14e-5, rel=1e-3)
    assert access_success_prob(s) == pytest.approx(exact, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("theta1_dbm,exact", [(0, 4.668e-4), (-200, 1.0)])
def test_uplink_success_at_extreme_thresholds(theta1_dbm, exact):
    # 0 dBm: the QUADPACK quadrature returned 3.6e-22; -200 dBm: the log
    # form takes a threshold far below the knee without overflow
    s = load_scenario(overrides={"theta1_dbm": theta1_dbm})
    assert uplink_success_prob(s) == pytest.approx(exact, rel=1e-3, abs=0.0)


def test_threshold_beyond_a_float_is_named_error():
    # C = threshold_scale * (lam pi)^(-alpha/2) = e^712 overflows
    s = load_scenario(overrides={"theta1": 1e300})
    with pytest.raises(ScenarioError, match="uplink stage"):
        uplink_success_prob(s)


def test_stage_beyond_an_int64_of_attempts_never_succeeds():
    # the exact access success at a 1e300 W threshold is 3.14e-304: the
    # probability is kept, the delay it implies is a named error
    s = load_scenario(overrides={"theta3": 1e300})
    assert access_success_prob(s) == pytest.approx(math.pi * 1e-304,
                                                   rel=1e-9, abs=0.0)
    with pytest.raises(ScenarioError, match="access stage never succeeds"):
        access_delay(s)
