"""Acceptance suite: every shipping criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The Monte-Carlo checks pin their seeds, so the suite is
deterministic end to end.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from mcrnet import latency, montecarlo, multipath
from mcrnet.energy import load_energy_model, system_energy
from mcrnet.montecarlo import proportion_z
from mcrnet.multipath import EXACT_CEIL, SINGLE_PATH
from mcrnet.optimizer import critical_edc_density, optimize_cache_density
from mcrnet.popularity import hit_probability, zipf
from mcrnet.scenario import (db_to_linear, dbm_to_watt, linear_to_db,
                             load_scenario, watt_to_dbm)
from oracles import gamma_fn, integrate_semi_infinite, per_packet_path_delay

SEED = 2024


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_geometry_oracle():
    lam = 1e-5  # 10 per km^2
    t0 = time.time()
    worst = 0.0
    means = {}
    # one ordered draw: row p - 1 is the p-th nearest distance, the same
    # values a draw at k = p gives
    rows = montecarlo.nearest_distances(lam, 5, 100_000, SEED)
    for p, row in enumerate(rows, start=1):
        ref = multipath.mean_kth_edc_distance(lam, p)
        est = montecarlo.mean_estimate(row)
        z = est.z_score(ref)
        worst = max(worst, abs(z))
        means[p] = est.mean
    elapsed = time.time() - t0
    assert means[1] == pytest.approx(158.1, abs=1.5)
    assert means[2] == pytest.approx(237.2, abs=1.5)
    _report(1, worst <= 3.0 and elapsed < 30.0,
            f"k-th nearest distances p=1..5, max |z| = {worst:.2f}, "
            f"runtime {elapsed:.1f}s (< 30s)")


UPLINK_POINTS = [
    dict(theta1_dbm=-60),
    dict(theta1_dbm=-65),
    dict(theta1_dbm=-60, alpha1=4.0),
    dict(theta1_dbm=-70, nt_u=1, nr_m=1),      # Rayleigh
    dict(theta1_dbm=-55, alpha1=3.0, nt_u=1, nr_m=2),
]
DELI_POINTS = [
    dict(),
    dict(theta2_db=3),
    dict(theta2_db=0, alpha1=4.0),
    dict(nt_m=1, nr_e=1),                      # Rayleigh
    dict(theta2_db=-3, nt_m=2, nr_e=1),
]
ACCESS_POINTS = [
    dict(theta3_dbm=-10),
    dict(theta3_dbm=-5),
    dict(theta3_dbm=0),
    dict(theta3_dbm=-10, nt_s=1, nr_u=1),      # Rayleigh
    dict(theta3_dbm=-10, alpha2=2.5),
]
SHADOW_POINTS = [
    dict(theta4_dbm=11),
    dict(theta4_dbm=6),
    dict(theta4_dbm=1),
    dict(theta4_dbm=16),
    dict(theta4_dbm=6, sigma_db=10),
]


def test_criterion_2_success_probability_oracles():
    trials = 1_000_000
    t0 = time.time()
    worst = {}
    families = [
        ("uplink", UPLINK_POINTS, latency.uplink_success_prob,
         montecarlo.estimate_uplink_success),
        ("deli", DELI_POINTS, latency.deli_success_prob,
         montecarlo.estimate_deli_success),
        ("access", ACCESS_POINTS, latency.access_success_prob,
         montecarlo.estimate_access_success),
        ("shadowing", SHADOW_POINTS, multipath.mmwave_success_prob,
         montecarlo.estimate_shadowing_success),
    ]
    for name, points, analytic_fn, oracle_fn in families:
        zs = []
        for overrides in points:
            s = load_scenario(overrides=overrides)
            analytic = analytic_fn(s)
            est = oracle_fn(s, trials, SEED)
            zs.append(proportion_z(est, analytic))
        worst[name] = max(abs(z) for z in zs)
    elapsed = time.time() - t0
    detail = ", ".join(f"{k} max |z| = {v:.2f}" for k, v in worst.items())
    _report(2, max(worst.values()) <= 3.0 and elapsed < 300.0,
            f"{detail}; 5 points each at 1e6 samples, "
            f"runtime {elapsed:.0f}s (< 300s)")


def test_criterion_3_delay_theorem_consistency():
    s = load_scenario()
    packets = multipath.buffer_packets(s)
    # per-path totals identical in continuous mode
    worst_spread = 0.0
    for b in (2, 4, 6):
        plan = multipath.build_plan(s, b=b)
        totals = [plan.shares[p] * packets * per_packet_path_delay(
            s, plan.r[p]) for p in range(b)]
        worst_spread = max(worst_spread,
                           (max(totals) - min(totals)) / max(totals))
    # packet simulator vs integer-hop closed form
    rels = {}
    for b in (2, 4):
        sb = s.with_params(b_paths=b)
        est = montecarlo.simulate_backhaul(sb, trials=1500, seed=SEED)
        analytic = multipath.multipath_backhaul_delay(sb, EXACT_CEIL)
        rels[b] = abs(est.mean - analytic) / analytic
    _report(3, worst_spread <= 1e-12 and max(rels.values()) <= 0.05,
            f"per-path equalisation spread {worst_spread:.2e} (<= 1e-12); "
            f"simulator vs closed form rel err "
            + ", ".join(f"B={b}: {r:.1%}" for b, r in rels.items())
            + " (<= 5%)")


def test_criterion_4_delay_bounds_grid():
    s = load_scenario()
    checked = 0
    for lam_e in (6e-6, 8e-6, 1e-5, 1.5e-5, 2e-5):
        for lam_s in (3e-5, 5e-5, 7e-5, 9e-5, 1.2e-4):
            for b in (2, 4, 6):
                if not (s.lambda_m < lam_e < lam_s):
                    continue
                if not 1 < b <= lam_e * math.pi * s.r_max ** 2:
                    continue
                si = s.with_params(lambda_e=lam_e, lambda_s=lam_s, b_paths=b)
                lower, upper = multipath.delay_bounds(si)
                d = multipath.multipath_backhaul_delay(si)
                assert lower < d < upper, (lam_e, lam_s, b)
                checked += 1
    _report(4, checked >= 60,
            f"lower < delay < upper at all {checked} grid points "
            f"satisfying the preconditions")


def _strictly(seq, direction):
    pairs = list(zip(seq, seq[1:]))
    if direction == "down":
        return all(b < a for a, b in pairs)
    return all(b > a for a, b in pairs)


def test_criterion_5_trend_reproduction():
    s = load_scenario()
    em = load_energy_model()
    trends = {}

    for beta in (0.4, 0.8, 1.2):
        model = zipf(beta, s.k_total)
        curve = [latency.fiber_delay(s) * (1 - hit_probability(model, psi))
                 for psi in (0, 100, 200, 300, 400, 500)]
        trends[f"fiber term down in cache size (beta={beta})"] = \
            _strictly(curve, "down")
    for psi in (100, 300):
        curve = [latency.fiber_delay(s)
                 * (1 - hit_probability(zipf(beta, s.k_total), psi))
                 for beta in (0.2, 0.4, 0.8, 1.2, 1.6)]
        trends[f"fiber term down in skew (psi={psi})"] = \
            _strictly(curve, "down")

    lam_grid = [6e-6, 8e-6, 1e-5, 1.5e-5, 2e-5, 3e-5, 4.5e-5]
    multi = [multipath.multipath_backhaul_delay(s, lambda_e=v)
             for v in lam_grid]
    single = [multipath.multipath_backhaul_delay(s, b=1, lambda_e=v)
              for v in lam_grid]
    trends["backhaul down in edge density"] = _strictly(multi, "down")
    trends["multipath <= single path everywhere"] = all(
        m < u for m, u in zip(multi, single))
    gains = [u - m for m, u in zip(multi, single)]
    trends["gain shrinks with edge density"] = _strictly(gains, "down")

    trends["backhaul down in path count"] = _strictly(
        [multipath.multipath_backhaul_delay(s, b=b) for b in (1, 2, 4, 6)],
        "down")
    trends["backhaul down in hop range"] = _strictly(
        [multipath.multipath_backhaul_delay(s.with_params(r_mmw=r))
         for r in (50.0, 100.0, 150.0, 200.0)], "down")
    # growing the cooperation radius admits more sources
    radius_curve = []
    for r in (300.0, 400.0, 500.0, 600.0):
        b_eff = multipath.max_cooperative_paths(s.lambda_e, r)
        sr = s.with_params(r_max=r, b_paths=b_eff)
        radius_curve.append(multipath.multipath_backhaul_delay(sr))
    trends["backhaul down in cooperation radius"] = _strictly(
        radius_curve, "down")
    trends["backhaul up in buffer size"] = _strictly(
        [multipath.multipath_backhaul_delay(
            s.with_params(buffer_omega=o * 2.0 ** 20))
         for o in (0.5, 1.0, 2.0, 4.0)], "up")
    trends["backhaul up in small-cell density"] = _strictly(
        [multipath.multipath_backhaul_delay(s.with_params(lambda_s=v))
         for v in (2e-5, 5e-5, 8e-5, 1.2e-4)], "up")

    trends["system energy up in edge density"] = _strictly(
        [system_energy(s, em, 144, lambda_e=v).total for v in lam_grid], "up")
    trends["system energy up in cache size"] = _strictly(
        [system_energy(s, em, psi).total for psi in (0, 100, 250, 500)], "up")

    failed = [name for name, ok in trends.items() if not ok]
    _report(5, not failed,
            f"{len(trends)} monotone trends hold pointwise"
            + (f"; FAILED: {failed}" if failed else ""))


def test_criterion_6_optimizer_equals_enumeration():
    s = load_scenario()
    em = load_energy_model()
    outcome = optimize_cache_density(s, em)
    scored = [(system_energy(s, em, psi, lambda_e=lam).total, psi, lam)
              for psi, lam in zip(outcome.psi, outcome.lambda_e_crit)]
    e_best, psi_best, lam_best = min(scored)
    same = (outcome.e_sys_min == e_best
            and outcome.best_pair.psi == psi_best
            and outcome.best_pair.lambda_e_crit == lam_best)
    deterministic = (outcome == optimize_cache_density(s, em)
                     == optimize_cache_density(s, em))
    _report(6, same and deterministic,
            f"optimum (psi={outcome.best_pair.psi}, "
            f"lambda_e={outcome.best_pair.lambda_e_crit * 1e6:.3f}/km^2, "
            f"E_sys={outcome.e_sys_min:.4g} J/m^2) equals exhaustive "
            f"enumeration over |K|=500; identical across repeats")


def _unimodal(values, rel_tol=1e-9):
    scale = max(abs(v) for v in values)
    diffs = [b - a for a, b in zip(values, values[1:])]
    # ignore flat steps, then require falling before rising
    signs = [0 if abs(d) <= rel_tol * scale else (1 if d > 0 else -1)
             for d in diffs]
    signs = [x for x in signs if x != 0]
    rises = 0
    for x in signs:
        if x > 0:
            rises += 1
        elif rises:
            return False  # fell again after rising
    return True


def test_criterion_7_service_energy_best_effort():
    s = load_scenario()
    em = load_energy_model()
    multi = optimize_cache_density(s, em)
    single = optimize_cache_density(s, em, scheme=SINGLE_PATH)
    strictly_better = multi.e_sys_min < single.e_sys_min
    curves_ok = {}
    for name, outcome in (("multipath", multi), ("single-path", single)):
        lam = dict(zip(outcome.psi, outcome.lambda_e_crit))
        curve = [system_energy(s, em, psi, lambda_e=lam[psi]).total
                 for psi in sorted(lam)]
        curves_ok[name] = _unimodal(curve)
    reduction = 1.0 - multi.e_sys_min / single.e_sys_min
    print(f"    calibration note: optimum (psi={multi.best_pair.psi}, "
          f"lambda_e={multi.best_pair.lambda_e_crit * 1e6:.3f}/km^2, "
          f"E_SEE={multi.e_sys_min:.5g} J/m^2), single-path minimum "
          f"{single.e_sys_min:.5g} J/m^2 (reduction {reduction:.1%}); "
          f"reference point (144, 9.873/km^2, 3.3226e6 J/m^2) is not "
          f"reproducible exactly because several of its parameters have "
          f"no published values and use assumed defaults here")
    _report(7, strictly_better and all(curves_ok.values()),
            f"multipath min SEE {multi.e_sys_min:.4g} < single-path "
            f"{single.e_sys_min:.4g} J/m^2; SEE-vs-cache-size curves "
            f"unimodal: {curves_ok}")


def test_criterion_8_property_suites():
    t0 = time.time()

    # Zipf normalisation to 1e-12
    for beta in (0.0, 0.4, 0.8, 1.2, 2.0):
        for k_total in (1, 10, 500):
            assert abs(zipf(beta, k_total).q.sum() - 1.0) <= 1e-12

    # path-share normalisation to 1e-12
    s = load_scenario()
    for b, lam in ((1, 1e-5), (2, 8e-6), (4, 1e-5), (7, 2e-5), (8, 3e-5)):
        plan = multipath.build_plan(s, b=b, lambda_e=lam)
        assert abs(plan.shares.sum() - 1.0) <= 1e-12

    # distance-pdf normalisation for p = 1..8 to 1e-8
    lam = 1e-5
    for p in range(1, 9):
        val = integrate_semi_infinite(
            lambda r, p=p: math.exp(-lam * math.pi * r * r)
            * 2.0 * (lam * math.pi * r * r) ** p / (r * math.gamma(p)),
            1e-12)
        assert abs(val - 1.0) <= 1e-8

    # Gamma recurrence to 1e-10 relative
    for x in np.linspace(0.5, 20.0, 100):
        assert abs(gamma_fn(x + 1.0) - x * gamma_fn(x)) <= \
            1e-10 * abs(x * gamma_fn(x))

    # QoS boundary semantics: the optimiser's delay gate is inclusive
    lo = multipath.density_bracket(s)[0]
    budget = (multipath.continuous_backhaul_delay(s, lo, s.b_paths)
              + latency.fiber_delay(s)
              * (1.0 - hit_probability(zipf(s.beta, s.k_total), 144)))
    met = critical_edc_density(s, 144, budget)
    assert met.at_lower_bound and met.lambda_e_crit == lo
    assert not critical_edc_density(
        s, 144, math.nextafter(budget, 0.0)).at_lower_bound

    # config unit round-trips
    for db in (-174.0, -90.0, 0.0, 23.0, 43.0):
        assert abs(linear_to_db(db_to_linear(db)) - db) <= 1e-12
        assert abs(watt_to_dbm(dbm_to_watt(db)) - db) <= 1e-12
    sx = load_scenario("lambda_e_per_km2 = 17\ntheta2_db = 1.5")
    cfg = {f.name: getattr(sx, f.name) for f in dataclasses.fields(sx)
           if f.name != "assumed_defaults"}
    rebuilt = load_scenario("\n".join(f"{k} = {v!r}" for k, v in cfg.items()))
    assert all(getattr(rebuilt, k) == v for k, v in cfg.items())

    elapsed = time.time() - t0
    _report(8, elapsed < 60.0,
            f"normalisation, recurrence, boundary and round-trip "
            f"properties green in {elapsed:.1f}s (< 60s)")
