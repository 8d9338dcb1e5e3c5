import math

import pytest

from mcrnet import latency, multipath
from mcrnet.energy import EnergyModel, load_energy_model, system_energy
from mcrnet.optimizer import critical_edc_density
from mcrnet.popularity import hit_probability, zipf
from mcrnet.scenario import SECONDS_PER_YEAR, ScenarioError, load_scenario


def test_qos_boundary_semantics():
    # the optimiser's delay-QoS gate is inclusive: a budget that the
    # sparsest deployment meets exactly clamps psi 144 to that density,
    # and one ulp less needs a root above it
    s = load_scenario()
    lo = multipath.density_bracket(s)[0]
    budget = (multipath.continuous_backhaul_delay(s, lo, s.b_paths)
              + latency.fiber_delay(s)
              * (1.0 - hit_probability(zipf(s.beta, s.k_total), 144)))
    met = critical_edc_density(s, 144, budget)
    assert met.at_lower_bound
    assert met.lambda_e_crit == lo
    missed = critical_edc_density(s, 144, math.nextafter(budget, 0.0))
    assert not missed.at_lower_bound
    assert missed.lambda_e_crit > lo


def test_energy_defaults_from_table():
    em = load_energy_model()
    assert em.a_m == 21.45 and em.b_m == 354.0
    assert em.a_s == em.a_e == 7.84
    assert em.b_s == em.b_e == 71.0
    assert em.t_life_m == 10 * SECONDS_PER_YEAR
    assert em.t_life_s == em.t_life_e == 5 * SECONDS_PER_YEAR
    assert em.e_storage == 8e6
    assert em.e_em_m == em.e_em_s == em.e_em_e == 0.0
    assert set(em.assumed_defaults) == {"e_em_m", "e_em_s", "e_em_e"}


def test_energy_year_suffix():
    em = load_energy_model("t_life_s_years = 3")
    assert em.t_life_s == 3 * SECONDS_PER_YEAR


def test_energy_unknown_key_warns():
    with pytest.warns(UserWarning):
        load_energy_model("wattage = 5")


def test_energy_rejects_negative():
    with pytest.raises(ScenarioError):
        load_energy_model("e_storage = -1")
    with pytest.raises(ScenarioError):
        EnergyModel(t_life_m=0.0)


def test_sbs_tier_arithmetic():
    # 5e-5 * (7.84 * 1 W + 71 W) * 5 years, no embodied energy
    s = load_scenario()
    em = load_energy_model()
    tier = system_energy(s, em, psi=0).sbs
    expected = 5e-5 * (7.84 * 1.0 + 71.0) * (5 * SECONDS_PER_YEAR)
    assert tier == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(6.216e5, rel=1e-3)


def test_storage_tier_arithmetic():
    s = load_scenario()
    em = load_energy_model()
    tier = system_energy(s, em, psi=144, lambda_e=9.873e-6).storage
    assert tier == pytest.approx(144 * 8e6 * 9.873e-6, rel=1e-12)
    assert tier == pytest.approx(1.137e4, rel=1e-3)


def test_breakdown_sums_to_total():
    s = load_scenario()
    em = load_energy_model("e_em_m = 1e9\ne_em_s = 2e8\ne_em_e = 3e8")
    be = system_energy(s, em, psi=200)
    assert be.total == pytest.approx(
        be.mbs + be.sbs + be.edc + be.storage, rel=1e-9)


def test_energy_linear_in_density_and_cache():
    s = load_scenario()
    em = load_energy_model()
    lams = [6e-6, 1e-5, 2e-5, 4e-5]
    totals = [system_energy(s, em, 144, lambda_e=lam).total for lam in lams]
    assert all(b > a for a, b in zip(totals, totals[1:]))
    # exact affinity: equal spacing of lambda gives equal increments
    inc1 = (system_energy(s, em, 144, lambda_e=2e-5).total
            - system_energy(s, em, 144, lambda_e=1e-5).total)
    inc2 = (system_energy(s, em, 144, lambda_e=3e-5).total
            - system_energy(s, em, 144, lambda_e=2e-5).total)
    assert inc1 == pytest.approx(inc2, rel=1e-9)
    psis = [0, 100, 250, 500]
    by_psi = [system_energy(s, em, psi).total for psi in psis]
    assert all(b > a for a, b in zip(by_psi, by_psi[1:]))


def test_psi_bounds_checked():
    s = load_scenario()
    em = load_energy_model()
    with pytest.raises(ValueError):
        system_energy(s, em, psi=501)
    with pytest.raises(ValueError):
        system_energy(s, em, psi=-1)
