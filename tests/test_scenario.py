import dataclasses
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mcrnet.scenario import (MEGABYTE, NetworkScenario, ScenarioError,
                             db_to_linear, dbm_to_watt, linear_to_db,
                             load_scenario, scenario_hash, scenario_to_config,
                             watt_to_dbm)


def test_empty_document_is_all_defaults():
    assert load_scenario("") == load_scenario()
    assert load_scenario() == load_scenario("# just a comment\n\n")


def test_density_km2_conversion():
    s = load_scenario("lambda_s_per_km2 = 50")
    assert s.lambda_s == pytest.approx(5e-5, rel=1e-15)


def test_dbm_conversion():
    s = load_scenario(overrides={"p_u_dbm": 23})
    assert s.p_u == pytest.approx(10.0 ** ((23 - 30) / 10), rel=1e-15)
    assert s.p_u == pytest.approx(0.1995262314968880, rel=1e-12)


def test_queue_stability_boundary_rejected():
    with pytest.raises(ScenarioError, match="chi"):
        load_scenario("mu = 1e4\nchi = 5e7\nlambda_u = 2e-4")


def test_density_ordering_enforced():
    with pytest.raises(ScenarioError, match="lambda_m < lambda_e < lambda_s"):
        load_scenario(overrides={"lambda_e_per_km2": 60})
    with pytest.raises(ScenarioError, match="lambda_m < lambda_e < lambda_s"):
        load_scenario(overrides={"lambda_e_per_km2": 4})


def test_power_ordering_enforced():
    with pytest.raises(ScenarioError, match="p_m > p_s > p_u"):
        load_scenario(overrides={"p_s_dbm": 50})


def test_path_count_bound():
    # b_paths must fit in the disc of radius r_max at density lambda_e
    with pytest.raises(ScenarioError, match="b_paths"):
        load_scenario(overrides={"b_paths": 9})
    load_scenario(overrides={"b_paths": 7})  # 7 < pi * 1e-5 * 500^2


def test_unknown_key_warns_not_errors():
    with pytest.warns(UserWarning, match="frobnication"):
        s = load_scenario("frobnication = 3\nlambda_s_per_km2 = 50")
    assert s.lambda_s == pytest.approx(5e-5)


def test_malformed_line_raises():
    with pytest.raises(ScenarioError, match="key = value"):
        load_scenario("this is not a config line")


def test_non_numeric_value_raises():
    with pytest.raises(ScenarioError, match="not numeric"):
        load_scenario("lambda_s = fifty")


def test_integer_fields_reject_fractions():
    with pytest.raises(ScenarioError, match="integer"):
        load_scenario(overrides={"nt_u": 2.5})


def test_buffer_mb_convention():
    s = load_scenario(overrides={"buffer_omega_mb": 1})
    assert s.buffer_omega == MEGABYTE
    assert math.ceil(s.buffer_omega / s.packet_l) == 1024


def test_table_defaults():
    s = load_scenario()
    assert s.lambda_m == pytest.approx(5e-6)
    assert s.lambda_u == pytest.approx(2e-4)
    assert s.p_s == pytest.approx(1.0, rel=1e-12)
    assert s.tau_mmw == 5e-6
    assert s.n0 == pytest.approx(dbm_to_watt(-174), rel=1e-15)
    assert s.w_mmw == 2e8
    assert s.mu == 1.05e4
    assert s.l_fiber == 1e6 and s.v_fiber == 2e8
    assert s.beta == 0.8 and s.k_total == 500
    assert s.r_max == 500.0 and s.r_mmw == 100.0


def test_assumed_defaults_flagged_and_cleared():
    s = load_scenario()
    assert "theta1" in s.assumed_defaults
    assert "lambda_e" in s.assumed_defaults
    assert "lambda_m" not in s.assumed_defaults
    s2 = load_scenario("theta1_dbm = -85")
    assert "theta1" not in s2.assumed_defaults


def test_config_round_trip_is_identical():
    s = load_scenario("lambda_e_per_km2 = 12.5\ntheta2_db = 2.5\n"
                      "p_m_dbm = 41\nbuffer_omega_mb = 2")
    cfg = scenario_to_config(s)
    text = "\n".join(f"{k} = {v!r}" for k, v in cfg.items())
    s2 = load_scenario(text)
    for name in cfg:
        assert getattr(s2, name) == getattr(s, name)
    assert scenario_hash(s2) == scenario_hash(s)


POSITIVE = st.floats(min_value=0.0, max_value=1e30, exclude_min=True)
RATIO = st.floats(1.01, 1e3)
COUNT = st.integers(1, 64)


@st.composite
def scenarios(draw):
    """Valid scenarios, each constraint met by construction or assumed."""
    lambda_m = draw(st.floats(1e-9, 1e-3))
    lambda_e = lambda_m * draw(RATIO)
    p_u = draw(st.floats(1e-6, 10.0))
    p_s = p_u * draw(RATIO)
    lambda_u = draw(st.floats(1e-9, 1e-2))
    chi = draw(st.floats(1.0, 1e9))
    r_max = draw(st.floats(1.0, 1e5))
    values = dict(
        lambda_m=lambda_m, lambda_e=lambda_e, lambda_s=lambda_e * draw(RATIO),
        lambda_u=lambda_u, p_u=p_u, p_s=p_s, p_m=p_s * draw(RATIO),
        chi=chi, mu=chi * lambda_u * draw(RATIO), r_max=r_max,
        l_fiber=draw(st.floats(0.0, 1e9)),
        alpha1=draw(st.floats(2.0, 8.0, exclude_min=True)),
        alpha2=draw(st.floats(2.0, 8.0)),
        beta=draw(st.floats(0.0, 5.0)),
        **{name: draw(POSITIVE) for name in (
            "p_e", "theta1", "theta2", "theta3", "theta4", "n0", "w_mmw",
            "tau_mmw", "r_mmw", "sigma_db", "packet_l", "buffer_omega",
            "v_fiber", "relay_coeff", "t_ul_req", "t_dl_deli", "t_dl_as",
            "d_max")},
        **{name: draw(COUNT) for name in (
            "nt_u", "nr_m", "nt_m", "nr_e", "nt_s", "nr_u", "k_total")})
    capacity = lambda_e * math.pi * r_max ** 2
    assume(capacity >= 1.0)
    values["b_paths"] = draw(st.integers(1, int(min(capacity, 64))))
    return NetworkScenario(**values)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(s=scenarios())
def test_config_round_trip_property(s):
    cfg = scenario_to_config(s)
    assert load_scenario(overrides=cfg) == s
    text = "\n".join(f"{k} = {v!r}" for k, v in cfg.items())
    assert load_scenario(text) == s


@pytest.mark.parametrize("db", [-174.0, -90.0, -37.7, 0.0, 23.0, 43.0])
def test_db_conversions_are_inverse(db):
    assert linear_to_db(db_to_linear(db)) == pytest.approx(db, abs=1e-12)
    assert watt_to_dbm(dbm_to_watt(db)) == pytest.approx(db, abs=1e-12)


def test_with_params_revalidates():
    s = load_scenario()
    with pytest.raises(ScenarioError):
        s.with_params(lambda_e=1e-3)
    assert s.with_params(lambda_e=2e-5).lambda_e == 2e-5


def test_scenario_is_frozen():
    s = load_scenario()
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.lambda_e = 1.0


def test_hash_tracks_values_only():
    a = load_scenario("lambda_e_per_km2 = 10")
    b = load_scenario()  # same SI value via default
    assert a.lambda_e == b.lambda_e
    assert scenario_hash(a) == scenario_hash(b)
    assert scenario_hash(a.with_params(lambda_e=2e-5)) != scenario_hash(a)


def test_direct_construction_validates():
    with pytest.raises(ScenarioError):
        NetworkScenario(alpha1=1.5)
