import dataclasses
import hashlib
import math
import tracemalloc
import types

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mcrnet import scenario
from mcrnet.energy import ENERGY_KEYS
from mcrnet.scenario import (MAX_GAIN_ORDER, MAX_K_TOTAL, MEGABYTE,
                             SCENARIO_KEYS, NetworkScenario,
                             ScenarioError, db_to_linear, dbm_to_watt,
                             linear_to_db, load_scenario, min_edge_density,
                             scenario_hash, watt_to_dbm)
from oracles import scenario_hash_payload, validate_scenario


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


# constraint messages, byte for byte: _validate formats each only when
# its check fails
@pytest.mark.parametrize("overrides,message", [
    ({"w_mmw": "inf"}, "w_mmw finite"),
    ({"tau_mmw": 0}, "tau_mmw > 0"),
    ({"lambda_e_per_km2": 60},
     "lambda_m < lambda_e < lambda_s (got 5e-06, 6e-05, 5e-05 per m^2)"),
    ({"p_s_dbm": 50}, "p_m > p_s > p_u (got 19.9526, 100, 0.199526 W)"),
    ({"relay_coeff": 1e308},
     "relay_coeff * lambda_s / lambda_m finite (got relay_coeff = 1e+308)"),
    ({"mu": 1e4}, "mu > chi * lambda_u (queue stability; arrival rate "
                  "10000 1/s vs service rate 10000 1/s)"),
    ({"b_paths": 0}, "b_paths integer >= 1"),
    ({"nt_s": 128, "nr_u": 129},
     "nt_s * nr_u <= 16384 (the access aggregate gain order; every stage "
     "shares the bound of the delivery series, whose cost is quadratic in "
     "it; got 16512)"),
    ({"k_total": 2e6}, "k_total <= 1000000 (the popularity model holds one "
                       "probability per content; got 2e+06)"),
    ({"r_max": 1e200},
     "lambda_e * pi * r_max^2 finite (got r_max = 1e+200 m)"),
    ({"b_paths": 9}, "b_paths <= lambda_e * pi * r_max^2 (got 9 > 7.85398)"),
    ({"alpha1": 2}, "alpha1 > 2"),
])
def test_constraint_messages(overrides, message):
    with pytest.raises(ScenarioError) as caught:
        load_scenario(overrides=overrides)
    assert str(caught.value) == f"constraint violated: {message}"


def _raised(check, s):
    try:
        check(s)
    except Exception as exc:
        return type(exc), str(exc)
    return None


_FLOAT_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 1.0, 2.0, 1e-300, 1e300, math.nan,
                     math.inf, -math.inf]),
    st.floats())
_INT_VALUES = st.one_of(st.integers(-2, 200),
                        st.integers(10 ** 5, 10 ** 7),
                        st.sampled_from([2.0, 2.5]))


# one override that breaks each constraint after the per-field ones
_BREAK_ONE = [
    [("lambda_e", 6e-5)], [("p_s", 100.0)], [("relay_coeff", 1e308)],
    [("l_fiber", -1.0)], [("mu", 1e4)], [("nt_s", 128), ("nr_u", 129)],
    [("k_total", 2 * 10 ** 6)], [("r_max", 1e200)], [("b_paths", 9)],
    [("alpha1", 2.0)], [("alpha2", 1.5)], [("beta", -0.5)]]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(overrides=st.lists(
    st.one_of(st.tuples(st.sampled_from(scenario._FLOAT_FIELDS),
                        _FLOAT_VALUES),
              st.tuples(st.sampled_from(scenario._INT_FIELDS),
                        _INT_VALUES)),
    max_size=4))
def test_validate_raises_the_first_broken_constraint_property(overrides):
    # the defaults with no, one or several fields set to values that break
    # any of the constraints: the grouped checks raise what checking one
    # field at a time raises first, or nothing
    values = {f.name: f.default for f in dataclasses.fields(NetworkScenario)}
    values.update(overrides)
    s = types.SimpleNamespace(**values)
    assert _raised(scenario._validate, s) == _raised(validate_scenario, s)


for _overrides in _BREAK_ONE:
    test_validate_raises_the_first_broken_constraint_property = example(
        overrides=_overrides)(
            test_validate_raises_the_first_broken_constraint_property)


@pytest.mark.parametrize("tx,rx", [("nt_u", "nr_m"), ("nt_m", "nr_e"),
                                   ("nt_s", "nr_u")])
def test_gain_order_bound(tx, rx):
    assert MAX_GAIN_ORDER == 2 ** 14
    s = load_scenario(overrides={tx: 128, rx: 128})
    assert getattr(s, tx) * getattr(s, rx) == MAX_GAIN_ORDER
    with pytest.raises(ScenarioError, match=rf"{tx} \* {rx} <= 16384 .*16512"):
        load_scenario(overrides={tx: 128, rx: 129})


def test_library_size_bound():
    assert MAX_K_TOTAL == 10 ** 6
    assert load_scenario(overrides={"k_total": 10 ** 6}).k_total == 10 ** 6
    with pytest.raises(ScenarioError, match=r"k_total <= 1000000 .*1e\+300"):
        load_scenario(overrides={"k_total": 1e300})


def test_huge_gain_order_raises_before_allocating():
    # order 2e9 would ask the delivery series for a 14.9 GiB array
    tracemalloc.start()
    try:
        with pytest.raises(ScenarioError, match="nt_m \\* nr_e"):
            load_scenario(overrides={"nr_e": 1e9})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


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


# (field, SI value) of each config key given the value "3", as pinned
# from the per-model key mappers that the tables replaced
DBM_3 = 0.001995262314968879
SCENARIO_AT_3 = {
    **{name: (name, 3.0) for name in (
        "alpha1", "alpha2", "beta", "buffer_omega", "chi", "d_max",
        "l_fiber", "lambda_e", "lambda_m", "lambda_s", "lambda_u", "mu",
        "n0", "p_e", "p_m", "p_s", "p_u", "packet_l", "r_max", "r_mmw",
        "relay_coeff", "sigma_db", "t_dl_as", "t_dl_deli", "t_ul_req",
        "tau_mmw", "theta1", "theta2", "theta3", "theta4", "v_fiber",
        "w_mmw")},
    **{name: (name, 3) for name in (
        "b_paths", "k_total", "nr_e", "nr_m", "nr_u", "nt_m", "nt_s",
        "nt_u")},
    **{f"{name}_per_km2": (name, 3e-06) for name in (
        "lambda_e", "lambda_m", "lambda_s", "lambda_u")},
    **{f"{name}_dbm": (name, DBM_3) for name in (
        "p_e", "p_m", "p_s", "p_u", "theta1", "theta3", "theta4")},
    **{f"{name}_ms": (name, 0.003) for name in (
        "d_max", "t_dl_as", "t_dl_deli", "t_ul_req")},
    **{f"{name}_us": (name, 3e-06) for name in (
        "d_max", "t_dl_as", "t_dl_deli", "t_ul_req", "tau_mmw")},
    "buffer_omega_mb": ("buffer_omega", 3145728.0),
    "l_fiber_km": ("l_fiber", 3000.0),
    "n0_dbm_per_hz": ("n0", DBM_3),
    "theta2_db": ("theta2", 1.9952623149688795),
    "w_mmw_mhz": ("w_mmw", 3000000.0),
}
ENERGY_AT_3 = {
    **{name: (name, 3.0) for name in (
        "a_e", "a_m", "a_s", "b_e", "b_m", "b_s", "e_em_e", "e_em_m",
        "e_em_s", "e_storage", "t_life_e", "t_life_m", "t_life_s")},
    **{f"{name}_years": (name, 94608000.0) for name in (
        "t_life_e", "t_life_m", "t_life_s")},
}


@pytest.mark.parametrize("keys,expected,count", [
    (SCENARIO_KEYS, SCENARIO_AT_3, 65), (ENERGY_KEYS, ENERGY_AT_3, 16)])
def test_config_key_tables_pin_each_key(keys, expected, count):
    assert len(expected) == count
    assert set(keys) == set(expected)
    for key, (field, si) in expected.items():
        got_field, to_si = keys[key]
        got = to_si(float("3"))
        assert (got_field, got, type(got)) == (field, si, type(si)), key


@pytest.mark.parametrize("value", [2.5, math.inf, math.nan])
def test_int_field_rejects_non_whole_numbers(value):
    with pytest.raises(ScenarioError, match="b_paths must be an integer"):
        SCENARIO_KEYS["b_paths"][1](value)
    with pytest.raises(ScenarioError, match="nt_u must be an integer"):
        load_scenario(overrides={"nt_u": str(value)})


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
    cfg = {f.name: getattr(s, f.name) for f in dataclasses.fields(s)
           if f.name != "assumed_defaults"}
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
    cfg = {f.name: getattr(s, f.name) for f in dataclasses.fields(s)
           if f.name != "assumed_defaults"}
    assert load_scenario(overrides=cfg) == s
    text = "\n".join(f"{k} = {v!r}" for k, v in cfg.items())
    assert load_scenario(text) == s


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(s=scenarios())
def test_min_edge_density_is_accepted_property(s):
    lo = min_edge_density(s)
    # the densest of the two lower limits, up to the rounding margin
    floor = max(s.lambda_m, s.b_paths / (math.pi * s.r_max ** 2))
    assert floor <= lo <= floor * (1.0 + 2e-12)
    assume(lo < s.lambda_s)
    assert s.with_params(lambda_e=lo).lambda_e == lo


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


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(l_fiber=st.one_of(st.just(-0.0), st.floats(0.0, 1e12)),
       theta2=st.floats(min_value=5e-324, max_value=1e300),
       d_max=st.floats(1e-9, 1e9),
       b_paths=st.one_of(st.integers(1, 8), st.integers(2 ** 53, 10 ** 200)),
       k_total=st.integers(1, MAX_K_TOTAL))
def test_hash_template_is_the_field_by_field_payload_property(
        l_fiber, theta2, d_max, b_paths, k_total):
    # the payload from the per-field texts kept between calls against
    # each field formatted on its own: the same text for a negative zero,
    # a subnormal, an int field and an int beyond a float's 53 bits
    s = load_scenario().with_params(
        l_fiber=l_fiber, theta2=theta2, d_max=d_max, b_paths=b_paths,
        k_total=k_total, r_max=1e150)
    payload = scenario_hash_payload(s)
    assert scenario._hash_payload(s) == payload
    assert scenario_hash(s) == hashlib.sha256(
        payload.encode()).hexdigest()[:12]
    if l_fiber == 0.0:
        assert ("l_fiber=-0," in payload) == (math.copysign(1, l_fiber) < 0)


def test_hash_keeps_no_text_across_a_zero_sign():
    # 0.0 and -0.0 are one dict key but two texts; equal values of an int
    # and a float field share one
    base = load_scenario()
    for l_fiber in (0.0, -0.0, -0.0, 0.0, 1e6, 1e6, -0.0):
        s = base.with_params(l_fiber=l_fiber)
        assert scenario._hash_payload(s) == scenario_hash_payload(s)
    for d_max in (2, 2.0, 2):
        s = base.with_params(d_max=d_max)
        assert scenario._hash_payload(s) == scenario_hash_payload(s)


def test_direct_construction_validates():
    with pytest.raises(ScenarioError):
        NetworkScenario(alpha1=1.5)
