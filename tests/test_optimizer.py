import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcrnet import cli, latency, multipath, optimizer
from mcrnet.energy import load_energy_model, system_energy
from mcrnet.multipath import MULTIPATH, SCHEMES, SINGLE_PATH
from mcrnet.optimizer import (FeasiblePair, NoFeasiblePairError,
                              critical_edc_density, optimize_cache_density,
                              reduced_delay_budget)
from mcrnet.popularity import hit_probability, zipf
from mcrnet.scenario import load_scenario
from oracles import find_root_monotone, see_referee

# frozen root for psi = 144 at the documented defaults
CRIT_DENSITY_PSI144 = 1.3727228646865123e-05


@pytest.fixture(scope="module")
def scenario():
    return load_scenario()


@pytest.fixture(scope="module")
def energy():
    return load_energy_model()


def test_budget_is_total_minus_fixed_stages(scenario):
    budget = reduced_delay_budget(scenario)
    fixed = (latency.uplink_request_delay(scenario)
             + latency.deli_delay(scenario)
             + latency.access_delay(scenario))
    assert budget == pytest.approx(scenario.d_max - fixed, rel=1e-12)
    assert 0.0 < budget < scenario.d_max


def test_budget_subtraction_example(scenario):
    s = scenario.with_params(d_max=0.02)
    shifted = s.with_params(d_max=0.026)
    assert reduced_delay_budget(shifted) - reduced_delay_budget(s) == \
        pytest.approx(0.006, rel=1e-12)


def test_critical_density_root_residual(scenario):
    budget = reduced_delay_budget(scenario)
    pair = critical_edc_density(scenario, 144, budget)
    assert pair.lambda_e_crit == pytest.approx(CRIT_DENSITY_PSI144, rel=1e-9)
    # recompute the constraint left-hand side at the root
    hit = hit_probability(zipf(scenario.beta, scenario.k_total), 144)
    lhs = (multipath.multipath_backhaul_delay(
        scenario, lambda_e=pair.lambda_e_crit)
        + latency.fiber_delay(scenario) * (1.0 - hit))
    assert abs(lhs - budget) <= 1e-9
    assert pair.residual <= 1e-9


def test_critical_density_against_plain_bisection(scenario):
    # independent root oracle: hand-rolled bisection on the same equation
    budget = reduced_delay_budget(scenario)
    hit = hit_probability(zipf(scenario.beta, scenario.k_total), 144)
    fiber_term = latency.fiber_delay(scenario) * (1.0 - hit)

    def g(lam):
        return (multipath.multipath_backhaul_delay(scenario, lambda_e=lam)
                + fiber_term - budget)

    lo, hi = scenario.lambda_m, scenario.lambda_s
    assert g(lo) > 0 > g(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * hi:
            break
    pair = critical_edc_density(scenario, 144, budget)
    assert pair.lambda_e_crit == pytest.approx(0.5 * (lo + hi), rel=1e-10)


def test_critical_density_infeasible_fiber_term(scenario):
    # a longer fiber makes the miss term alone exceed the budget for a
    # small cache
    s = scenario.with_params(l_fiber=3e6)
    budget = reduced_delay_budget(s)
    assert critical_edc_density(s, 1, budget) is None
    assert critical_edc_density(s, 400, budget) is not None


def test_critical_density_clamps_on_slack_budget(scenario):
    pair = critical_edc_density(scenario, 400, budget=10.0)
    assert pair.at_lower_bound
    # the sparse end of the bracket: at the defaults the scenario's own
    # b_paths <= lambda_e * pi * r_max^2 binds, just above lambda_m
    lo = multipath.density_bracket(scenario)[0]
    assert pair.lambda_e_crit == lo
    assert lo == pytest.approx(
        scenario.b_paths / (math.pi * scenario.r_max ** 2), rel=1e-11)
    assert scenario.lambda_m < lo


@pytest.mark.parametrize("scheme", SCHEMES)
def test_reported_densities_form_valid_scenarios(energy, scheme):
    # at this budget multipath clamps every cache size to the sparse end
    # of the bracket and single-path roots every one; each reported
    # density must build a scenario
    s = load_scenario(overrides={"d_max_ms": 100})
    outcome = optimize_cache_density(s, energy, scheme=scheme)
    assert all(outcome.at_lower_bound) == (scheme == MULTIPATH)
    for lam in outcome.lambda_e_crit:
        assert s.with_params(lambda_e=lam).lambda_e == lam


def test_critical_density_bracket_exhaustion(scenario):
    # budget below the backhaul delay of the densest allowed deployment
    assert critical_edc_density(scenario, 500, budget=2e-3) is None


@pytest.mark.parametrize("d_max_ms,scheme,n_skipped", [
    (12, MULTIPATH, 16), (12, SINGLE_PATH, 285),
    (20, MULTIPATH, 0), (20, SINGLE_PATH, 0)])
def test_lone_solve_is_none_exactly_at_skipped_sizes(energy, d_max_ms,
                                                     scheme, n_skipped):
    # one feasibility verdict: a lone solve and the optimiser sort every
    # cache size the same way
    s = load_scenario(overrides={"d_max_ms": d_max_ms})
    budget = reduced_delay_budget(s)
    outcome = optimize_cache_density(s, energy, scheme=scheme)
    assert len(outcome.skipped_psi) == n_skipped
    none_at = [psi for psi in range(1, s.k_total + 1)
               if critical_edc_density(s, psi, budget, scheme) is None]
    assert none_at == list(outcome.skipped_psi)


def test_critical_density_validates_psi(scenario):
    with pytest.raises(ValueError):
        critical_edc_density(scenario, 0, 0.01)


def test_optimum_matches_exhaustive_enumeration(scenario, energy):
    outcome = optimize_cache_density(scenario, energy)
    scored = [(system_energy(scenario, energy, psi, lambda_e=lam).total,
               psi, lam)
              for psi, lam in zip(outcome.psi, outcome.lambda_e_crit)]
    best_e, best_psi, best_lam = min(scored)
    assert outcome.e_sys == tuple(e for e, _, _ in scored)
    assert outcome.e_sys_min == best_e
    assert outcome.best_pair.psi == best_psi
    assert outcome.best_pair.lambda_e_crit == best_lam
    assert len(outcome.psi) + len(outcome.skipped_psi) == scenario.k_total


def test_optimizer_deterministic_across_repeats(scenario, energy):
    assert optimize_cache_density(scenario, energy) == \
        optimize_cache_density(scenario, energy)


def test_feasibility_monotone_in_cache_size(scenario, energy):
    outcome = optimize_cache_density(scenario, energy)
    lam = dict(zip(outcome.psi, outcome.lambda_e_crit))
    for psi in range(1, scenario.k_total):
        if psi in lam and psi + 1 in lam:
            assert lam[psi + 1] <= lam[psi] * (1.0 + 1e-12)


def test_multipath_beats_single_path(scenario, energy):
    multi = optimize_cache_density(scenario, energy)
    single = optimize_cache_density(scenario, energy, scheme=SINGLE_PATH)
    assert multi.e_sys_min < single.e_sys_min
    # single path needs a denser deployment at the same cache size
    multi_lam = dict(zip(multi.psi, multi.lambda_e_crit))
    single_lam = dict(zip(single.psi, single.lambda_e_crit))
    for psi in (50, 144, 300, 500):
        if psi in multi_lam and psi in single_lam:
            assert single_lam[psi] >= multi_lam[psi]


def test_infeasible_budget_raises_with_budget(scenario, energy):
    s = scenario.with_params(d_max=1e-3)  # below the fixed stages
    with pytest.raises(NoFeasiblePairError) as err:
        optimize_cache_density(s, energy)
    assert err.value.budget < 0.0


def test_empty_feasible_set_raises(scenario, energy):
    # positive budget but no density can meet it at any cache size
    s = scenario.with_params(d_max=4.5e-3)
    assert reduced_delay_budget(s) > 0.0
    with pytest.raises(NoFeasiblePairError):
        optimize_cache_density(s, energy)


def test_toy_model_brute_force(energy):
    # small library, costs strictly increasing in both coordinates:
    # the optimiser must match a plain loop over the feasible pairs
    s = load_scenario(overrides={"k_total": 40, "beta": 1.2})
    outcome = optimize_cache_density(s, energy)
    best = None
    budget = reduced_delay_budget(s)
    for psi in range(1, 41):
        pair = critical_edc_density(s, psi, budget)
        if pair is None:
            continue
        e = system_energy(s, energy, psi, lambda_e=pair.lambda_e_crit).total
        key = (e, psi, pair.lambda_e_crit)
        if best is None or key < best:
            best = key
    assert best is not None
    assert outcome.e_sys_min == best[0]
    assert outcome.best_pair.psi == best[1]


# --- the grid referee -------------------------------------------------------

# densities on the referee's grid: a ratio of 1.019 between neighbours at
# the defaults, the bound on how far above e_sys_min its minimum may read
REFEREE_DENSITIES = 120


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("d_max_ms", [12, 20, 100])
def test_optimum_is_the_see_grid_minimum(energy, d_max_ms, scheme):
    # oracle: the least delay-gated system energy over every cache size
    # and a density grid, scored without the optimiser.  No feasible grid
    # point costs less than the optimum, and the one a grid step above
    # the optimum's density costs at most one grid ratio more
    s = load_scenario(overrides={"d_max_ms": d_max_ms})
    outcome = optimize_cache_density(s, energy, scheme=scheme)
    referee, ratio = see_referee(s, energy, scheme, REFEREE_DENSITIES)
    assert ratio == pytest.approx(1.0194, abs=1e-4)
    assert outcome.e_sys_min <= referee <= outcome.e_sys_min * ratio


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("d_max", [1e-3, 4.5e-3])
def test_see_grid_is_empty_where_optimize_raises(scenario, energy, d_max,
                                                 scheme):
    # a budget below the fixed stages, and a positive one that no density
    # meets: no grid point passes the delay gate either
    s = scenario.with_params(d_max=d_max)
    with pytest.raises(NoFeasiblePairError):
        optimize_cache_density(s, energy, scheme=scheme)
    assert see_referee(s, energy, scheme, REFEREE_DENSITIES)[0] == math.inf


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(beta=st.floats(0.0, 2.0), d_max_ms=st.floats(4.0, 120.0),
       b_paths=st.integers(1, 7), k_total=st.integers(1, 60),
       n=st.sampled_from([7, 30, 120]), scheme=st.sampled_from(SCHEMES))
def test_optimum_is_the_see_grid_minimum_property(energy, beta, d_max_ms,
                                                  b_paths, k_total, n,
                                                  scheme):
    # the referee reads inf exactly where the optimiser raises, and
    # otherwise within one grid ratio above its optimum
    s = load_scenario(overrides={"beta": beta, "d_max_ms": d_max_ms,
                                 "b_paths": b_paths, "k_total": k_total})
    referee, ratio = see_referee(s, energy, scheme, n)
    try:
        outcome = optimize_cache_density(s, energy, scheme=scheme)
    except NoFeasiblePairError:
        assert referee == math.inf
        return
    assert outcome.e_sys_min <= referee <= outcome.e_sys_min * ratio


def test_pairs_hold_python_scalars(scenario, energy):
    # rows are serialised with json/csv, which must not see numpy scalars;
    # at this budget small caches need a root and large ones are clamped
    s = scenario.with_params(d_max=0.065)
    outcome = optimize_cache_density(s, energy)
    budget = reduced_delay_budget(s)
    single = tuple(critical_edc_density(s, psi, budget)
                   for psi in (1, s.k_total))
    assert [p.at_lower_bound for p in single] == [False, True]
    assert outcome.at_lower_bound[0] is False
    assert outcome.at_lower_bound[-1] is True
    column_types = {"psi": int, "lambda_e_crit": float, "residual": float,
                    "at_lower_bound": bool, "e_sys": float}
    for name, kind in column_types.items():
        column = getattr(outcome, name)
        assert type(column) is tuple
        assert len(column) == len(outcome.psi)
        assert all(type(v) is kind for v in column), name
    assert all(type(psi) is int for psi in outcome.skipped_psi)
    assert type(outcome.e_sys_min) is float
    for pair in (outcome.best_pair,) + single:
        assert type(pair.psi) is int
        assert type(pair.lambda_e_crit) is float
        assert type(pair.residual) is float
        assert type(pair.at_lower_bound) is bool


# g(lo) or g(hi) this close to 0 (relative to the budget) is a tie that
# rounding may send either way
BOUNDARY_REL = 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(d_max=st.floats(4e-3, 4e-2), beta=st.floats(0.2, 1.6),
       b_paths=st.integers(1, 16), r_max_scale=st.floats(1.001, 4.0),
       lambda_s=st.floats(1.2e-5, 3e-4), psi=st.integers(1, 500))
def test_cubic_root_matches_root_finder_property(d_max, beta, b_paths,
                                                 r_max_scale, lambda_s, psi):
    # oracle: the bracket test and brentq on D(lambda) + fiber - budget,
    # with D evaluated through the public backhaul delay
    base = load_scenario()
    # just above the smallest r_max the scenario accepts for b_paths
    r_min = math.sqrt(b_paths / (math.pi * base.lambda_e))
    s = base.with_params(d_max=d_max, beta=beta, b_paths=b_paths,
                         r_max=r_max_scale * r_min, lambda_s=lambda_s)
    budget = reduced_delay_budget(s)
    fiber_terms = latency.fiber_delay(s) * (
        1.0 - zipf(beta, s.k_total).q.cumsum())
    lam, residual, status = optimizer._critical_densities(
        s, MULTIPATH, fiber_terms, budget)
    fiber_term = fiber_terms[psi - 1]

    def g(x):
        return (multipath.multipath_backhaul_delay(s, b=b_paths, lambda_e=x)
                + fiber_term - budget)

    lo, hi = multipath.density_bracket(s)
    g_lo, g_hi = g(lo), g(hi)
    if min(abs(g_lo), abs(g_hi)) <= BOUNDARY_REL * abs(budget):
        return
    if g_lo <= 0.0:
        assert status[psi - 1] == optimizer._CLAMPED
        assert (lam[psi - 1], residual[psi - 1]) == (lo, 0.0)
    elif g_hi > 0.0:
        assert status[psi - 1] == optimizer._SKIPPED
    else:
        assert status[psi - 1] == optimizer._ROOTED
        root = find_root_monotone(g, lo, hi, tol=1e-30)
        assert lam[psi - 1] == pytest.approx(root, rel=1e-10)
        assert abs(g(lam[psi - 1])) <= 1e-12 * budget
        assert residual[psi - 1] <= 1e-12 * budget


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(d_max=st.floats(4e-3, 0.1), beta=st.floats(0.2, 1.6),
       b_paths=st.integers(1, 16), scheme=st.sampled_from(SCHEMES))
def test_outcome_columns_match_scalar_api_property(energy, d_max, beta,
                                                   b_paths, scheme):
    # oracle: one critical_edc_density and one scalar system_energy call
    # per cache size, the per-pair path the columns replace
    base = load_scenario()
    r_min = math.sqrt(b_paths / (math.pi * base.lambda_e))
    s = base.with_params(d_max=d_max, beta=beta, b_paths=b_paths,
                         r_max=max(base.r_max, 1.001 * r_min))
    try:
        outcome = optimize_cache_density(s, energy, scheme=scheme)
    except NoFeasiblePairError:
        return
    budget = reduced_delay_budget(s)
    assert sorted(outcome.psi + outcome.skipped_psi) == \
        list(range(1, s.k_total + 1))
    for psi, lam, residual, at_lower_bound, e_sys in zip(
            outcome.psi, outcome.lambda_e_crit, outcome.residual,
            outcome.at_lower_bound, outcome.e_sys):
        assert e_sys == system_energy(s, energy, psi, lambda_e=lam).total
        # the closed form solves every entry on its own, from the same
        # fiber term, so a lone solve gives the same bits
        pair = critical_edc_density(s, psi, budget, scheme)
        assert pair == FeasiblePair(psi, lam, residual, at_lower_bound)
    for psi in outcome.skipped_psi:
        assert critical_edc_density(s, psi, budget, scheme) is None
    best = outcome.e_sys.index(min(outcome.e_sys))
    assert outcome.e_sys_min == outcome.e_sys[best]
    assert outcome.best_pair == FeasiblePair(
        psi=outcome.psi[best], lambda_e_crit=outcome.lambda_e_crit[best],
        residual=outcome.residual[best],
        at_lower_bound=outcome.at_lower_bound[best])


# reduced budgets of 12, 20 and 100 ms end to end, budgets nothing can
# meet (<= 0, or psi 144's fiber-miss term alone, which leaves that size
# no delay at all) and one slack enough to clamp every size of both schemes
@pytest.mark.parametrize("budget_of", [
    "d_max_ms=12", "d_max_ms=20", "d_max_ms=100", "zero", "negative",
    "fiber_only", "all_clamped"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_lone_solve_is_the_array_entry_bit_for_bit(scheme, budget_of):
    # one code path for a float and an array fiber term: every cache size
    # gets the same bits, and a RuntimeWarning (a skipped entry reaching
    # the Cardano inverse) fails the test through the warning filters
    d_max_ms = budget_of.partition("d_max_ms=")[2]
    s = load_scenario(overrides={"d_max_ms": d_max_ms} if d_max_ms else {})
    fiber_terms = optimizer._fiber_terms(s, np.arange(1, s.k_total + 1))
    budget = reduced_delay_budget(s) if d_max_ms else {
        "zero": 0.0, "negative": -1e-3, "all_clamped": 10.0,
        "fiber_only": float(fiber_terms[143])}[budget_of]
    lam, residual, status = optimizer._critical_densities(
        s, scheme, fiber_terms, budget)
    if budget_of == "all_clamped":
        assert (status == optimizer._CLAMPED).all()
    if budget_of in ("zero", "negative", "fiber_only"):
        assert (status == optimizer._SKIPPED).all()
    for psi in range(1, s.k_total + 1):
        i = psi - 1
        pair = critical_edc_density(s, psi, budget, scheme)
        lone = optimizer._critical_densities(
            s, scheme, float(fiber_terms[i]), budget)
        assert [float(v) for v in lone] == [lam[i], residual[i], status[i]]
        if status[i] == optimizer._SKIPPED:
            assert pair is None
            assert lam[i] == residual[i] == 0.0
        else:
            assert pair == FeasiblePair(
                psi=psi, lambda_e_crit=lam[i], residual=residual[i],
                at_lower_bound=bool(status[i] == optimizer._CLAMPED))



# --- the lone solve ---------------------------------------------------------

def _pair_bits(pair):
    # every field of a pair to the bit, the sign of a zero included
    if pair is None:
        return None
    return (pair.psi, pair.lambda_e_crit.hex(), pair.residual.hex(),
            pair.at_lower_bound)


def test_density_sweep_solves_each_scheme_once(capsys, monkeypatch):
    # the swept nominal density enters neither the curve, the budget nor
    # the fiber-miss term of step 1, so each see_* column is one solve
    solves, critical_densities = [], optimizer._critical_densities

    def spy(*args):
        solves.append(args[1])
        return critical_densities(*args)

    monkeypatch.setattr(optimizer, "_critical_densities", spy)
    values = ",".join(str(6 + i) for i in range(50))
    code = cli.main(["sweep", "lambda_e_per_km2", "--values", values,
                     "--targets", "see_multipath,see_single"])
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 51
    assert sorted(solves) == sorted(SCHEMES)


@pytest.mark.parametrize("psi,scheme", [
    (0, MULTIPATH), (501, MULTIPATH), (144, "two-path")])
def test_bad_psi_or_scheme_raises_before_the_memo(scenario, psi, scheme):
    with pytest.raises(ValueError):
        critical_edc_density(scenario, psi, reduced_delay_budget(scenario),
                             scheme)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(psi=st.integers(1, 60), psi2=st.integers(1, 60),
       scheme=st.sampled_from(SCHEMES),
       d_max=st.floats(4e-3, 0.1), beta=st.sampled_from([0.0, 0.8, 40.0]),
       b_paths=st.integers(1, 16),
       l_fiber=st.sampled_from([-0.0, 0.0, 1e3, 1e6]),
       budget_of=st.sampled_from(["reduced", 0.0, -0.0, -1e-3, 10.0]))
def test_memo_hit_is_the_cold_solve_bit_for_bit_property(
        psi, psi2, scheme, d_max, beta, b_paths, l_fiber, budget_of):
    # a lone solve against its entry of the array pass over every size.
    # The second scenario carries the other zero sign of l_fiber, and
    # ties with the first whenever their fiber-miss terms compare equal:
    # l_fiber = +-0, or beta = 40, where the running popularity sum is
    # 1.0 from the second content on
    base = load_scenario()
    r_min = math.sqrt(b_paths / (math.pi * base.lambda_e))
    s = base.with_params(d_max=d_max, beta=beta, b_paths=b_paths,
                         r_max=max(base.r_max, 1.001 * r_min), k_total=60,
                         l_fiber=l_fiber)
    twin = s.with_params(l_fiber=-l_fiber) if l_fiber == 0.0 else s
    budget = reduced_delay_budget(s) if budget_of == "reduced" else budget_of
    for scen, p in ((s, psi), (twin, psi2)):
        bits = _pair_bits(critical_edc_density(scen, p, budget, scheme))
        lam, residual, status = optimizer._critical_densities(
            scen, scheme,
            optimizer._fiber_terms(scen, np.arange(1, scen.k_total + 1)),
            budget)
        i = p - 1
        array_bits = None if status[i] == optimizer._SKIPPED else (
            p, float(lam[i]).hex(), float(residual[i]).hex(),
            bool(status[i] == optimizer._CLAMPED))
        assert bits == array_bits
