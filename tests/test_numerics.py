import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from mcrnet import numerics
from mcrnet.numerics import NumericsError
from oracles import (binomial_grid, erf_fn, find_root_monotone, gamma_fn,
                     integrate_semi_infinite)

EPS = sys.float_info.epsilon

# 30-digit reference values (independent high-precision computation)
ERF_1 = 0.842700792949714869341220635083
ERF_HALF = 0.520499877813046537682746653892


def test_gamma_integers():
    assert gamma_fn(1) == 1.0
    assert gamma_fn(5) == 24.0
    for p in range(1, 12):
        assert gamma_fn(p) == pytest.approx(math.factorial(p - 1), rel=1e-15)


def test_gamma_half():
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)


def test_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        gamma_fn(0.0)
    with pytest.raises(ValueError):
        gamma_fn(-3.2)


def test_gamma_recurrence_grid():
    # Gamma(x + 1) = x Gamma(x) to 1e-10 relative on [0.5, 20]
    for x in np.linspace(0.5, 20.0, 79):
        assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-10)


def test_erf_basics():
    assert erf_fn(0.0) == 0.0
    assert erf_fn(1.0) == pytest.approx(ERF_1, abs=1e-12)
    assert erf_fn(0.5) == pytest.approx(ERF_HALF, abs=1e-12)
    for x in np.linspace(-4, 4, 33):
        assert erf_fn(x) == -erf_fn(-x)
        assert -1.0 < erf_fn(x) < 1.0 or x == 0.0


def test_integrate_exponential():
    assert integrate_semi_infinite(lambda x: math.exp(-x)) == pytest.approx(
        1.0, rel=1e-9)


def test_integrate_gaussian_tail():
    lam = 3.7e-6
    val = integrate_semi_infinite(lambda x: math.exp(-lam * math.pi * x * x))
    assert val == pytest.approx(1.0 / (2.0 * math.sqrt(lam)), rel=1e-9)


@pytest.mark.parametrize("p", range(1, 9))
def test_integrate_kth_distance_pdf_normalises(p):
    lam = 1e-5

    def pdf(r):
        xi = lam * math.pi * r * r
        return math.exp(-xi) * 2.0 * xi ** p / (r * math.gamma(p))

    assert integrate_semi_infinite(pdf, 1e-12) == pytest.approx(1.0, abs=1e-8)


def test_integrate_rejects_nondecaying():
    with pytest.raises(NumericsError):
        integrate_semi_infinite(lambda x: math.sin(x) + 1.5)


def test_integrate_rejects_truncation_that_drops_a_slow_tail():
    # the integral is 2000, almost all of it beyond any domain a
    # truncation could keep; the quadrature must raise, not cut it off
    with pytest.raises(NumericsError, match="did not converge"):
        integrate_semi_infinite(lambda v: v ** -1.0005, 1.0)


# --- the library's Gauss-Kronrod rule ---------------------------------------

@pytest.mark.parametrize("degree", range(23))
def test_rule_is_exact_on_polynomials_to_the_kronrod_degree(degree):
    # the 15-point Kronrod rule integrates degree 3 * 7 + 1 = 22 exactly;
    # the 7-point Gauss rule only to 13, so above that the rule bisects
    # until the two agree
    val = numerics.integrate(lambda x: x ** degree, -1.0, 2.0, 1)
    exact = (2.0 ** (degree + 1) - (-1.0) ** (degree + 1)) / (degree + 1)
    assert val == pytest.approx(exact, rel=1e-14)


def test_rule_evaluates_each_pass_in_one_call():
    shapes = []

    def f(x):
        shapes.append(x.shape)
        return np.exp(-x)

    val = numerics.integrate(f, 0.0, 50.0, 8)
    assert val == pytest.approx(-math.expm1(-50.0), rel=1e-9)
    assert shapes[0] == (8, 15)
    assert all(shape[1] == 15 for shape in shapes)


def test_rule_keeps_relative_digits_of_a_tiny_integral():
    # no absolute floor: an integral of 1e-30 keeps 9 digits
    val = numerics.integrate(lambda x: 1e-30 * np.cos(x), 0.0, 1.0, 1)
    assert val == pytest.approx(1e-30 * math.sin(1.0), rel=1e-9)


def test_rule_converges_across_a_step():
    # the cell that holds the jump shrinks until its share of the error
    # is small enough, with each bisection halving it
    val = numerics.integrate(lambda x: (x > 1.0 / 3.0) * 1.0, 0.0, 1.0, 4)
    assert val == pytest.approx(2.0 / 3.0, rel=1e-9)


def test_rule_rejects_a_non_integrable_singularity():
    with pytest.raises(NumericsError, match="did not converge"):
        numerics.integrate(lambda x: 1.0 / x, 0.0, 1.0, 1)


def test_rule_returns_zero_for_a_zero_integrand():
    assert numerics.integrate(np.zeros_like, -3.0, 5.0, 16) == 0.0


# --- the special functions of the stage closed forms ----------------------
# scipy.special is the reference here only: the library computes the Gamma
# tail and the incomplete Beta ladder in numpy and math.  Where the
# reference exceeds 1e-290 the library agrees to 1e-12 relative up to
# order 64 and 1e-10 up to 16384; below that it stays under 1e-280.

SPECIAL_ORDERS = (1, 2, 3, 4, 8, 16, 64, 1024, 16384)
LADDER_THETAS = (1e-12, 1e-3, 0.1, 1.0, 10.0, 1e3, 1e8, 1e200, 1e308)
LADDER_ALPHAS = (2.0001, 2.5, 3.5, 6.0)


def assert_close_to_reference(value, ref, order):
    value, ref = np.asarray(value), np.asarray(ref)
    big = ref > 1e-290
    rel = 1e-12 if order <= 64 else 1e-10
    np.testing.assert_allclose(value[big], ref[big], rtol=rel, atol=0.0)
    assert (value[~big] < 1e-280).all()


def gamma_tail_args(order):
    # 1e-20 to e^700, plus the knee around the order
    spread = 8.0 * math.sqrt(order)
    return np.concatenate([
        np.geomspace(1e-20, math.exp(700.0), 2001),
        np.linspace(max(order - spread, 0.0), order + spread, 401)])


@pytest.mark.parametrize("order", SPECIAL_ORDERS)
def test_gamma_tail_matches_scipy(order):
    x = gamma_tail_args(order)
    assert_close_to_reference(numerics.gamma_tail(order, x),
                              special.gammaincc(order, x), order)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(order=st.integers(min_value=1, max_value=16384),
       log_x=st.floats(min_value=math.log(1e-20), max_value=700.0))
def test_gamma_tail_matches_scipy_property(order, log_x):
    # around the order as well as across the whole range
    x = np.array([math.exp(log_x), order * math.exp(log_x / 700.0)])
    assert_close_to_reference(numerics.gamma_tail(order, x),
                              special.gammaincc(order, x), order)


@pytest.mark.parametrize("x", [15744.0, 16256.0, 16383.0, 16383.5, 16384.0,
                               16384.5, 16385.0, 16385.5, 16512.0, 17024.0])
def test_gamma_tail_at_order_16384_matches_mpmath(x):
    # both series meet at x = order + 1, where the tail is about 1/2
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        exact = float(mpmath.gammainc(16384, x, mpmath.inf, regularized=True))
    assert numerics.gamma_tail(16384, np.array([x]))[0] == pytest.approx(
        exact, rel=1e-13, abs=0.0)


def test_gamma_tail_is_exact_at_the_ends():
    x = np.array([0.0, 1e-300, 1e300, 1.7e308])
    for order in (1, 4, 64, 65, 16384):
        assert numerics.gamma_tail(order, x).tolist() == [1.0, 1.0, 0.0, 0.0]


def ladder_reference(order, theta, alpha):
    s = 2.0 / alpha
    q = np.arange(1, max(order - 1, 1) + 1)
    return special.betainc(q - s, order + s, theta / (1.0 + theta))


def ladder(order, theta, alpha):
    s = 2.0 / alpha
    return numerics.beta_ladder(1.0 - s, order + s, max(order - 1, 1), theta)


def side_rule_thetas(order, alpha):
    """The odds ``a / b`` at which the continued fraction switches sides,
    and the two neighbouring floats that lie on either side of the
    switch as it is rounded.  The fraction runs at the top rung's first
    parameter ``a`` (at orders 1 and 2, where that is below 1, one rung
    above it) and switches where ``x (a + b) = a``."""
    s = 2.0 / alpha
    a, b = (1.0 - s) + (max(order - 1, 2) - 1), order + s

    def below_mean(theta):
        return theta / (1.0 + theta) * (a + b) <= a

    theta = a / b
    while below_mean(theta):
        theta = math.nextafter(theta, math.inf)
    while not below_mean(theta):
        theta = math.nextafter(theta, 0.0)
    return [a / b, theta, math.nextafter(theta, math.inf)]


@pytest.mark.parametrize("order", SPECIAL_ORDERS)
@pytest.mark.parametrize("alpha", LADDER_ALPHAS)
def test_beta_ladder_matches_scipy(order, alpha):
    for theta in LADDER_THETAS:
        assert_close_to_reference(ladder(order, theta, alpha),
                                  ladder_reference(order, theta, alpha), order)
    tops = []
    for theta in side_rule_thetas(order, alpha):
        value = ladder(order, theta, alpha)
        assert_close_to_reference(value, ladder_reference(order, theta, alpha),
                                  order)
        tops.append(value[-1])
    # the top rung is continuous across the switch
    assert max(tops) - min(tops) <= 1e-13 * max(tops)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(order=st.integers(min_value=1, max_value=16384),
       theta_db=st.floats(min_value=-120.0, max_value=3080.0),
       alpha=st.floats(min_value=2.0001, max_value=6.0))
def test_beta_ladder_matches_scipy_property(order, theta_db, alpha):
    theta = 10.0 ** (theta_db / 10.0)
    assert_close_to_reference(ladder(order, theta, alpha),
                              ladder_reference(order, theta, alpha), order)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("alpha", [2.0 + 1e-9, 2.0 + 1e-12])
def test_beta_ladder_near_alpha_two_matches_scipy(order, alpha):
    # a top rung whose first parameter 1 - 2/alpha is near 0: just above
    # the mean, the fraction there would need about a^-1/2 steps
    for theta in [*LADDER_THETAS, *side_rule_thetas(order, alpha)]:
        assert_close_to_reference(ladder(order, theta, alpha),
                                  ladder_reference(order, theta, alpha), order)


def test_beta_ladder_rises_to_one_at_the_largest_threshold():
    # x = 1 - 1e-308: every rung is 1 without a subtraction from 1
    assert (ladder(16, 1e308, 3.5) == 1.0).all()


# --- the binomial tails of the mid-p z-score ------------------------------


def test_binomial_tails_match_scipy_on_the_grid():
    # scipy's betainc rounds 1 - x itself, and a tail of n trials moves by
    # up to n times that rounding, so its own error grows to about
    # n eps; the 50-digit tests below hold the library to 1e-12
    for n, p, k in binomial_grid():
        for j in (k, k + 1):
            if 0 < j <= n:
                value = numerics.binomial_tails(n, p, j)
                ref = (special.betaincc(j, n - j + 1, p),
                       special.betainc(j, n - j + 1, p))
                rel = 1e-10 + n * EPS
                for v, r in zip(value, ref):
                    if r > 1e-290:
                        assert v == pytest.approx(r, rel=rel, abs=0.0), (
                            n, p, j)
                    else:
                        assert v < 1e-280, (n, p, j)


def pmf_tails(n, p, j, width):
    """``(P(X < j), P(X >= j))`` for ``X ~ Binomial(n, p)`` at 50 digits,
    each a sum of at most ``width`` pmf terms on its side of ``j``, taken
    for ``X`` or, where ``p > 1/2``, for ``n - X``: exact where that
    count's mean is so far below ``width`` that the terms beyond are
    negligible."""
    if p > 0.5:
        below, at_least = pmf_tails(n, 1.0 - p, n - j + 1, width)
        return at_least, below
    with mpmath.workdps(50):
        p = mpmath.mpf(p)

        def tail(lo, hi):
            return float(mpmath.fsum(
                mpmath.binomial(n, i) * p ** i * (1 - p) ** (n - i)
                for i in range(max(lo, 0), min(hi, n + 1))))

        return tail(j - width, j), tail(j, j + width)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 60])
@pytest.mark.parametrize("p", [1e-9, 1e-3, 0.3, 0.5, 0.77, 1.0 - 1e-6,
                               1.0 - 1e-9])
def test_binomial_tails_match_pmf_sums(n, p):
    for j in range(1, n + 1):
        assert_close_to_reference(numerics.binomial_tails(n, p, j),
                                  pmf_tails(n, p, j, n + 1), n)


@pytest.mark.parametrize("p,j", [
    # tails below 1e-200 on either side: each comes from the fraction
    (1e-9, 61), (1.0 - 1e-9, 10 ** 7 - 60),
    # a count of mean 3 and its mirror: the fraction runs at an argument
    # near 1, where it must not lose eps / (1 - x)
    *((3e-7, j) for j in range(1, 9)),
    *((1.0 - 3e-7, 10 ** 7 - j) for j in range(0, 8))])
def test_binomial_tails_at_ten_million_trials_match_pmf_sums(p, j):
    value = numerics.binomial_tails(10 ** 7, p, j)
    ref = pmf_tails(10 ** 7, p, j, 200)
    assert min(ref) > 1e-210
    assert value == pytest.approx(ref, rel=1e-12, abs=0.0)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.integers(min_value=2, max_value=10 ** 9),
       log_q=st.floats(min_value=math.log(1e-12), max_value=math.log(0.5)),
       upper=st.booleans(),
       z=st.floats(min_value=-40.0, max_value=40.0))
def test_binomial_tails_property(n, log_q, upper, z):
    q = math.exp(log_q)
    p = 1.0 - q if upper else q
    j = min(max(round(n * p + z * math.sqrt(n * p * (1.0 - p))), 1), n - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        below, at_least = numerics.binomial_tails(n, p, j)
        next_below, next_at_least = numerics.binomial_tails(n, p, j + 1)
    for tails in ((below, at_least), (next_below, next_at_least)):
        assert all(0.0 <= t <= 1.0 for t in tails)
        assert abs(sum(tails) - 1.0) <= 2.0 * EPS
    assert below <= next_below


@pytest.mark.parametrize("fn,args,message", [
    # the fraction's own arguments: the far side from the mean
    (numerics.beta_ladder, (0.4, 4.6, 3, 1.0), "a=4.6, b=2.4, x=0.5"),
    (numerics.binomial_tails, (100, 0.3, 20), "a=81.0, b=20.0, x=0.7"),
    (numerics.binomial_tails, (100, 0.3, 40), "a=40.0, b=61.0, x=0.3")])
def test_unconverged_beta_fraction_is_a_named_error(monkeypatch, fn, args,
                                                    message):
    monkeypatch.setattr(numerics, "_MAX_CF_STEPS", 1)
    with pytest.raises(NumericsError, match=re.escape(
            f"did not converge in 1 steps ({message})")):
        fn(*args)


@pytest.mark.parametrize("n,p,j", [(10, 0.0, 3), (10, 1.0, 3), (10, 0.5, 0),
                                   (10, 0.5, 11), (10, math.nan, 3)])
def test_binomial_tails_reject_arguments_off_their_domain(n, p, j):
    with pytest.raises(ValueError, match="0 < j <= n"):
        numerics.binomial_tails(n, p, j)


def run_python(code):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]]
                      if os.environ.get("PYTHONPATH") else [])))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120).stdout


# the scipy modules a fresh process has loaded, one line per checkpoint
SCIPY_LOADED = ("print(' '.join(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy')) or '-')\n")


def test_cli_import_and_closed_form_commands_load_no_scipy():
    # scipy is not a runtime dependency, and its import would be most of
    # the command line's start-up time: no command loads it, validate's
    # mid-p z-score included
    code = (
        "import os, sys\n"
        "import mcrnet.cli as cli\n"
        + SCIPY_LOADED +
        "targets = ','.join(cli.TARGETS)\n"
        "for argv in (['optimize'], ['optimize', '--scheme', 'single-path'],"
        " ['sweep', 'psi', '--values', '1,100,400', '--targets', targets],"
        " ['sweep', 'lambda_e_per_km2', '--values', '5,20,80', '--targets',"
        " targets]):\n"
        "    assert cli.main(argv + ['--out', os.devnull]) == 0, argv\n"
        + SCIPY_LOADED +
        "for argv in (['validate', '--trials', '2000'],"
        " ['validate', '--trials', '2000', '--format', 'json']):\n"
        "    assert cli.main(argv + ['--out', os.devnull]) == 0, argv\n"
        + SCIPY_LOADED)
    assert run_python(code).split("\n")[:3] == ["-", "-", "-"]


def test_runtime_dependencies_name_only_numpy():
    # scipy is a test reference only: no module of the library imports it
    tomllib = pytest.importorskip("tomllib")
    root = pathlib.Path(__file__).resolve().parent.parent
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", requirement).group()
             for requirement in project["dependencies"]]
    assert names == ["numpy"]
    assert any(requirement.startswith("scipy")
               for requirement in project["optional-dependencies"]["test"])


def test_root_linear():
    assert find_root_monotone(lambda x: x - 2.0, 0.0, 5.0, 1e-12) == \
        pytest.approx(2.0, abs=1e-12)


def test_root_inverse_sqrt():
    root = find_root_monotone(lambda x: 1.0 / math.sqrt(x) - 1.0, 0.25, 4.0,
                              1e-12)
    assert root == pytest.approx(1.0, abs=1e-10)


def test_root_requires_sign_change():
    with pytest.raises(NumericsError):
        find_root_monotone(lambda x: x + 10.0, 0.0, 1.0, 1e-12)


def test_root_bracket_invariance():
    def g(x):
        return math.tanh(x - 1.3)

    tol = 1e-10
    tight = find_root_monotone(g, 1.0, 2.0, tol)
    wide = find_root_monotone(g, 0.01, 7.0, tol)
    assert abs(tight - wide) < tol
