import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from mcrnet import numerics
from mcrnet.numerics import NumericsError
from oracles import (erf_fn, find_root_monotone, gamma_fn,
                     integrate_semi_infinite)

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


def test_cli_import_loads_no_scipy_subpackage_but_special():
    # scipy.integrate alone pulls in optimize, sparse and linalg, most of
    # the command line's start-up time
    code = ("import sys, mcrnet.cli; print(' '.join(sorted(m for m in "
            "sys.modules if m.split('.')[:2] in (['scipy', 'integrate'], "
            "['scipy', 'optimize'], ['scipy', 'sparse'], "
            "['scipy', 'linalg']))))")
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]]
                      if os.environ.get("PYTHONPATH") else [])))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60).stdout
    assert out.split() == []


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
