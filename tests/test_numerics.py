import math

import numpy as np
import pytest

from mcrnet.numerics import NumericsError, integrate_semi_infinite
from oracles import erf_fn, find_root_monotone, gamma_fn

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
