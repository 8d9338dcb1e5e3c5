"""Quadrature and special functions shared by the analytical modules
and the Monte-Carlo z-score.

Its routines are in numpy and ``math`` alone, so that the library
imports no scipy:

- :func:`integrate`, a batched adaptive Gauss-Kronrod rule: the 7-point
  Gauss and 15-point Kronrod pair of QUADPACK's ``qk15`` (Piessens,
  de Doncker-Kapenga, Ueberhuber and Kahaner, "QUADPACK", Springer
  1983), applied to every open cell of the partition in one vectorised
  call of the integrand.  The library integrates only the uplink and
  access success probabilities, whose integrands it maps onto a finite
  range itself.
- :func:`gamma_tail`, the regularised upper incomplete Gamma function
  at an integer order, the tail of a Gamma-distributed aggregate gain.
- :func:`beta_ladder`, the regularised incomplete Beta function along a
  ladder of first parameters, and :func:`log_gamma_ratio`, the log of a
  ratio of Gamma functions: the weights of the delivery stage's coverage
  series.
- :func:`binomial_tails`, the two tails of a binomial count: the mid-p
  z-score by which ``validate`` holds each closed form to its
  Monte-Carlo oracle.

The ladder's top rung and the binomial tails are one incomplete Beta
function, and one continued fraction with one side rule computes both:
the small tail from the fraction and the other 1 minus it.

Each is as general as its callers need and no more.
"""

import math

import numpy as np


class NumericsError(RuntimeError):
    """Raised when a quadrature or a continued fraction cannot converge."""


# a quadrature whose summed error estimate does not reach
# _REL_TOL * |estimate| within _MAX_CELLS evaluated cells raises
# NumericsError
_REL_TOL = 1e-9
_MAX_CELLS = 2000

# QUADPACK's qk15 abscissae (the positive Kronrod nodes, largest first)
# and weights; on [-1, 1] in ascending order the Gauss nodes are every
# other Kronrod node, starting from the second
_XGK = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245)
_WGK = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649)
_WGK0 = 0.209482141084727828012999174891714
_WG = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975)
_WG0 = 0.417959183673469387755102040816327
_NODES = np.array([-x for x in _XGK] + [0.0] + list(_XGK[::-1]))
_KRONROD = np.array(_WGK + (_WGK0,) + _WGK[::-1])
_GAUSS = np.array(_WG + (_WG0,) + _WG[::-1])


def integrate(f, lo, hi, cells):
    """Integrate ``f`` over the finite interval ``[lo, hi]``.

    The rule starts from ``cells`` equal cells.  Each pass evaluates
    ``f`` once on the 15 Kronrod nodes of every open cell and takes
    ``|Kronrod - Gauss|`` as each cell's error.  A cell whose error is
    within its share of ``_REL_TOL`` of the estimate (in proportion to its
    width) is closed; every other open cell is bisected.  The rule stops
    when no cell is left open or the errors of all cells sum to at most
    ``_REL_TOL`` of the estimate.

    Parameters
    ----------
    f : callable
        Vectorised integrand: maps an array of abscissae to an array of
        finite values of the same shape.
    lo, hi : float
        Finite limits, ``lo < hi``.
    cells : int
        Number of equal cells of the first pass, >= 1.

    Returns
    -------
    float
        The integral estimate.

    Raises
    ------
    NumericsError
        If the rule has not converged after ``_MAX_CELLS`` cells.
    """
    edges = np.linspace(lo, hi, cells + 1)
    left, width = edges[:-1], np.diff(edges)
    closed = closed_err = 0.0
    evaluated = 0
    while True:
        evaluated += len(left)
        half = width / 2.0
        y = f((left + half)[:, None] + half[:, None] * _NODES)
        kronrod = y @ _KRONROD * half
        err = np.abs(kronrod - y[:, 1::2] @ _GAUSS * half)
        estimate = closed + float(kronrod.sum())
        tol = _REL_TOL * abs(estimate)
        done = err <= tol * width / (hi - lo)
        if done.all() or closed_err + float(err.sum()) <= tol:
            return estimate
        if evaluated > _MAX_CELLS:
            raise NumericsError(
                f"quadrature did not converge in {_MAX_CELLS} cells "
                f"(estimate {estimate!r}, error "
                f"{closed_err + float(err.sum())!r})")
        closed += float(kronrod[done].sum())
        closed_err += float(err[done].sum())
        left, half = left[~done], half[~done]
        left, width = np.concatenate([left, left + half]), np.tile(half, 2)


# orders up to this one sum the finite series of the Gamma tail by Horner's
# rule over the whole argument array; the sum is taken at arguments up to
# _HORNER_X_CAP, beyond which the tail underflows to 0 at every such order
# while the sum is still a float
_HORNER_MAX_ORDER = 64
_HORNER_X_CAP = 2000.0
# a positive series stops once its last term is below this share of its
# sum; the terms it drops then sum to under 1e-15 of it at any order up
# to 16384
_SERIES_TOL = 1e-17
# terms in the first vectorised block of a series
_SERIES_BLOCK = 16
# below m + 1 the series P = 1 - Q is at most 162 times x^m e^-x / m!, and
# above it Q is at most m times that, for every order up to 16384; below
# e^-760 both products round to 0
_LOG_UNDERFLOW = -760.0


def gamma_tail(order, x):
    """Regularised upper incomplete Gamma function ``Q(order, x)``.

    The tail ``P(G > x)`` of a ``Gamma(order, 1)`` variable ``G``, for an
    integer ``order >= 1`` and each ``x >= 0`` of an array.  At an
    integer order it is the finite sum::

        Q(m, x) = e^-x sum_{k<m} x^k / k!

    Up to order ``_HORNER_MAX_ORDER`` that sum is one Horner pass, taken
    in logs so that ``e^-x`` never underflows on its own.  Above it, the
    lower tail ``P = 1 - Q`` is summed as the series
    ``x^m e^-x / m! sum_n x^n / ((m+1)...(m+n))`` below ``x = m + 1``, and
    the finite sum from its largest term down above it; both series have
    positive terms and their ``x^a e^-x / a!`` prefactor is computed in
    logs by :func:`_log_poisson_term`, so nothing overflows at any ``x``.
    """
    x = np.asarray(x, dtype=float)
    if order <= _HORNER_MAX_ORDER:
        x = np.minimum(x, _HORNER_X_CAP)
        total = np.full_like(x, 1.0 / math.factorial(order - 1))
        for k in range(order - 2, -1, -1):
            total *= x
            total += 1.0 / math.factorial(k)
        return np.exp(np.log(total) - x)
    low = x < order + 1.0
    tail = np.where(low, 1.0, 0.0)
    log_term = _log_poisson_term(order, x)
    # where x^m e^-x / m! is below e^_LOG_UNDERFLOW, Q rounds to 1 below
    # m + 1 and to 0 above it: neither series is needed there
    live = log_term > _LOG_UNDERFLOW
    below, above = live & low, live & ~low
    x_below, x_above = x[below], x[above]
    # P(m, x): the terms x^n / ((m+1)...(m+n)) decrease from n = 0
    tail[below] = -np.expm1(log_term[below] + np.log(_positive_series(
        lambda rows, n: x_below[rows, None] / (order + n), len(x_below))))
    # the finite sum from k = m - 1 down: its terms, over
    # x^(m-1) / (m-1)! = (x^m e^-x / m!) m / x, are
    # (m-1)(m-2)...(m-j) / x^j, which vanish from j = m on
    tail[above] = np.exp(log_term[above] + np.log(order / x_above)) * (
        _positive_series(lambda rows, j: np.maximum(order - j, 0)
                         / x_above[rows, None], len(x_above)))
    return tail


def _log_poisson_term(a, x):
    """``log(x^a e^-x / a!)`` for an integer ``a >= 16`` and an array ``x``.

    Written as ``a (log1p(d) - d) - log(2 pi a) / 2 - mu(a)`` with
    ``d = (x - a) / a`` and ``mu`` the remainder of Stirling's series
    (:func:`_stirling_remainder`), so its error is about ``eps |x - a|``:
    a rounding error of ``eps`` on each of ``a log x``, ``x`` and
    ``log a!`` would cost ``eps a log a``, 2e-11 at ``a = 16384``.
    """
    d = (x - a) / a
    with np.errstate(divide="ignore"):
        # x so far below a that d rounds to -1: the term is 0
        lead = a * (np.log1p(d) - d)
    return lead - 0.5 * math.log(2.0 * math.pi * a) - _stirling_remainder(a)


def _positive_series(ratios, rows):
    """Sum ``1 + sum_n prod_{i<=n} r_i`` of a series per row.

    ``ratios(open_rows, n)`` maps an array of row indices and an integer
    array of term indices ``n >= 1`` to a ``(len(open_rows), len(n))``
    array of non-negative, non-increasing term ratios ``r_n``.  The terms
    are summed in blocks that double from ``_SERIES_BLOCK``, each over
    the rows whose last term is still above ``_SERIES_TOL`` of their sum.
    """
    total, last = np.ones(rows), np.ones(rows)
    open_rows = np.arange(rows)
    start, size = 1, _SERIES_BLOCK
    while len(open_rows):
        block = np.cumprod(ratios(open_rows, np.arange(start, start + size)),
                           axis=1) * last[open_rows, None]
        total[open_rows] += block.sum(axis=1)
        last[open_rows] = block[:, -1]
        open_rows = open_rows[block[:, -1] > _SERIES_TOL * total[open_rows]]
        start, size = start + size, 2 * size
    return total


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# Stirling's series is summed from this argument up
_STIRLING_MIN = 16.0


def _stirling_remainder(z):
    """``mu(z) = lgamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2)``, z > 0.

    From ``_STIRLING_MIN`` up it is Stirling's series to ``z^-11``, whose
    next term is under 2e-18; below, where ``Gamma(z)`` is under 1.4e12,
    it is that difference, with ``log(math.gamma(z))``: ``math.lgamma`` is
    off by several ulps.
    """
    if z < _STIRLING_MIN:
        return (math.log(math.gamma(z))
                - ((z - 0.5) * math.log(z) - z + _HALF_LOG_2PI))
    inv2 = 1.0 / (z * z)
    return (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 * (1.0 / 1260.0 - inv2 * (
        1.0 / 1680.0 - inv2 * (1.0 / 1188.0 - inv2 * (691.0 / 360360.0)))))
            ) / z


def log_gamma_ratio(z, s):
    """``log(Gamma(z + s) / Gamma(z))`` for ``z > 0`` and ``z + s > 0``.

    From ``_STIRLING_MIN`` up it is Stirling's form
    ``(z - 1/2) log1p(s / z) + s log(z + s) - s + mu(z + s) - mu(z)``,
    whose terms are of the size of the result, where the difference of
    two log-Gamma values would lose ``eps log Gamma(z)`` to cancellation.
    """
    if min(z, z + s) < _STIRLING_MIN:
        return math.log(math.gamma(z + s) / math.gamma(z))
    return ((z - 0.5) * math.log1p(s / z) + s * math.log(z + s) - s
            + _stirling_remainder(z + s) - _stirling_remainder(z))


# the continued fraction of the incomplete Beta function stops once a
# step changes it by less than this share; at a, b >= 1 it takes at most
# about sqrt(a + b) steps (142 at the top rung of order 16384, about
# 4500 at a + b = 1e9), and raises NumericsError after _MAX_CF_STEPS
_CF_TOL = 3e-16
_MAX_CF_STEPS = 100_000


def beta_ladder(a, b, n, theta):
    """``I_x(a + j, b)`` for ``j = 0..n-1`` at ``x = theta / (1 + theta)``.

    ``I_x`` is the regularised incomplete Beta function, ``a > 0``,
    ``b >= 1`` and ``theta > 0`` the odds of ``x``.  ``x`` and
    ``y = 1 - x`` are never subtracted: both come from ``theta``, so a
    ``theta`` up to the largest float keeps every digit.  The top rung
    ``I_x(a + n - 1, b)`` comes from :func:`_beta_tails`, the continued
    fraction that also serves :func:`binomial_tails`.  A top rung below
    1 is one step down from ``I_x(a + 1, b)``: at so small a first
    parameter the fraction needs about ``a^-1/2`` steps just above the
    mean (1.4e4 at ``a = 5e-7``).  Every rung below the top adds one
    positive step to the rung above::

        I_x(c, b) = I_x(c + 1, b) + x^c y^b / (c B(c, b))

    The step rises with ``c`` up to ``(x b - 1) / y`` and falls beyond.
    The largest step on the ladder comes from :func:`_log_beta_power`,
    and the others from it by products of the ratio
    ``x (c + b) / (c + 1)`` of neighbouring steps or its inverse, each
    below 1, so no step overflows and only steps negligible beside the
    largest underflow.  The ladder has no cancellation; its relative
    error grows by a few ``eps`` per rung from the largest step.
    """
    if n == 1 and a < 1.0:
        return beta_ladder(a, b, 2, theta)[:1]
    x, y = theta / (1.0 + theta), 1.0 / (1.0 + theta)
    top = a + (n - 1)
    ladder = [_beta_tails(top, b, x, y)[0]] * n
    if n > 1:
        # the rung of the largest step: the first at or above the peak
        rise = x * b - 1.0
        k = n - 2 if rise >= y * (top - 1.0) else max(
            0, math.ceil(rise / y - a))
        steps = [0.0] * (n - 1)
        steps[k] = math.exp(_log_beta_power(a + k, b, x, y)) / (a + k)
        for j in range(k + 1, n - 1):
            c = a + (j - 1)
            steps[j] = steps[j - 1] * (x * (c + b) / (c + 1.0))
        for j in range(k - 1, -1, -1):
            c = a + j
            steps[j] = steps[j + 1] * ((c + 1.0) / (x * (c + b)))
        for j in range(n - 2, -1, -1):
            ladder[j] = ladder[j + 1] + steps[j]
    return np.array(ladder)


def binomial_tails(n, p, j):
    """``(P(X < j), P(X >= j))`` for ``X ~ Binomial(n, p)``.

    For an integer ``0 < j <= n`` and ``0 < p < 1``, ``P(X >= j)`` is the
    regularised incomplete Beta function ``I_p(j, n - j + 1)`` and
    ``P(X < j)`` is ``I_q(n - j + 1, j)``, ``q = 1 - p``: the pair of
    :func:`_beta_tails`, the continued fraction that also serves
    :func:`beta_ladder`.  The tail on the far side of ``j`` from the mean
    comes from the fraction and the other is 1 minus it, so a small tail
    is never a difference: it keeps its relative precision down to the
    smallest normal float and underflows to 0 only below it.
    """
    if not (0.0 < p < 1.0 and 0 < j <= n):
        raise ValueError(
            f"need 0 < p < 1 and 0 < j <= n (got n={n!r}, p={p!r}, j={j!r})")
    at_least, below = _beta_tails(float(j), float(n - j + 1), p, 1.0 - p)
    return below, at_least


def _log_beta_power(a, b, x, y):
    """``log(x^a y^b / B(a, b))`` for ``a, b > 0`` and ``y = 1 - x``.

    With each log-Gamma in Stirling's form and ``n = a + b``, it is::

        a f(x n / a) + b f(y n / b) + log(a b / (2 pi n)) / 2
        + mu(n) - mu(a) - mu(b),        f(r) = log r - (r - 1)

    since ``a (x n / a - 1) + b (y n / b - 1) = n (x + y - 1) = 0``.  Where
    the power is not negligible both ``f`` are small, and the error is
    about ``eps (|x n - a| + |y n - b|)``; summing ``a log x``, ``b log y``
    and three log-Gamma values would cost ``eps n log n``, 1e-11 relative
    at ``n = 32768``.
    """
    n = a + b
    rx, ry = x * n / a, y * n / b
    return (a * (math.log(rx) - (rx - 1.0)) + b * (math.log(ry) - (ry - 1.0))
            + 0.5 * math.log(a * b / (2.0 * math.pi * n))
            + _stirling_remainder(n) - _stirling_remainder(a)
            - _stirling_remainder(b))


def _beta_tails(a, b, x, y):
    """``(I_x(a, b), I_y(b, a))`` for ``a, b >= 1``, ``0 < x < 1`` and
    ``y = 1 - x``.

    The tail on the far side of ``x`` from the mean ``a / (a + b)`` is
    the front factor ``x^a y^b / B(a, b)`` (:func:`_log_beta_power`)
    times the continued fraction :func:`_beta_fraction_below_mean`, at
    most about 0.64, and the other tail is 1 minus it.
    """
    front = math.exp(_log_beta_power(a, b, x, y))
    if x * (a + b) <= a:
        small = front * _beta_fraction_below_mean(a, b, x, y)
        return small, 1.0 - small
    small = front * _beta_fraction_below_mean(b, a, y, x)
    return 1.0 - small, small


def _beta_fraction_below_mean(a, b, x, y):
    """``I_x(a, b) B(a, b) / (x^a y^b)`` for ``0 < x <= a / (a + b)``.

    The continued fraction BFRAC of Didonato and Morris (ACM Trans. Math.
    Softw. 18(3), 1992, algorithm 708), by its three-term recurrence,
    rescaled at every step.  It reads the distance from the mean,
    ``lambda = a - (a + b) x = (a + b) y - b``, from ``x`` where
    ``a <= b`` and from ``y = 1 - x`` otherwise, so ``lambda`` is off by
    about ``eps min(a, b)``; no term is a difference from 1.  The
    modified Lentz form of the classic fraction (Press et al.,
    "Numerical Recipes", 3rd ed., section 6.4) would not do: where ``x``
    is near 1, its first steps cancel to about ``y`` and lose ``eps / y``
    of relative precision, about 3e-10 for a count of mean 3 in 1e7
    trials.
    """
    lam = a - (a + b) * x if a <= b else (a + b) * y - b
    c = 1.0 + lam
    c0, c1, yp1 = b / a, 1.0 + 1.0 / a, 1.0 + y
    p, s = 1.0, a + 1.0
    an, bn, anp1, bnp1 = 0.0, 1.0, 1.0, c / c1
    r = c1 / c
    for m in range(1, _MAX_CF_STEPS + 1):
        t = m / a
        w = m * (b - m) * x
        e = a / s
        alpha = p * (p + c0) * e * e * (w * x)
        beta = m + w / s + (1.0 + t) / (c1 + 2.0 * t) * (c + m * yp1)
        p, s = 1.0 + t, s + 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r0, r = r, anp1 / bnp1
        if abs(r - r0) <= _CF_TOL * r:
            return r
        an, bn, anp1, bnp1 = an / bnp1, bn / bnp1, r, 1.0
    raise NumericsError(
        f"incomplete Beta continued fraction did not converge in "
        f"{_MAX_CF_STEPS} steps (a={a!r}, b={b!r}, x={x!r})")
