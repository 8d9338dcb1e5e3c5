"""Finite-interval quadrature shared by the analytical modules.

A batched adaptive Gauss-Kronrod rule: the 7-point Gauss and 15-point
Kronrod pair of QUADPACK's ``qk15`` (Piessens, de Doncker-Kapenga,
Ueberhuber and Kahaner, "QUADPACK", Springer 1983), applied to every open
cell of the partition in one vectorised call of the integrand.  The
library integrates only the uplink and access success probabilities,
whose integrands it maps onto a finite range itself, so the surface here
is small on purpose.  Every other stage has a closed form.
"""

import numpy as np


class NumericsError(RuntimeError):
    """Raised when a quadrature routine cannot converge."""


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
