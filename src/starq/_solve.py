"""Small numerical solvers used by the fits, written with numpy and math only.

``minimize_bounded`` is a line-for-line port of the bounded Brent
(golden-section plus parabolic interpolation) minimizer behind
``scipy.optimize.minimize_scalar(method="bounded")``, itself after Forsythe,
Malcolm and Moler's ``fmin``. It keeps scipy's tolerance rule and iteration
order, so it visits the same points and returns the same minimizer.

``least_squares_box`` is a projected Levenberg-Marquardt loop for a few
parameters with lower bounds only. Each trial point's one normal matrix,
``[J | r]ᵀ[J | r]``, holds ``JᵀJ``, ``Jᵀr`` and ``rᵀr`` as Python floats.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Callable, NamedTuple

import numpy as np

_EPS = 2.2e-16
_SQRT_EPS = math.sqrt(_EPS)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
# Evaluation cap of the bounded search; scipy's default ``maxfun``.
_MAX_EVALUATIONS = 500
# Absolute tolerance of the bounded search (scipy's ``xatol``) in every fit.
_XATOL = 1e-10
# Iteration cap and relative step/gradient tolerance of the least-squares loop.
_MAX_ITERATIONS = 100
_TOL = 1e-13


class BoundedMinimum(NamedTuple):
    """Outcome of :func:`minimize_bounded`.

    ``status`` is ``"converged"``, ``"max_evaluations"`` or ``"nan"``;
    ``at_bound`` is the bound ``x`` ended within the final tolerance of, or
    ``None`` for an interior minimum.
    """

    x: float
    fun: float
    nfev: int
    status: str
    at_bound: float | None


def minimize_bounded(
    f: Callable[[float], float],
    lo: float,
    hi: float,
) -> BoundedMinimum:
    """Minimize a scalar function of one variable on ``[lo, hi]``.

    The bounds must be finite with ``lo < hi``.

    Stops once the bracket around the best point is within
    ``2 * (sqrt_eps * |x| + xatol / 3)`` of it on both sides, with scipy's
    absolute tolerance ``xatol`` fixed at 1e-10.
    """
    a, b = lo, hi
    v = w = x = a + _GOLDEN * (b - a)
    fv = fw = fx = f(x)
    nfev = 1
    fu = math.inf
    d = e = 0.0
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(x) + _XATOL / 3.0
    tol2 = 2.0 * tol1
    status = "converged"

    while abs(x - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # Try a parabola through x, w and v.
            golden = False
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = d
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                d = p / q
                u = x + d
                if u - a < tol2 or b - u < tol2:
                    d = tol1 if xm >= x else -tol1
            else:
                golden = True
        if golden:
            e = (a - x) if x >= xm else (b - x)
            d = _GOLDEN * e

        u = x + (1.0 if d >= 0 else -1.0) * max(abs(d), tol1)
        fu = f(u)
        nfev += 1

        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv = w, fw
            w, fw = x, fx
            x, fx = u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv = w, fw
                w, fw = u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + _XATOL / 3.0
        tol2 = 2.0 * tol1
        if nfev >= _MAX_EVALUATIONS:
            status = "max_evaluations"
            break

    if math.isnan(x) or math.isnan(fx) or math.isnan(fu):
        status = "nan"
    at_bound = None
    if x - lo <= tol2:
        at_bound = lo
    elif hi - x <= tol2:
        at_bound = hi
    return BoundedMinimum(x=x, fun=fx, nfev=nfev, status=status, at_bound=at_bound)


class BoxLeastSquares(NamedTuple):
    """Outcome of :func:`least_squares_box`.

    ``status`` is ``"converged"`` (the step or the scaled gradient fell below
    tolerance), ``"stalled"`` (no damped step improved on the current point)
    or ``"max_iterations"``.
    """

    x: np.ndarray
    sse: float
    nit: int
    status: str


def least_squares_box(jac_resid: Callable[[list], np.ndarray], x0, lower) -> BoxLeastSquares:
    """Minimize ``sum(r(x)**2)`` subject to ``x >= lower``.

    ``jac_resid(x)`` takes the point as a list of floats and returns
    ``[J | r]``, an ``(n, k + 1)`` float array that it may refill on every
    call. Each step solves the Marquardt-scaled damped normal equations over
    the free variables: those above their bound, plus those at it whose
    descent direction points inward. Every trial point is projected onto the
    bounds, evaluated, and accepted if it lowers the sum of squares or, within
    rounding of the sum, the scaled gradient. A step that moves each variable
    by at most 1e-13 of its value ends the loop, whatever the unit of ``x``.
    The result never scores worse than ``x0`` projected onto the bounds.
    """
    k = len(lower)
    lower = [float(v) for v in lower]
    x = x_start = [max(float(v), lo) for v, lo in zip(x0, lower)]
    a = jac_resid(x)
    m = (a.T @ a).tolist()  # rows of JᵀJ, each with its entry of Jᵀr; last row Jᵀr, rᵀr
    sse_start = sse = m[k][k]
    damping, status, nit = 1e-3, "max_iterations", 0
    while nit < _MAX_ITERATIONS:
        grad = m[k]
        free = [i for i in range(k) if x[i] > lower[i] or grad[i] < 0.0]
        scale = [math.sqrt(m[i][i]) or 1.0 for i in free]
        g = [grad[i] / si for i, si in zip(free, scale)]
        if sse == 0.0 or not free or (g_max := max(map(abs, g))) <= _TOL * math.sqrt(sse):
            status = "converged"
            break
        h = [[m[i][j] / (si * sj) for j, sj in zip(free, scale)] for i, si in zip(free, scale)]
        while damping <= 1e16:
            z = _damped_solve(h, damping, g)
            if z is not None:
                trial = x.copy()
                for i, zi, si in zip(free, z, scale):
                    trial[i] = max(x[i] + zi / si, lower[i])
                a = jac_resid(trial)
                m_trial = (a.T @ a).tolist()
                sse_trial = m_trial[k][k]
                if sse_trial < sse or (
                    sse_trial <= sse * (1.0 + 64 * _EPS)
                    and max(abs(m_trial[k][i]) / si for i, si in zip(free, scale)) < g_max
                ):
                    break
            damping *= 10.0
        else:
            status = "stalled"
            break
        nit += 1
        small_step = all(abs(u - v) <= _TOL * abs(v) for u, v in zip(trial, x))
        x, m, sse = trial, m_trial, sse_trial
        damping = max(damping * 0.1, 1e-12)
        if small_step:
            status = "converged"
            break
    if sse > sse_start:
        x, sse = x_start, sse_start
    return BoxLeastSquares(np.array(x), sse, nit, status)


def _damped_solve(h, damping, g):
    # z with (h + damping * I) z = -g by elimination without pivoting, or None
    # where a pivot shows the matrix is not numerically positive definite.
    a = [[*row, -gi] for row, gi in zip(h, g)]
    for i, ai in enumerate(a):
        pivot = ai[i] = ai[i] + damping
        if not pivot > 0.0:
            return None
        for aj in a[i + 1:]:
            f = aj[i] / pivot
            for col in range(i + 1, len(ai)):
                aj[col] -= f * ai[col]
    z = []
    for ai in reversed(a):  # back substitution: z holds the later unknowns
        z.insert(0, (ai[-1] - sum(map(mul, ai[-1 - len(z):-1], z))) / ai[-2 - len(z)])
    return z
