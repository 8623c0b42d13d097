"""Rate-constrained selection of operating points.

Given rate and quality surfaces sharing one reference, pick the operating
point of maximum quality whose rate stays within a budget. The stepsize that
exactly meets the budget at a given frame size and frame rate has a closed
form, so the search runs over (frame size, frame rate) only: either a
geometric grid standing in for the continuous range, or explicit discrete
ladders. ``optimal_quality_curve`` traces the best quality against the
budget, the curve whose one-parameter summary ``starq.fitting.fit_qr`` fits.
This module fits no parameters: every fit lives in ``starq.fitting``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, InvalidParameterError, OutOfRangeError
from .models import (
    QualityParams,
    RateParams,
    Star,
    _REL_TOL,
    _check,
    _check_ladder,
    _check_q_limit,
    _check_shared_ref,
    _close,
    _positive_arrays,
    _quality,
    evaluate_rate,
)

@dataclass(frozen=True)
class FeasibleSets:
    """Discrete frame-size and frame-rate ladders plus a stepsize interval."""

    s_values: tuple[float, ...]
    t_values: tuple[float, ...]
    q_range: tuple[float, float]

    def __post_init__(self) -> None:
        for name in ("s_values", "t_values"):
            object.__setattr__(self, name, _check_ladder(name, getattr(self, name)))
        q_range = _check("q_range", self.q_range, array=True)
        if q_range.shape != (2,) or q_range[0] > q_range[1]:
            raise InvalidParameterError(f"q_range must be a pair lo <= hi, got {self.q_range!r}")
        object.__setattr__(self, "q_range", tuple(q_range.tolist()))


@dataclass(frozen=True)
class OptimizationResult:
    """The operating point an optimizer chose.

    ``star`` holds its stepsize, frame size and frame rate, ``quality`` the
    quality surface there and ``rate`` the rate surface there in kbps, which
    follows the rule of :func:`~starq.models.evaluate_rate`: finite and > 0. The
    stepsize comes from the budget equation in floating point, so ``rate``
    may exceed the budget by rounding: ``optimize_discrete`` returns a rate
    of 500.00000000000006 at a 500 kbps budget on the city/svc1 parameters
    and the 3 x 4 layer ladder. Every result keeps
    ``rate <= budget * (1 + 1e-9)``.
    """

    star: Star
    quality: float
    rate: float


def _budget_q(p: RateParams, s, t, budget):
    if p.a == 0:
        raise InvalidParameterError("stepsize exponent a = 0 leaves the budget equation unsolvable")
    ref = p.ref
    x = (p.r_max / budget) * np.power(s / ref.s_max, p.c) * np.power(t / ref.t_max, p.b)
    x = np.power(x, 1.0 / p.a, out=x if type(x) is np.ndarray else None)
    x *= ref.q_min
    return x


def feasible_q(p: RateParams, s, t, budget):
    """Stepsize at which the rate surface meets ``budget`` exactly for the
    given frame size and frame rate. Broadcasts over numpy arrays.

    Purely algebraic: the result may fall below ``q_min`` when the budget is
    generous; callers clamp according to their own policy.
    """
    return _budget_q(p, *_positive_arrays(s=s, t=t, budget=budget))


# Largest grid per axis: the search scores grid**2 cells at once, and the
# largest grid in use is 128.
_MAX_GRID = 4096


def _grid_size(grid) -> int:
    try:
        n = operator.index(grid)
    except TypeError:
        n = 0
    if not 2 <= n <= _MAX_GRID:
        raise InvalidParameterError(f"grid must be an integer in [2, {_MAX_GRID}], got {grid!r}")
    return n


def _geomspace(lo, hi, n: int):
    # np.geomspace(lo, hi, n, axis=-1) for 1-d arrays of positive floats: the
    # same float operations in the same order, so the same bits and the same
    # floating-point errors, without numpy's generic dispatch, which costs
    # more than the arithmetic here.
    log_lo, log_hi = np.log10(lo)[:, None], np.log10(hi)[:, None]
    ramp = np.arange(n, dtype=float) * ((log_hi - log_lo) / (n - 1)) + log_lo
    ramp[:, -1:] = log_hi
    out = np.power(10.0, ramp)
    out[:, 0], out[:, -1] = lo, hi
    return out


def _axes(ref, n_s: int, n_t: int):
    # Geometric frame-size and frame-rate axes over the top 16x of each range:
    # QCIF..4CIF and 1.875..30 Hz at the usual reference. Axes of one size
    # come from one call.
    lo, hi = np.array([ref.s_max / 16.0, ref.t_max / 16.0]), np.array([ref.s_max, ref.t_max])
    if n_s == n_t:
        return _geomspace(lo, hi, n_s)
    return _geomspace(lo[:1], hi[:1], n_s)[0], _geomspace(lo[1:], hi[1:], n_t)[0]


def _best_cells(rp: RateParams, qp: QualityParams, budget, s, t):
    # The best cell of the grid s x t (1-d axes) per budget: its quality,
    # clamped stepsize and flat index i * t.size + j. One budget, a 0-d array,
    # gives Python numbers; budgets of shape (B, 1, 1) give arrays of B. Cells
    # at stepsizes >= q_limit score <= 0 and all others > 0, so the best cell
    # lies at or above q_limit only when every cell does; callers check it.
    s, t = s[:, None], t[None, :]
    q = _budget_q(rp, s, t, budget)
    np.maximum(q, rp.ref.q_min, out=q)
    quality = _quality(qp, q, s, t)
    if not budget.ndim:
        k = int(quality.argmax())
        return quality.item(k), q.item(k), k
    quality, q = quality.reshape(len(budget), -1), q.reshape(len(budget), -1)
    k = quality.argmax(axis=1)
    rows = np.arange(len(budget))
    return quality[rows, k], q[rows, k], k


def optimize_continuous(
    rp: RateParams,
    qp: QualityParams,
    budget: float,
    grid: int = 64,
) -> OptimizationResult:
    """Best operating point over a geometric (frame size, frame rate) grid.

    The grid covers ``[s_max/16, s_max] x [t_max/16, t_max]`` with ``grid``
    log-spaced points per axis; ``grid`` is an integer in ``[2, 4096]``
    (numpy integers included). For each cell the stepsize comes from
    :func:`feasible_q`, clamped below at ``q_min``; leftover budget from the
    clamp is simply unspent. One grid-halving pass around the best cell then tightens the
    result toward the continuous optimum. Raises :class:`InfeasibleError`
    when even the best cell needs a stepsize at or above ``qp.q_limit``.
    """
    _check_shared_ref(rp, qp)
    budget = _check("budget", budget)
    n = _grid_size(grid)
    # The budget as a 0-d array: the budget equation divides by it with
    # numpy's floating-point errors, as by a batch of budgets.
    budgets = np.array(budget)
    s_axis, t_axis = _axes(rp.ref, n, n)
    quality, q, k = _best_cells(rp, qp, budgets, s_axis, t_axis)
    i, j = divmod(k, n)
    s, t = s_axis.item(i), t_axis.item(j)
    # One grid-halving pass: 5 x 5 points spanning the best cell's neighbours.
    lo = np.array([s_axis.item(max(i - 1, 0)), t_axis.item(max(j - 1, 0))])
    hi = np.array([s_axis.item(min(i + 1, n - 1)), t_axis.item(min(j + 1, n - 1))])
    s_fine, t_fine = _geomspace(lo, hi, 5)
    fine_quality, fine_q, k = _best_cells(rp, qp, budgets, s_fine, t_fine)
    if fine_quality > quality:
        i, j = divmod(k, 5)
        quality, q, s, t = fine_quality, fine_q, s_fine.item(i), t_fine.item(j)
    _check_q_limit(q, budget)
    star = Star(q=q, s=s, t=t)
    return OptimizationResult(star=star, quality=quality, rate=evaluate_rate(rp, star))


def optimize_discrete(
    rp: RateParams,
    qp: QualityParams,
    sets: FeasibleSets,
    budget: float,
) -> OptimizationResult:
    """Best operating point with frame size and frame rate from explicit
    ladders and the stepsize confined to ``sets.q_range``.

    Enumerates every (frame size, frame rate) pair; pairs whose budget-exact
    stepsize exceeds the upper stepsize bound are infeasible. Ties are broken
    toward the smaller stepsize, then the larger frame rate, then the larger
    frame size.
    """
    _check_shared_ref(rp, qp)
    budget = _check("budget", budget)
    ref = rp.ref
    q_lo, q_hi = sets.q_range
    if q_lo < ref.q_min and not _close(q_lo, ref.q_min):
        raise InvalidParameterError("q_range must not extend below the reference stepsize")
    if not _close(sets.s_values[-1], ref.s_max):
        raise InvalidParameterError("largest frame size must equal the reference frame size")
    if not _close(sets.t_values[-1], ref.t_max):
        raise InvalidParameterError("largest frame rate must equal the reference frame rate")

    # Every (frame size, frame rate) pair, frame size varying slowest.
    s = np.array(sets.s_values).repeat(len(sets.t_values))
    t = np.array(sets.t_values * len(sets.s_values))
    q = _budget_q(rp, s, t, budget)
    np.maximum(q, q_lo, out=q)
    feasible = q <= q_hi * (1.0 + _REL_TOL)
    count = np.count_nonzero(feasible)
    if not count:
        raise InfeasibleError(
            f"budget {budget} kbps is unreachable even at the coarsest stepsize"
        )
    if count < q.size:
        q, s, t = q[feasible], s[feasible], t[feasible]
    quality = _quality(qp, q, s, t)
    # lexsort sorts by its last key first, so the best pair comes last.
    k = np.lexsort((s, t, -q, quality))[-1]
    _check_q_limit(q.item(k), budget)
    star = Star(q=q.item(k), s=s.item(k), t=t.item(k))
    return OptimizationResult(star=star, quality=quality.item(k), rate=evaluate_rate(rp, star))


def optimal_quality_curve(rp: RateParams, qp: QualityParams) -> list[tuple[float, float]]:
    """Optimal quality at 50 log-spaced budgets in ``[0.1 * r_max, r_max]``.

    This is the published summary-fit setup: frame sizes restricted to the
    three coded formats (a 3-point geometric axis over a 16x span), 64
    frame rates over the same span, no local refinement, and budgets over
    the top decade of the rate range. Returns ``(budget, quality)`` pairs
    suitable for :func:`starq.fitting.fit_qr`. Raises :class:`OutOfRangeError`
    where the budgets do not strictly rise (``r_max`` below about 1e-321).
    """
    _check_shared_ref(rp, qp)
    # log10(0) where 0.1 * r_max rounds to 0: nan budgets, which do not rise.
    with np.errstate(divide="ignore", invalid="ignore"):
        budgets = _geomspace(np.array([0.1 * rp.r_max]), np.array([rp.r_max]), 50)[0]
    if not (budgets[1:] > budgets[:-1]).all():
        raise OutOfRangeError(f"r_max {rp.r_max!r} is too small for 50 rising budgets")
    quality, q, _ = _best_cells(rp, qp, budgets[:, None, None], *_axes(rp.ref, 3, 64))
    k = q.argmax()
    _check_q_limit(float(q[k]), float(budgets[k]))
    return list(zip(budgets.tolist(), quality.tolist()))
