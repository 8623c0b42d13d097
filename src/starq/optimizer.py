"""Rate-constrained selection of operating points.

Given rate and quality surfaces sharing one reference, pick the operating
point of maximum quality whose rate stays within a budget. The stepsize that
exactly meets the budget at a given frame size and frame rate has a closed
form, so the search runs over (frame size, frame rate) only: either a
geometric grid standing in for the continuous range, or explicit discrete
ladders. A one-parameter inverted exponential summarizes the resulting
optimal quality-versus-rate curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._solve import minimize_bounded
from .errors import (
    DegenerateDataError,
    InfeasibleError,
    InsufficientDataError,
    InvalidParameterError,
    OutOfRangeError,
)
from .models import (
    QrModel,
    QualityParams,
    RateParams,
    Star,
    _check_shared_ref,
    _positive_arrays,
    _qr,
    _quality,
    _rate,
)

# Cells of (budget x frame size x frame rate) scored in one batch of a
# budget sweep; bounds the sweep's memory at a few megabytes.
_BATCH_CELLS = 1 << 16


@dataclass(frozen=True)
class FeasibleSets:
    """Discrete frame-size and frame-rate ladders plus a stepsize interval."""

    s_values: tuple[float, ...]
    t_values: tuple[float, ...]
    q_range: tuple[float, float]

    def __post_init__(self) -> None:
        for name in ("s_values", "t_values"):
            values = getattr(self, name)
            if not values:
                raise InvalidParameterError(f"{name} is empty")
            if any(v <= 0 or not math.isfinite(v) for v in values):
                raise InvalidParameterError(f"{name} must be finite and positive")
            if any(b <= a for a, b in zip(values, values[1:])):
                raise InvalidParameterError(f"{name} must be strictly increasing")
        lo, hi = self.q_range
        if not (0 < lo <= hi) or not math.isfinite(hi):
            raise InvalidParameterError(f"q_range must satisfy 0 < lo <= hi, got {self.q_range}")


@dataclass(frozen=True)
class OptimizationResult:
    star: Star
    quality: float
    rate: float


def _budget_q(p: RateParams, s, t, budget):
    if p.a == 0:
        raise InvalidParameterError("stepsize exponent a = 0 leaves the budget equation unsolvable")
    ref = p.ref
    return ref.q_min * np.power(
        (p.r_max / budget) * np.power(s / ref.s_max, p.c) * np.power(t / ref.t_max, p.b),
        1.0 / p.a,
    )


def _require_budget(budget: float) -> None:
    if not math.isfinite(budget) or budget <= 0:
        raise InvalidParameterError(f"budget must be finite and > 0, got {budget!r}")


def feasible_q(p: RateParams, s, t, budget):
    """Stepsize at which the rate surface meets ``budget`` exactly for the
    given frame size and frame rate. Broadcasts over numpy arrays.

    Purely algebraic: the result may fall below ``q_min`` when the budget is
    generous; callers clamp according to their own policy.
    """
    return _budget_q(p, *_positive_arrays(s=s, t=t, budget=budget))


def _grid_shape(grid, span) -> tuple[int, int]:
    shape = (grid, grid) if isinstance(grid, int) else (int(grid[0]), int(grid[1]))
    if shape[0] < 2 or shape[1] < 2:
        raise InvalidParameterError("grid needs at least 2 points per axis")
    if span[0] <= 1 or span[1] <= 1:
        raise InvalidParameterError("span factors must exceed 1")
    return shape


def _best_cells(rp: RateParams, qp: QualityParams, budget, s, t):
    # Per budget (shape (B, 1, 1)), the best cell of the grid s (B or 1, n_s) x
    # t (B or 1, n_t): its quality, clamped stepsize and s and t indices.
    s, t = s[:, :, None], t[:, None, :]
    q = np.maximum(_budget_q(rp, s, t, budget), rp.ref.q_min)
    quality = _quality(qp, q, s, t)
    best = np.argmax(quality.reshape(len(budget), -1), axis=1)
    i, j = np.unravel_index(best, quality.shape[1:])
    rows = np.arange(len(budget))
    return quality[rows, i, j], q[rows, i, j], i, j


def _grid_search(rp, qp, budgets: np.ndarray, n_s: int, n_t: int, span, refine: bool):
    # The search of optimize_continuous for every budget at once, on validated
    # arguments. Returns (quality, q, s, t) arrays shaped like budgets.
    ref = rp.ref
    budget = budgets[:, None, None]
    s_axis = np.geomspace(ref.s_max / span[0], ref.s_max, n_s)
    t_axis = np.geomspace(ref.t_max / span[1], ref.t_max, n_t)
    quality, q, i, j = _best_cells(rp, qp, budget, s_axis[None], t_axis[None])
    s, t = s_axis[i], t_axis[j]
    if refine:
        # One grid-halving pass: 5 x 5 points spanning the best cell's neighbours.
        lo = (s_axis[np.maximum(i - 1, 0)], t_axis[np.maximum(j - 1, 0)])
        hi = (s_axis[np.minimum(i + 1, n_s - 1)], t_axis[np.minimum(j + 1, n_t - 1)])
        s_fine, t_fine = np.geomspace(lo, hi, 5, axis=-1)
        fine_quality, fine_q, fi, fj = _best_cells(rp, qp, budget, s_fine, t_fine)
        better = fine_quality > quality
        rows = np.arange(len(budgets))
        quality, q = np.where(better, fine_quality, quality), np.where(better, fine_q, q)
        s, t = np.where(better, s_fine[rows, fi], s), np.where(better, t_fine[rows, fj], t)
    return quality, q, s, t


def optimize_continuous(
    rp: RateParams,
    qp: QualityParams,
    budget: float,
    grid: int | tuple[int, int] = 64,
    span: tuple[float, float] = (16.0, 16.0),
    refine: bool = True,
) -> OptimizationResult:
    """Best operating point over a geometric (frame size, frame rate) grid.

    The grid covers ``[s_max/span[0], s_max] x [t_max/span[1], t_max]`` with
    ``grid`` log-spaced points per axis (an int applies to both axes). For
    each cell the stepsize comes from :func:`feasible_q`, clamped below at
    ``q_min``; leftover budget from the clamp is simply unspent. With
    ``refine`` enabled, one grid-halving pass around the best cell tightens
    the result toward the continuous optimum.
    """
    _check_shared_ref(rp, qp)
    _require_budget(budget)
    n_s, n_t = _grid_shape(grid, span)
    best = _grid_search(rp, qp, np.array([budget], dtype=float), n_s, n_t, span, refine)
    quality, q, s, t = (float(v[0]) for v in best)
    return OptimizationResult(
        star=Star(q=q, s=s, t=t), quality=quality, rate=float(_rate(rp, q, s, t))
    )


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
    _require_budget(budget)
    ref = rp.ref
    q_lo, q_hi = sets.q_range
    if q_lo < ref.q_min * (1.0 - 1e-9):
        raise InvalidParameterError("q_range must not extend below the reference stepsize")
    if not math.isclose(max(sets.s_values), ref.s_max, rel_tol=1e-9):
        raise InvalidParameterError("largest frame size must equal the reference frame size")
    if not math.isclose(max(sets.t_values), ref.t_max, rel_tol=1e-9):
        raise InvalidParameterError("largest frame rate must equal the reference frame rate")

    s, t = (v.ravel() for v in np.meshgrid(sets.s_values, sets.t_values, indexing="ij"))
    q = np.maximum(_budget_q(rp, s, t, budget), q_lo)
    feasible = q <= q_hi * (1.0 + 1e-9)
    if not feasible.any():
        raise InfeasibleError(
            f"budget {budget} kbps is unreachable even at the coarsest stepsize"
        )
    q, s, t = q[feasible], s[feasible], t[feasible]
    quality = _quality(qp, q, s, t)
    # lexsort sorts by its last key first, so the best pair comes last.
    k = np.lexsort((s, t, -q, quality))[-1]
    return OptimizationResult(
        star=Star(q=float(q[k]), s=float(s[k]), t=float(t[k])),
        quality=float(quality[k]),
        rate=float(_rate(rp, q[k], s[k], t[k])),
    )


@dataclass(frozen=True)
class QrFit:
    """Fitted rate-quality summary and its root-mean-square error."""

    model: QrModel
    rmse: float


def fit_qr(curve, r_max: float) -> QrFit:
    """Fit the one-parameter quality-versus-rate summary to a curve of
    ``(rate, quality)`` points by bracketed scalar minimization of the RMSE.
    """
    points = list(curve)
    if len(points) < 3:
        raise InsufficientDataError("need at least three curve points")
    rates = np.asarray([p[0] for p in points], dtype=float)
    qualities = np.asarray([p[1] for p in points], dtype=float)
    if np.any(rates <= 0) or np.any(rates > r_max * (1.0 + 1e-9)):
        raise OutOfRangeError("curve rates must lie in (0, r_max]")
    if np.all(qualities == qualities[0]):
        raise DegenerateDataError("curve is flat; no summary parameter fits it")

    ratio = np.minimum(rates / r_max, 1.0)

    def rmse(kappa: float) -> float:
        return float(np.sqrt(np.mean((_qr(kappa, ratio) - qualities) ** 2)))

    result = minimize_bounded(rmse, 1e-6, 50.0, xatol=1e-10)
    return QrFit(model=QrModel(kappa=result.x, r_max=r_max), rmse=result.fun)


def optimal_quality_curve(
    rp: RateParams,
    qp: QualityParams,
    n_points: int = 50,
    lo_frac: float = 0.1,
    grid: int | tuple[int, int] = (3, 64),
    span: tuple[float, float] = (16.0, 16.0),
    refine: bool = False,
) -> list[tuple[float, float]]:
    """Optimal quality at log-spaced budgets in ``[lo_frac * r_max, r_max]``.

    The defaults reproduce the published summary-fit setup: frame sizes
    restricted to the three coded formats (a 3-point geometric axis over a
    16x span), a fine frame-rate axis, no local refinement, and budgets over
    the top decade of the rate range. Returns ``(budget, quality)`` pairs
    suitable for :func:`fit_qr`.
    """
    if n_points < 2:
        raise InvalidParameterError("need at least two budgets")
    if not 0 < lo_frac < 1:
        raise InvalidParameterError("lo_frac must lie in (0, 1)")
    _check_shared_ref(rp, qp)
    n_s, n_t = _grid_shape(grid, span)
    budgets = np.geomspace(lo_frac * rp.r_max, rp.r_max, n_points)
    batches = -(-n_points * n_s * n_t // _BATCH_CELLS)
    quality = np.concatenate([
        _grid_search(rp, qp, part, n_s, n_t, span, refine)[0]
        for part in np.array_split(budgets, batches)
    ])
    return [(float(b), float(v)) for b, v in zip(budgets, quality)]
