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
    qr_surface,
    quality_surface,
    rate_surface,
)


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
    feasible: bool = True


def feasible_q(p: RateParams, s: float, t: float, budget: float) -> float:
    """Stepsize at which the rate surface meets ``budget`` exactly for the
    given frame size and frame rate.

    Purely algebraic: the result may fall below ``q_min`` when the budget is
    generous; callers clamp according to their own policy.
    """
    if p.a == 0:
        raise InvalidParameterError("stepsize exponent a = 0 leaves the budget equation unsolvable")
    for name, v in (("s", s), ("t", t), ("budget", budget)):
        if not math.isfinite(v) or v <= 0:
            raise InvalidParameterError(f"{name} must be finite and > 0, got {v!r}")
    ref = p.ref
    return ref.q_min * (
        (p.r_max / budget) * (s / ref.s_max) ** p.c * (t / ref.t_max) ** p.b
    ) ** (1.0 / p.a)


def _check_shared_ref(rp: RateParams, qp: QualityParams) -> None:
    if not rp.ref.matches(qp.ref):
        raise InvalidParameterError("rate and quality parameters use different references")


def _grid_shape(grid) -> tuple[int, int]:
    if isinstance(grid, int):
        shape = (grid, grid)
    else:
        shape = (int(grid[0]), int(grid[1]))
    if shape[0] < 2 or shape[1] < 2:
        raise InvalidParameterError("grid needs at least 2 points per axis")
    return shape


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
    if rp.a == 0:
        raise InvalidParameterError("stepsize exponent a = 0 leaves the budget equation unsolvable")
    if not math.isfinite(budget) or budget <= 0:
        raise InvalidParameterError(f"budget must be finite and > 0, got {budget!r}")
    n_s, n_t = _grid_shape(grid)
    if span[0] <= 1 or span[1] <= 1:
        raise InvalidParameterError("span factors must exceed 1")

    ref = rp.ref

    def best_on(s_axis: np.ndarray, t_axis: np.ndarray):
        s_mesh = s_axis[:, None]
        t_mesh = t_axis[None, :]
        q_exact = rp.ref.q_min * (
            (rp.r_max / budget)
            * (s_mesh / ref.s_max) ** rp.c
            * (t_mesh / ref.t_max) ** rp.b
        ) ** (1.0 / rp.a)
        q_used = np.maximum(q_exact, ref.q_min)
        quality = quality_surface(qp, q_used, s_mesh, t_mesh)
        i, j = np.unravel_index(int(np.argmax(quality)), quality.shape)
        return float(quality[i, j]), i, j, float(q_used[i, j])

    s_axis = np.geomspace(ref.s_max / span[0], ref.s_max, n_s)
    t_axis = np.geomspace(ref.t_max / span[1], ref.t_max, n_t)
    best_quality, i, j, q_best = best_on(s_axis, t_axis)
    s_best, t_best = float(s_axis[i]), float(t_axis[j])

    if refine:
        s_fine = np.geomspace(s_axis[max(i - 1, 0)], s_axis[min(i + 1, n_s - 1)], 5)
        t_fine = np.geomspace(t_axis[max(j - 1, 0)], t_axis[min(j + 1, n_t - 1)], 5)
        fine_quality, fi, fj, fq = best_on(s_fine, t_fine)
        if fine_quality > best_quality:
            best_quality, q_best = fine_quality, fq
            s_best, t_best = float(s_fine[fi]), float(t_fine[fj])

    star = Star(q=q_best, s=s_best, t=t_best)
    return OptimizationResult(
        star=star,
        quality=best_quality,
        rate=float(rate_surface(rp, star.q, star.s, star.t)),
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
    if not math.isfinite(budget) or budget <= 0:
        raise InvalidParameterError(f"budget must be finite and > 0, got {budget!r}")
    ref = rp.ref
    q_lo, q_hi = sets.q_range
    if q_lo < ref.q_min * (1.0 - 1e-9):
        raise InvalidParameterError("q_range must not extend below the reference stepsize")
    if not math.isclose(max(sets.s_values), ref.s_max, rel_tol=1e-9):
        raise InvalidParameterError("largest frame size must equal the reference frame size")
    if not math.isclose(max(sets.t_values), ref.t_max, rel_tol=1e-9):
        raise InvalidParameterError("largest frame rate must equal the reference frame rate")

    best_key = None
    best: OptimizationResult | None = None
    for s in sets.s_values:
        for t in sets.t_values:
            q = max(feasible_q(rp, s, t, budget), q_lo)
            if q > q_hi * (1.0 + 1e-9):
                continue
            quality = float(quality_surface(qp, q, s, t))
            key = (quality, -q, t, s)
            if best_key is None or key > best_key:
                best_key = key
                star = Star(q=q, s=s, t=t)
                best = OptimizationResult(
                    star=star,
                    quality=quality,
                    rate=float(rate_surface(rp, q, s, t)),
                )
    if best is None:
        raise InfeasibleError(
            f"budget {budget} kbps is unreachable even at the coarsest stepsize"
        )
    return best


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

    x = np.minimum(rates / r_max, 1.0) ** QrModel.exponent

    def rmse(kappa: float) -> float:
        model = np.expm1(-kappa * x) / np.expm1(-kappa)
        return float(np.sqrt(np.mean((model - qualities) ** 2)))

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
    budgets = np.geomspace(lo_frac * rp.r_max, rp.r_max, n_points)
    return [
        (float(budget), optimize_continuous(rp, qp, float(budget), grid, span, refine).quality)
        for budget in budgets
    ]
