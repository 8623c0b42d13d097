"""Order a lattice of scalable layers into one monotone layer path.

A scalable stream coded with L frame sizes, M frame rates and N stepsizes
yields an L x M x N lattice of decodable operating points. A layer path
visits lattice points so that frame size and frame rate never decrease and
the stepsize never increases, one single-coordinate step at a time; every
prefix of the path is then decodable. The forward greedy grows the path from
the base layer by the best quality gain per rate increase; the backward
greedy shrinks from the full stream by the smallest quality drop per rate
drop and tends to spread the achievable rates more evenly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, OutOfRangeError
from .models import (
    QrModel,
    QualityParams,
    RateParams,
    _REL_TOL,
    _check,
    _check_ladder,
    _check_shared_ref,
    qr_surface,
    quality_surface,
    rate_surface,
)

# Single-coordinate moves of each walk as (axis, signed index step), in the
# tie-break order for equal slopes: amplitude, then temporal, then spatial.
_MOVES = {
    "forward": ((2, (0, 0, 1)), (1, (0, 1, 0)), (0, (1, 0, 0))),
    "backward": ((2, (0, 0, -1)), (1, (0, -1, 0)), (0, (-1, 0, 0))),
}


@dataclass(frozen=True)
class LayerGrid:
    """Rates and qualities over an L x M x N lattice of layer combinations.

    Levels are ordered so that every +1 index step raises the rate: frame
    sizes and frame rates increasing, stepsizes decreasing. The rate table
    must be strictly increasing along every axis; the quality table is
    expected to be non-decreasing, but measured tables that violate that are
    accepted and surface as flagged steps in the ordered path.
    """

    s_levels: tuple[float, ...]
    t_levels: tuple[float, ...]
    q_levels: tuple[float, ...]
    rate: np.ndarray
    quality: np.ndarray

    def __post_init__(self) -> None:
        for name, increasing in (("s_levels", True), ("t_levels", True), ("q_levels", False)):
            object.__setattr__(self, name, _check_ladder(name, getattr(self, name), increasing))
        shape = self.shape
        for name, table, low in (("rate", self.rate, 0.0), ("quality", self.quality, -np.inf)):
            if _check(name, table, low, array=True).shape != shape:
                raise InvalidParameterError(f"{name} table shape must be {shape}")
        for axis in range(3):
            if not np.all(np.diff(self.rate, axis=axis) > 0):
                raise InvalidParameterError("rate must increase strictly along every axis")

    @property
    def shape(self) -> tuple[int, int, int]:
        return (len(self.s_levels), len(self.t_levels), len(self.q_levels))

    def quality_is_monotone(self) -> bool:
        return all(np.all(np.diff(self.quality, axis=axis) >= 0) for axis in range(3))


@dataclass(frozen=True)
class PathStep:
    """One lattice point on a layer path, with its physical coordinates."""

    l: int
    m: int
    n: int
    s: float
    t: float
    q: float
    rate: float
    quality: float


@dataclass(frozen=True)
class OrderedPath:
    """A monotone traversal of a layer lattice, in increasing-rate order.

    ``nonpositive_gain_steps`` lists indices of steps that did not improve
    quality; empty for grids built from the analytic surfaces.
    """

    steps: tuple[PathStep, ...]
    direction: str
    nonpositive_gain_steps: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.steps:
            raise InvalidParameterError("ordered path has no steps")
        if self.direction not in _MOVES:
            raise InvalidParameterError(f"unknown path direction {self.direction!r}")
        _check("rate", np.array([step.rate for step in self.steps]), array=True)
        _check("quality", np.array([step.quality for step in self.steps]), -np.inf, array=True)
        for prev, cur in zip(self.steps, self.steps[1:]):
            deltas = (cur.l - prev.l, cur.m - prev.m, cur.n - prev.n)
            if sorted(deltas) != [0, 0, 1]:
                raise InvalidParameterError(
                    f"consecutive steps must differ by +1 in one coordinate, got {deltas}"
                )
            if cur.s < prev.s or cur.t < prev.t or cur.q > prev.q:
                raise InvalidParameterError("path violates the monotonicity constraint")
            if cur.rate <= prev.rate:
                raise InvalidParameterError("rate must increase strictly along the path")


def build_layer_grid(
    rp: RateParams,
    qp: QualityParams,
    s_levels,
    t_levels,
    q_levels,
) -> LayerGrid:
    """Populate a layer lattice from the analytic rate and quality surfaces."""
    _check_shared_ref(rp, qp)
    levels = (s_levels, t_levels, q_levels)
    s, t, q = (np.reshape(v, k) for v, k in zip(levels, ((-1, 1, 1), (1, -1, 1), (1, 1, -1))))
    return LayerGrid(*levels, rate=rate_surface(rp, q, s, t), quality=quality_surface(qp, q, s, t))


def _step_at(grid: LayerGrid, idx: tuple[int, int, int]) -> PathStep:
    l, m, n = idx
    return PathStep(
        l=l,
        m=m,
        n=n,
        s=grid.s_levels[l],
        t=grid.t_levels[m],
        q=grid.q_levels[n],
        rate=float(grid.rate[l, m, n]),
        quality=float(grid.quality[l, m, n]),
    )


def _flag_nonpositive(steps: tuple[PathStep, ...]) -> tuple[int, ...]:
    return tuple(
        i for i in range(1, len(steps)) if steps[i].quality <= steps[i - 1].quality
    )


def _greedy(grid: LayerGrid, direction: str) -> OrderedPath:
    # Both walks score a single-coordinate move by the slope dq/dr between its
    # two lattice points; forward takes the largest, backward the smallest.
    forward = direction == "forward"
    moves = _MOVES[direction]
    L, M, N = grid.shape
    top = (L - 1, M - 1, N - 1)
    pos, end = ((0, 0, 0), top) if forward else (top, (0, 0, 0))
    visited = [_step_at(grid, pos)]
    while pos != end:
        rate0 = grid.rate[pos]
        quality0 = grid.quality[pos]
        best_slope = best_pos = None
        for axis, (dl, dm, dn) in moves:
            if pos[axis] == end[axis]:
                continue
            nxt = (pos[0] + dl, pos[1] + dm, pos[2] + dn)
            slope = (grid.quality[nxt] - quality0) / (grid.rate[nxt] - rate0)
            if best_pos is None or (slope > best_slope if forward else slope < best_slope):
                best_slope = slope
                best_pos = nxt
        pos = best_pos
        visited.append(_step_at(grid, pos))
    steps = tuple(visited if forward else reversed(visited))
    return OrderedPath(
        steps=steps, direction=direction, nonpositive_gain_steps=_flag_nonpositive(steps)
    )


def order_forward(grid: LayerGrid) -> OrderedPath:
    """Grow the path from the base layer, taking at each step the single-
    coordinate increment with the largest quality gain per rate increase."""
    return _greedy(grid, "forward")


def order_backward(grid: LayerGrid) -> OrderedPath:
    """Shrink the path from the full stream, dropping at each step the single-
    coordinate decrement with the smallest quality drop per rate drop. The
    result is returned in increasing-rate order."""
    return _greedy(grid, "backward")


def path_quality_loss(path: OrderedPath, qr: QrModel) -> float:
    """Largest shortfall of the path's quality below the continuous
    rate-quality summary, evaluated at the path's own rates."""
    rates = np.array([step.rate for step in path.steps])
    qualities = np.array([step.quality for step in path.steps])
    if rates.max() > qr.r_max * (1.0 + _REL_TOL):
        raise OutOfRangeError("path reaches rates above the summary model ceiling")
    return float(np.max(qr_surface(qr, np.minimum(rates, qr.r_max)) - qualities))


def max_rate_gap(path: OrderedPath) -> float:
    """Largest rate jump between consecutive path steps, in kbps."""
    if len(path.steps) < 2:
        return 0.0
    return max(b.rate - a.rate for a, b in zip(path.steps, path.steps[1:]))
