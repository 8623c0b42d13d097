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

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .models import (
    QrModel,
    QualityParams,
    RateParams,
    _check,
    _check_ladder,
    _check_shared_ref,
    _qr,
    _qr_powered,
    quality_surface,
    rate_surface,
)

@dataclass(frozen=True)
class LayerGrid:
    """Rates and qualities over an L x M x N lattice of layer combinations.

    Levels are ordered so that every +1 index step raises the rate: frame
    sizes and frame rates increasing, stepsizes decreasing. The rate table
    must be strictly increasing along every axis; the quality table is
    expected to be non-decreasing, but measured tables that violate that are
    accepted and surface as flagged steps in the ordered path. Both tables
    are stored as read-only float copies, so later writes to the arrays
    passed in leave the checked grid as it was.
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
        for name, low in (("rate", 0.0), ("quality", -np.inf)):
            table = np.array(_check(name, getattr(self, name), low, array=True))
            if table.shape != shape:
                raise InvalidParameterError(f"{name} table shape must be {shape}")
            table.flags.writeable = False
            object.__setattr__(self, name, table)
        for axis in range(3):
            if not np.all(np.diff(self.rate, axis=axis) > 0):
                raise InvalidParameterError("rate must increase strictly along every axis")

    @property
    def shape(self) -> tuple[int, int, int]:
        return (len(self.s_levels), len(self.t_levels), len(self.q_levels))


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

    Every step is checked: ``l``, ``m``, ``n`` non-negative integers; ``s``,
    ``t``, ``q`` and ``rate`` finite and > 0; ``quality`` finite.
    ``nonpositive_gain_steps``, the indices of the steps that did not improve
    quality, is derived from the steps; a value passed in must equal it. It
    is empty for grids built from the analytic surfaces.
    """

    steps: tuple[PathStep, ...]
    direction: str
    nonpositive_gain_steps: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        steps = self.steps
        if not steps:
            raise InvalidParameterError("ordered path has no steps")
        if self.direction not in ("forward", "backward"):
            raise InvalidParameterError(f"unknown path direction {self.direction!r}")
        index = [i for x in steps for i in (x.l, x.m, x.n)]
        _check("step indices l, m, n", index, 0.0, strict=False, array=True)
        if np.asarray(index).dtype.kind not in "iu":
            raise InvalidParameterError("step indices l, m, n must be integers")
        _check("step s, t, q, rate", [v for x in steps for v in (x.s, x.t, x.q, x.rate)], array=True)
        _check("step quality", [x.quality for x in steps], -np.inf, array=True)
        for prev, cur in zip(steps, steps[1:]):
            deltas = (cur.l - prev.l, cur.m - prev.m, cur.n - prev.n)
            if sorted(deltas) != [0, 0, 1]:
                raise InvalidParameterError(
                    f"consecutive steps must differ by +1 in one coordinate, got {deltas}"
                )
            if cur.s < prev.s or cur.t < prev.t or cur.q > prev.q:
                raise InvalidParameterError("path violates the monotonicity constraint")
            if cur.rate <= prev.rate:
                raise InvalidParameterError("rate must increase strictly along the path")
        flags = tuple(i for i in range(1, len(steps)) if steps[i].quality <= steps[i - 1].quality)
        passed = self.nonpositive_gain_steps
        if passed is not None and passed != flags:
            raise InvalidParameterError(f"nonpositive_gain_steps must be {flags}, got {passed!r}")
        object.__setattr__(self, "nonpositive_gain_steps", flags)


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


def _greedy(grid: LayerGrid, direction: str) -> OrderedPath:
    # Both walks score a single-coordinate move by the slope dq/dr between its
    # two lattice points; forward takes the largest, backward the smallest.
    # ``item`` reads table cells as Python floats, whose arithmetic is the
    # same IEEE double arithmetic as numpy's scalars, at less cost per step.
    forward = direction == "forward"
    step = 1 if forward else -1
    rate, quality = grid.rate.item, grid.quality.item
    top = tuple(k - 1 for k in grid.shape)
    pos, end = ((0, 0, 0), top) if forward else (top, (0, 0, 0))
    visited = [pos]
    while pos != end:
        rate0, quality0 = rate(pos), quality(pos)
        best_slope = best_pos = None
        # Single-coordinate moves in the tie-break order for equal slopes:
        # amplitude, then temporal, then spatial.
        for axis in (2, 1, 0):
            if pos[axis] == end[axis]:
                continue
            nxt = pos[:axis] + (pos[axis] + step,) + pos[axis + 1:]
            slope = (quality(nxt) - quality0) / (rate(nxt) - rate0)
            if best_pos is None or (slope > best_slope if forward else slope < best_slope):
                best_slope = slope
                best_pos = nxt
        pos = best_pos
        visited.append(pos)
    s, t, q = grid.s_levels, grid.t_levels, grid.q_levels
    steps = tuple(
        PathStep(l, m, n, s[l], t[m], q[n], rate(l, m, n), quality(l, m, n))
        for l, m, n in (visited if forward else reversed(visited))
    )
    return OrderedPath(steps=steps, direction=direction)


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
    powered = _qr_powered(qr.r_max, [step.rate for step in path.steps])
    qualities = np.array([step.quality for step in path.steps])
    return float(np.max(_qr(qr.kappa, powered) - qualities))


def max_rate_gap(path: OrderedPath) -> float:
    """Largest rate jump between consecutive path steps, in kbps."""
    if len(path.steps) < 2:
        return 0.0
    return max(b.rate - a.rate for a, b in zip(path.steps, path.steps[1:]))
