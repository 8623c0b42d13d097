"""Order a lattice of scalable layers into one monotone layer path.

A scalable stream coded with L frame sizes, M frame rates and N stepsizes
yields an L x M x N lattice of decodable operating points. A layer path
visits lattice points so that frame size and frame rate never decrease and
the stepsize never increases, one single-coordinate step at a time; every
prefix of the path is then decodable. The forward greedy grows the path from
the base layer by the best quality gain per rate increase; the backward
greedy shrinks from the full stream by the smallest quality drop per rate
drop and tends to spread the achievable rates more evenly.

The :class:`LayerGrid` and :class:`OrderedPath` constructors take values from
outside and check every rule their docstrings list. :func:`build_layer_grid`
applies each of the grid's rules once while it computes the tables, and keeps
them without a copy; the walks' paths hold the path rules by construction, so
they check only their slopes. Each rule they apply is the function the
constructors and surfaces call, with its one message. Both hand over trusted
instances, built by ``models._frozen`` without a constructor's second check,
and each :class:`PathStep` is built from its fields by ``tuple.__new__``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError, OutOfRangeError
from .models import (
    QrModel,
    QualityParams,
    RateParams,
    _check,
    _check_ladder,
    _check_shared_ref,
    _checked_quality,
    _checked_rate,
    _frozen,
    _ladder,
    _positive_arrays,
    _qr,
    _qr_powered,
)

# The index changes of a single-coordinate step: +1 along one axis.
_MOVES = ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def _check_rate_rises(r: np.ndarray) -> None:
    # For finite doubles with gradual underflow ``b - a > 0`` exactly when
    # ``b > a``, so this is ``np.diff(r, axis=k) > 0`` for each axis k.
    if not ((r[1:] > r[:-1]).all() and (r[:, 1:] > r[:, :-1]).all()
            and (r[:, :, 1:] > r[:, :, :-1]).all()):
        raise InvalidParameterError("rate must increase strictly along every axis")


def _check_slopes(slopes) -> None:
    # The slope rule: ``slopes[i - 1]``, step i's quality change per rate
    # increase, is finite; the first that is not raises.
    if not all(map(math.isfinite, slopes)):
        i, slope = next((i, x) for i, x in enumerate(slopes, 1) if not math.isfinite(x))
        raise OutOfRangeError(f"step {i}: quality change per rate increase is {slope}")


@dataclass(frozen=True)
class LayerGrid:
    """Rates and qualities over an L x M x N lattice of layer combinations.

    Levels are ordered so that every +1 index step raises the rate: frame
    sizes and frame rates increasing, stepsizes decreasing. The rate table
    must be strictly increasing along every axis; the quality table is
    expected to be non-decreasing, but measured tables that violate that are
    accepted and surface as flagged steps in the ordered path. The
    constructor stores both tables as read-only float copies, so later writes
    to the arrays passed in leave the checked grid as it was.
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
        _check_rate_rises(self.rate)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (len(self.s_levels), len(self.t_levels), len(self.q_levels))


class PathStep(NamedTuple):
    """One lattice point on a layer path, with its physical coordinates; an
    immutable named tuple, equal to the plain tuple of its fields."""

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

    The steps are stored as a tuple. Every step must be a :class:`PathStep`
    and is checked: ``l``, ``m``, ``n`` Python or numpy integers in ``[0, 2**63)``;
    ``s``, ``t``, ``q`` and ``rate`` finite and > 0; ``quality`` finite.
    ``nonpositive_gain_steps``, the indices of the steps that did not improve
    quality, is derived from the steps; a value passed in must equal it. It
    is empty for grids built from the analytic surfaces. ``slopes[i - 1]`` is
    step ``i``'s quality change per rate increase over step ``i - 1``; a
    slope that overflows the float range, as over subnormal rate steps,
    raises :class:`~starq.errors.OutOfRangeError`.
    """

    steps: tuple[PathStep, ...]
    direction: str
    nonpositive_gain_steps: tuple[int, ...] | None = None
    slopes: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        steps = tuple(self.steps)
        object.__setattr__(self, "steps", steps)
        if not steps:
            raise InvalidParameterError("ordered path has no steps")
        if self.direction not in ("forward", "backward"):
            raise InvalidParameterError(f"unknown path direction {self.direction!r}")
        for x in steps:
            if not isinstance(x, PathStep):
                raise InvalidParameterError(f"path steps must be PathStep, got {type(x).__name__}")
        l, m, n, s, t, q, rate, quality = zip(*steps)
        index = l + m + n
        if not all(isinstance(i, (int, np.integer)) and type(i) is not bool for i in index):
            raise InvalidParameterError("step indices l, m, n must be integers")
        index = tuple(map(int, index))  # numpy integers read as Python ints
        l, m, n = (index[i : i + len(steps)] for i in range(0, len(index), len(steps)))
        if not 0 <= min(index) <= max(index) < 2**63:
            bad = f"< 2**63, got {max(index)}" if max(index) >= 2**63 else f">= 0, got {min(index)}"
            raise InvalidParameterError(f"step indices l, m, n must be {bad}")
        _check("step s, t, q, rate", s + t + q + rate, array=True)
        _check("step quality", quality, -np.inf, array=True)
        pairs = zip(l, l[1:], m, m[1:], n, n[1:], s, s[1:], t, t[1:], q, q[1:],
                    rate, rate[1:], quality, quality[1:])
        slopes, flags = [], []
        for (l0, l1, m0, m1, n0, n1, s0, s1, t0, t1, q0, q1,
             rate0, rate1, quality0, quality1) in pairs:
            deltas = (l1 - l0, m1 - m0, n1 - n0)
            if deltas not in _MOVES:
                raise InvalidParameterError(
                    f"consecutive steps must differ by +1 in one coordinate, got {deltas}"
                )
            if s1 < s0 or t1 < t0 or q1 > q0:
                raise InvalidParameterError("path violates the monotonicity constraint")
            if rate1 <= rate0:
                raise InvalidParameterError("rate must increase strictly along the path")
            slopes.append((quality1 - quality0) / (rate1 - rate0))
            if not math.isfinite(slopes[-1]):
                _check_slopes(slopes)
            if quality1 <= quality0:
                flags.append(len(slopes))
        flags = tuple(flags)
        passed = self.nonpositive_gain_steps
        if passed is not None and passed != flags:
            raise InvalidParameterError(f"nonpositive_gain_steps must be {flags}, got {passed!r}")
        object.__setattr__(self, "nonpositive_gain_steps", flags)
        object.__setattr__(self, "slopes", tuple(slopes))


def build_layer_grid(
    rp: RateParams,
    qp: QualityParams,
    s_levels,
    t_levels,
    q_levels,
) -> LayerGrid:
    """Populate a layer lattice from the analytic rate and quality surfaces.

    The rules and errors are those of :func:`~starq.models.rate_surface`,
    then :func:`~starq.models.quality_surface`, then :class:`LayerGrid`, each
    applied once: levels finite and > 0, rate finite and > 0, stepsizes below
    ``q_limit``, level ladders, quality finite, rate rising along every axis.
    The grid keeps the two fresh tables, read-only, without copying them.
    """
    _check_shared_ref(rp, qp)
    q_levels, s_levels, t_levels = _positive_arrays(q=q_levels, s=s_levels, t=t_levels)
    s, t, q = s_levels.reshape(-1, 1, 1), t_levels.reshape(1, -1, 1), q_levels.reshape(1, 1, -1)
    rate = _checked_rate(rp, q, s, t)
    quality = _checked_quality(qp, q, s, t)
    s_levels = _ladder("s_levels", s_levels, True)
    t_levels = _ladder("t_levels", t_levels, True)
    q_levels = _ladder("q_levels", q_levels, False)
    _check("quality", quality, -np.inf, array=True)
    _check_rate_rises(rate)
    rate.flags.writeable = quality.flags.writeable = False
    return _frozen(LayerGrid, {"s_levels": s_levels, "t_levels": t_levels, "q_levels": q_levels,
                               "rate": rate, "quality": quality})


def _greedy(grid: LayerGrid, direction: str) -> OrderedPath:
    # Both walks score a single-coordinate move by the slope dq/dr between its
    # two lattice points; forward takes the largest, backward the smallest.
    # The walk steps on the flat cell index by one stride per axis and carries
    # the chosen cell's rate and quality on. A flat memoryview of each
    # read-only table reads a cell as a Python float, the double ``item``
    # gives, at less cost; Python float arithmetic is numpy's IEEE double
    # arithmetic. ``tuple.__new__`` builds each PathStep from its fields
    # without the named tuple's own constructor frame.
    #
    # A checked grid makes the path hold OrderedPath's step rules, so the walk
    # hands over the derived fields itself: each move's slope, in the path's
    # increasing-rate form (backward, the higher point minus the lower, which
    # compares as the walk's own form does and keeps a zero slope +0.0), and
    # the steps whose quality did not rise. Only a slope can still fail, and
    # _check_slopes, OrderedPath's own slope rule, decides.
    forward = direction == "forward"
    sign = 1 if forward else -1
    rate, quality = memoryview(grid.rate.ravel()), memoryview(grid.quality.ravel())
    s, t, q = grid.s_levels, grid.t_levels, grid.q_levels
    L, M, N = grid.shape
    strides = (sign * M * N, sign * N, sign)
    top = (L - 1, M - 1, N - 1)
    pos, end = ([0, 0, 0], top) if forward else (list(top), (0, 0, 0))
    flat = 0 if forward else L * M * N - 1
    rate0, quality0 = rate[flat], quality[flat]
    steps, slopes, flags, new_step = [], [], [], tuple.__new__
    size = L + M + N - 2  # the path's length
    while True:
        l, m, n = pos
        steps.append(new_step(PathStep, (l, m, n, s[l], t[m], q[n], rate0, quality0)))
        best_axis = None
        # Single-coordinate moves in the tie-break order for equal slopes:
        # amplitude, then temporal, then spatial.
        for axis in (2, 1, 0):
            if pos[axis] != end[axis]:
                nxt = flat + strides[axis]
                rate1, quality1 = rate[nxt], quality[nxt]
                slope = ((quality1 - quality0) / (rate1 - rate0) if forward
                         else (quality0 - quality1) / (rate0 - rate1))
                if best_axis is None or (slope > best_slope if forward else slope < best_slope):
                    best_slope, best_axis = slope, axis
                    best_rate, best_quality = rate1, quality1
        if best_axis is None:
            break
        slopes.append(best_slope)
        # The path index of the step this move reaches, or backward leaves.
        if best_quality <= quality0 if forward else quality0 <= best_quality:
            flags.append(len(slopes) if forward else size - len(slopes))
        flat += strides[best_axis]
        pos[best_axis] += sign
        rate0, quality0 = best_rate, best_quality
    if not forward:
        steps.reverse()
        slopes.reverse()
        flags.reverse()
    _check_slopes(slopes)
    return _frozen(OrderedPath, {"steps": tuple(steps), "direction": direction,
                                 "nonpositive_gain_steps": tuple(flags), "slopes": tuple(slopes)})


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
    *_, rates, qualities = zip(*path.steps)
    powered = _qr_powered(qr.r_max, rates)
    return float(np.max(_qr(qr.kappa, powered) - np.array(qualities)))


def max_rate_gap(path: OrderedPath) -> float:
    """Largest rate jump between consecutive path steps, in kbps."""
    if len(path.steps) < 2:
        return 0.0
    *_, rates, _ = zip(*path.steps)
    return max(b - a for a, b in zip(rates, rates[1:]))
