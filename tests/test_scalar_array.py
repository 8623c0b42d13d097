"""Scalar entry points return exactly the bits of the array computation.

The scalar helpers are thin wrappers over the same numpy cores the array
functions use, so a value computed one point at a time must equal the
corresponding element of the broadcast result bit for bit, not merely to a
tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from sequences import REF, SEQUENCES, quality_params, rate_params
from starq import (
    Star,
    evaluate_quality,
    evaluate_rate,
    feasible_q,
    optimal_quality_curve,
    qp_from_stepsize,
    quality_surface,
    rate_surface,
)

POINTS = 800


def random_points(sequence: str):
    """In-domain (q, s, t, budget fraction) samples, seeded per sequence."""
    rng = np.random.default_rng(SEQUENCES.index(sequence))
    q = rng.uniform(REF.q_min, 16.0 * REF.q_min, POINTS)
    s = rng.uniform(REF.s_max / 16.0, REF.s_max, POINTS)
    t = rng.uniform(REF.t_max / 16.0, REF.t_max, POINTS)
    frac = rng.uniform(0.01, 1.0, POINTS)
    return q, s, t, frac


def mismatches(scalar, array) -> int:
    return sum(a != b for a, b in zip(scalar, np.asarray(array).tolist()))


@pytest.mark.parametrize("sequence", SEQUENCES)
def test_evaluate_matches_surface(sequence):
    rp, qp = rate_params(sequence), quality_params(sequence)
    q, s, t, _ = random_points(sequence)
    stars = [Star(*x) for x in zip(q.tolist(), s.tolist(), t.tolist())]
    assert mismatches([evaluate_rate(rp, x) for x in stars], rate_surface(rp, q, s, t)) == 0
    assert mismatches([evaluate_quality(qp, x) for x in stars], quality_surface(qp, q, s, t)) == 0
    assert mismatches([qp_from_stepsize(x.q) for x in stars], qp_from_stepsize(q)) == 0


@pytest.mark.parametrize("sequence", SEQUENCES)
def test_feasible_q_scalar_matches_broadcast(sequence):
    rp = rate_params(sequence)
    _, s, t, frac = random_points(sequence)
    budget = frac * rp.r_max
    scalar = [feasible_q(rp, *x) for x in zip(s.tolist(), t.tolist(), budget.tolist())]
    assert mismatches(scalar, feasible_q(rp, s, t, budget)) == 0
    grid = feasible_q(rp, s[:7, None], t[None, :5], rp.r_max / 3)
    assert grid.shape == (7, 5)
    assert grid[4, 2] == feasible_q(rp, float(s[4]), float(t[2]), rp.r_max / 3)


@pytest.mark.parametrize("sequence", SEQUENCES)
def test_quality_curve_matches_single_budget_search(sequence):
    rp, qp = rate_params(sequence), quality_params(sequence)
    curve = optimal_quality_curve(rp, qp)
    budgets = np.geomspace(0.1 * rp.r_max, rp.r_max, 50).tolist()
    assert [b for b, _ in curve] == budgets
    # The published grid: the three coded frame sizes by 64 frame rates.
    s = np.geomspace(REF.s_max / 16.0, REF.s_max, 3)[:, None]
    t = np.geomspace(REF.t_max / 16.0, REF.t_max, 64)[None, :]
    single = [
        quality_surface(qp, np.maximum(feasible_q(rp, s, t, b), REF.q_min), s, t).max()
        for b in budgets
    ]
    assert [quality for _, quality in curve] == single


def snapshot(arrays):
    return [(a.tobytes(), a.shape, a.strides, repr(a.flags)) for a in arrays]


@pytest.mark.parametrize("writeable", [True, False], ids=["writeable", "read-only"])
def test_surfaces_leave_their_inputs_unchanged(writeable):
    # The surfaces compute in place on temporaries of their own. LayerGrid
    # stores read-only tables, and callers may share arrays across threads.
    rp, qp = rate_params("city"), quality_params("city")
    q, s, t, frac = random_points("city")
    lattice = [np.array(v[:k]).reshape(shape) for v, k, shape in
               ((q, 4, (1, 1, -1)), (s, 3, (-1, 1, 1)), (t, 5, (1, -1, 1)))]
    inputs = [q, s, t, frac * rp.r_max, *lattice, np.array(rp.r_max / 3)]
    for a in inputs:
        a.flags.writeable = writeable
    before = snapshot(inputs)
    q, s, t, budget, q3, s3, t3, budget0 = inputs
    for args in ((q, s, t), (q3, s3, t3)):
        quality_surface(qp, *args)
        rate_surface(rp, *args)
    feasible_q(rp, s, t, budget)
    feasible_q(rp, s3, t3, budget0)
    assert snapshot(inputs) == before
