"""The model domain: the input rules every entry point enforces, the quality
model's stepsize limit, and properties that hold over the whole domain.

The domain is ``q`` in ``[q_min, q_limit)``, ``s`` in ``[s_max/64, s_max]``
and ``t`` in ``[t_max/64, t_max]``, with exponents ``a, b, c > 0`` for the
strict rate properties.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sequences import (
    DYADIC,
    LAYER_Q,
    LAYER_S,
    LAYER_T,
    RATE_TABLES,
    REF,
    SEQUENCES,
    quality_params,
    rate_params,
)
from starq import (
    CIF,
    FeasibleSets,
    InfeasibleError,
    InvalidParameterError,
    OutOfRangeError,
    QualityParams,
    RateParams,
    ResolutionRef,
    Star,
    build_layer_grid,
    evaluate_quality,
    evaluate_rate,
    fit_power_exponent,
    fit_qr,
    max_rate_gap,
    optimal_quality_curve,
    optimize_continuous,
    optimize_discrete,
    order_backward,
    order_forward,
    path_quality_loss,
    pearson,
    qp_from_stepsize,
    quality_surface,
    rate_surface,
    stepsize_from_qp,
)
from starq.fileio import parse_frame_size
from starq.ordering import LayerGrid

CITY = rate_params("city")
CITY_Q = quality_params("city")
Q_LIMIT = QualityParams.q_limit
NAN = float("nan")


class TestCheckerGaps:
    def test_pearson_rejects_nan(self):
        with pytest.raises(InvalidParameterError):
            pearson([1, 2, NAN], [1, 2, 3])

    @pytest.mark.parametrize(
        "points",
        [[(1.0, 1.0), (2.0, NAN)], [(1.0, 1.0), (math.inf, 0.5)], [(NAN, 1.0), (2.0, 0.5)]],
        ids=["nan-rate", "inf-ratio", "nan-ratio"],
    )
    def test_power_exponent_rejects_non_finite(self, points):
        with pytest.raises(InvalidParameterError):
            fit_power_exponent(points, "decreasing")

    def test_fit_qr_rejects_nan_rate(self):
        with pytest.raises(OutOfRangeError):
            fit_qr([(100.0, 0.5), (NAN, 0.7), (300.0, 0.9)], 1000.0)

    def test_fit_qr_rejects_nan_quality(self):
        with pytest.raises(InvalidParameterError):
            fit_qr([(100.0, 0.5), (200.0, NAN), (300.0, 0.9)], 1000.0)

    def test_numpy_scalars_are_real_numbers(self):
        x = Star(np.float32(16.0), np.int64(CIF), np.float64(30.0))
        assert all(type(v) is float for v in (x.q, x.s, x.t))
        assert x == Star(16.0, float(CIF), 30.0)
        assert evaluate_rate(CITY, x) == evaluate_rate(CITY, Star(16.0, float(CIF), 30.0))

    @pytest.mark.parametrize(
        "value",
        ["16", None, 1j, np.array([16.0]), True, np.True_, pytest.param(10**400, id="huge-int")],
    )
    def test_non_real_scalars_are_rejected(self, value):
        with pytest.raises(InvalidParameterError):
            Star(value, 1.0, 1.0)

    def test_surfaces_reject_non_real_arrays(self):
        with pytest.raises(InvalidParameterError):
            rate_surface(CITY, np.array(["16"]), REF.s_max, REF.t_max)

    @pytest.mark.parametrize(
        "q",
        [np.array([True]), [True, 16.0], [[True, 16.0]], [np.True_, 16.0],
         [np.array([True, True]), (1.0, 2.0)], [(16, True)]],
        ids=["bool-array", "bool-in-list", "bool-in-nested-list", "numpy-bool-in-list",
             "bool-array-in-list", "bool-in-list-of-tuples"],
    )
    def test_surfaces_reject_booleans(self, q):
        with pytest.raises(InvalidParameterError):
            rate_surface(CITY, q, REF.s_max, REF.t_max)

    @pytest.mark.parametrize(
        "q,floats",
        [([16, 32.0, 64], [16.0, 32.0, 64.0]),
         ([(16, 32.0), (64, 128.0)], [[16.0, 32.0], [64.0, 128.0]])],
        ids=["ints-and-floats", "int-float-tuples"],
    )
    def test_surfaces_take_ints_among_floats(self, q, floats):
        want = rate_surface(CITY, np.array(floats), REF.s_max, REF.t_max)
        assert rate_surface(CITY, q, REF.s_max, REF.t_max).tolist() == want.tolist()

    def test_frame_size_parsing_uses_the_rule(self):
        assert parse_frame_size(np.int64(CIF)) == float(CIF)
        for bad in ("0", "-5", "nan", "inf", None):
            with pytest.raises(InvalidParameterError):
                parse_frame_size(bad)

    def test_huge_qp_is_an_input_error(self):
        with pytest.raises(InvalidParameterError):
            stepsize_from_qp(1e10)

    def test_qp_whose_stepsize_underflows_is_an_input_error(self):
        with pytest.raises(InvalidParameterError, match=r"^qp -6500\.0 gives a stepsize that underflows to 0$"):
            stepsize_from_qp(-6500.0)
        # A subnormal stepsize is still > 0.
        assert stepsize_from_qp(-6440.0) == 5e-324

    @pytest.mark.parametrize(
        "s_values",
        [(), (NAN, 1.0), (2.0, 1.0), (1.0, 1.0), ((1.0, 2.0),), (True, 2.0), (np.True_, 4.0),
         ("1", "2"), (1.0, (2.0, 3.0))],
        ids=["empty", "nan", "decreasing", "repeated", "nested", "bool", "numpy-bool", "strings",
             "ragged"],
    )
    def test_ladder_rule(self, s_values):
        with pytest.raises(InvalidParameterError):
            FeasibleSets(s_values, LAYER_T, (16.0, 104.0))
        rate = np.ones((len(s_values), 1, 1))
        with pytest.raises(InvalidParameterError):
            LayerGrid(s_levels=s_values, t_levels=(1.0,), q_levels=(1.0,), rate=rate, quality=rate)

    @pytest.mark.parametrize("bad", [NAN, math.inf])
    def test_layer_tables_are_finite(self, bad):
        table = np.array([[[1.0, 2.0]]])
        broken = np.array([[[1.0, bad]]])
        for rate, quality in ((broken, table), (table, broken)):
            with pytest.raises(InvalidParameterError):
                LayerGrid(s_levels=(1.0,), t_levels=(1.0,), q_levels=(2.0, 1.0), rate=rate, quality=quality)

    def test_ladders_are_stored_as_floats(self):
        sets = FeasibleSets(np.array(LAYER_S), [np.float32(v) for v in LAYER_T], (16, 104))
        assert sets.s_values == LAYER_S and sets.t_values == LAYER_T
        assert sets.q_range == (16.0, 104.0)


class TestQualityLimit:
    def test_limit_is_where_the_spatial_coefficient_vanishes(self):
        assert Q_LIMIT == pytest.approx(708.4236, rel=1e-6)
        assert float(qp_from_stepsize(Q_LIMIT)) == pytest.approx(2.25 / 0.037, rel=1e-12)

    def test_surfaces_stop_at_the_limit(self):
        # Quality falls to 0 at the limit; the last few floats below it round to 0.
        assert evaluate_quality(CITY_Q, Star(Q_LIMIT * (1 - 1e-9), REF.s_max, REF.t_max)) > 0.0
        assert evaluate_quality(CITY_Q, Star(np.nextafter(Q_LIMIT, 0.0), REF.s_max, REF.t_max)) == 0.0
        for q in (Q_LIMIT, 2000.0):
            with pytest.raises(OutOfRangeError):
                evaluate_quality(CITY_Q, Star(q, REF.s_max, REF.t_max))
            with pytest.raises(OutOfRangeError):
                quality_surface(CITY_Q, np.array([16.0, q]), REF.s_max, REF.t_max)

    def test_layer_grid_rejects_levels_beyond_the_limit(self):
        with pytest.raises(OutOfRangeError):
            build_layer_grid(CITY, CITY_Q, LAYER_S, LAYER_T, (2000.0, *LAYER_Q))

    def test_continuous_optimizers_report_infeasible(self):
        with pytest.raises(InfeasibleError):
            optimize_continuous(CITY, CITY_Q, 0.05)
        # Rate falls so slowly with the stepsize that 0.1 * r_max needs q >= q_limit.
        slow = RateParams(a=0.3, b=0.1, c=0.1, r_max=1000.0, ref=REF)
        with pytest.raises(InfeasibleError):
            optimal_quality_curve(slow, CITY_Q)

    def test_discrete_optimizer_reports_infeasible(self):
        sets = FeasibleSets(LAYER_S, LAYER_T, (16.0, 1e6))
        assert optimize_discrete(CITY, CITY_Q, sets, 50.0).star.q < Q_LIMIT
        with pytest.raises(InfeasibleError):
            optimize_discrete(CITY, CITY_Q, sets, 0.05)


class TestFiniteRates:
    def test_overflow_is_out_of_range(self):
        # Only the typed error: a numpy warning, an error under the warnings
        # filter, would pre-empt it.
        with pytest.raises(OutOfRangeError):
            evaluate_rate(CITY, Star(1e-300, REF.s_max, REF.t_max))
        with pytest.raises(OutOfRangeError):
            rate_surface(CITY, np.array([16.0, 1e-300]), REF.s_max, REF.t_max)

    def test_underflow_is_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            evaluate_rate(CITY, Star(1e300, REF.s_max, REF.t_max))
        with pytest.raises(OutOfRangeError):
            rate_surface(CITY, 1e300, REF.s_max, REF.t_max)


# ---------------------------------------------------------------------------
# properties over the documented domain

unit = st.floats(min_value=0.0, max_value=1.0)
refs = st.builds(
    ResolutionRef,
    q_min=st.floats(min_value=1.0, max_value=64.0),
    s_max=st.floats(min_value=1e3, max_value=1e7),
    t_max=st.floats(min_value=5.0, max_value=120.0),
)
exponents = st.floats(min_value=0.1, max_value=3.0)
alphas = st.floats(min_value=0.5, max_value=12.0)


@st.composite
def models(draw):
    ref = draw(refs)
    rp = RateParams(
        a=draw(exponents), b=draw(exponents), c=draw(exponents),
        r_max=draw(st.floats(min_value=1.0, max_value=1e5)), ref=ref,
    )
    qp = QualityParams(alpha_q=draw(alphas), alpha_s_tilde=draw(alphas), alpha_t=draw(alphas), ref=ref)
    return rp, qp


def in_domain(ref: ResolutionRef, u_q: float, u_s: float, u_t: float) -> Star:
    """The point at fractions ``u`` of each axis range, log-spaced."""
    q = min(ref.q_min * (Q_LIMIT / ref.q_min) ** u_q, np.nextafter(Q_LIMIT, 0.0))
    return Star(q=q, s=ref.s_max * 64.0 ** (u_s - 1.0), t=ref.t_max * 64.0 ** (u_t - 1.0))


@settings(max_examples=200, deadline=None)
@given(model=models(), u=st.tuples(unit, unit, unit))
def test_quality_lies_in_unit_interval(model, u):
    _, qp = model
    x = in_domain(qp.ref, *u)
    assert 0.0 <= evaluate_quality(qp, x) <= 1.0


@settings(max_examples=200, deadline=None)
@given(model=models(), u=st.tuples(unit, unit, unit), axis=st.sampled_from("qst"),
       v=st.tuples(unit, unit))
def test_monotone_along_each_axis(model, u, axis, v):
    rp, qp = model
    assume(abs(v[0] - v[1]) >= 0.01)
    lo_u, hi_u = sorted(v)
    i = "qst".index(axis)
    lo = in_domain(rp.ref, *(lo_u if k == i else u[k] for k in range(3)))
    hi = in_domain(rp.ref, *(hi_u if k == i else u[k] for k in range(3)))
    # A larger stepsize lowers rate and quality; a larger size or rate raises them.
    r_lo, r_hi = evaluate_rate(rp, lo), evaluate_rate(rp, hi)
    q_lo, q_hi = evaluate_quality(qp, lo), evaluate_quality(qp, hi)
    if axis == "q":
        assert r_lo > r_hi and q_lo >= q_hi
    else:
        assert r_lo < r_hi and q_lo <= q_hi


budget_fracs = st.floats(min_value=-4.0, max_value=0.0).map(lambda e: 10.0 ** e)


@settings(max_examples=100, deadline=None)
@given(model=models(), frac=budget_fracs,
       grid=st.integers(2, 40) | st.integers(2, 40).map(np.int64))
def test_continuous_optimizer_keeps_the_budget(model, frac, grid):
    rp, qp = model
    budget = frac * rp.r_max
    try:
        result = optimize_continuous(rp, qp, budget, grid=grid)
    except InfeasibleError:
        return
    assert result.rate <= budget * (1.0 + 1e-9)
    assert result.star.q < Q_LIMIT and 0.0 < result.quality <= 1.0


@settings(max_examples=100, deadline=None)
@given(model=models(), frac=budget_fracs, n=st.tuples(st.integers(1, 4), st.integers(1, 4)),
       q_hi=st.floats(min_value=1.0, max_value=50.0))
def test_discrete_optimizer_keeps_the_budget(model, frac, n, q_hi):
    rp, qp = model
    ref = rp.ref
    sets = FeasibleSets(
        s_values=tuple(ref.s_max / 4.0 ** k for k in reversed(range(n[0]))),
        t_values=tuple(ref.t_max / 2.0 ** k for k in reversed(range(n[1]))),
        q_range=(ref.q_min, ref.q_min * q_hi),
    )
    budget = frac * rp.r_max
    try:
        result = optimize_discrete(rp, qp, sets, budget)
    except InfeasibleError:
        return
    assert result.rate <= budget * (1.0 + 1e-9)
    assert result.star.q < Q_LIMIT and 0.0 < result.quality <= 1.0


# Largest relative change of an optimal-quality curve under a rate unit
# that is a power of two: its budgets go through log10 and back.
CURVE_REL_TOL = 1e-13


@settings(max_examples=100, deadline=None)
@given(scenario=st.sampled_from(sorted(RATE_TABLES)), sequence=st.sampled_from(SEQUENCES),
       j=st.integers(-200, 199))
def test_rate_unit_is_free(scenario, sequence, j):
    # Rates in another unit, a power of two apart: every decision, path and
    # summary fit scales its rates by exactly k and keeps everything else.
    rp, qp, k = rate_params(sequence, scenario), quality_params(sequence), 2.0 ** j
    scaled = dataclasses.replace(rp, r_max=rp.r_max * k)
    for frac in (0.02, 0.1, 0.4, 0.9):
        for optimize in (lambda p, b: optimize_continuous(p, qp, b, grid=64),
                         lambda p, b: optimize_discrete(p, qp, DYADIC, b)):
            try:
                want = optimize(rp, frac * rp.r_max)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    optimize(scaled, frac * rp.r_max * k)
                continue
            got = optimize(scaled, frac * rp.r_max * k)
            assert (got.star, got.quality, got.rate) == (want.star, want.quality, want.rate * k)
    grid = build_layer_grid(rp, qp, LAYER_S, LAYER_T, LAYER_Q)
    grid_k = build_layer_grid(scaled, qp, LAYER_S, LAYER_T, LAYER_Q)
    curve = optimal_quality_curve(rp, qp)
    qr = fit_qr(curve, rp.r_max)
    qr_k = fit_qr([(r * k, v) for r, v in curve], rp.r_max * k)
    assert (qr_k.model.kappa, qr_k.model.r_max, qr_k.rmse) == (
        qr.model.kappa, qr.model.r_max * k, qr.rmse)
    for order in (order_forward, order_backward):
        path, path_k = order(grid), order(grid_k)
        assert path_k.steps == tuple(x._replace(rate=x.rate * k) for x in path.steps)
        assert path_k.nonpositive_gain_steps == path.nonpositive_gain_steps
        assert path_k.slopes == tuple(v / k for v in path.slopes)
        assert max_rate_gap(path_k) == max_rate_gap(path) * k
        assert path_quality_loss(path_k, qr_k.model) == path_quality_loss(path, qr.model)
    for (r, v), (r_k, v_k) in zip(curve, optimal_quality_curve(scaled, qp)):
        assert math.isclose(r_k, r * k, rel_tol=CURVE_REL_TOL)
        assert math.isclose(v_k, v, rel_tol=CURVE_REL_TOL)
