"""The decision and fit paths return the bits of their plain numpy forms.

Each test here runs a sped-up path and its plain form, the reference, on the
same machine and compares them. Their last bits follow the SIMD loops numpy
dispatches to (``expm1``, ``log2``, ``power``, sums), so the golden files
need one set per dispatch while these comparisons hold under any dispatch.

``optimize_continuous``, ``optimize_discrete``, ``optimal_quality_curve``,
``build_layer_grid`` and ``evaluate_quality`` build their axes without
``np.geomspace``, their ladder pairs without ``np.meshgrid`` and their best
cell without ``np.unravel_index``, and read the quality surface's normalizing
denominators from ``QualityParams`` instead of computing them per call. The
quality surface and the budget-exact stepsize write their temporaries in
place; ``reference_quality`` and ``reference_budget_q`` are their allocating
expressions, and every other reference is built on them, so a fault in the
in-place forms cannot cancel out. ``reference_quality`` powers ``q_min / q``
by ``beta_q = 1`` and ``_quality`` leaves it unpowered, so each comparison
checks that unpowered stepsize factor on the dispatch it runs on. For
Python-float, 0-d, 1-d and broadcast inputs the in-place forms must give the
same bits, the same first floating-point error under numpy's raise mode and
the same warnings, and leave their inputs as they were. ``_geomspace`` must
give the bits of ``np.geomspace``, its outside specification. The fit path's scalar-search
objectives (the exponent fit's squared error, the Q(R) fit's RMSE) reduce in
place without numpy's Python-level wrappers; the references, and the fits
around them, are their first forms. Results must be equal with ``==``, not
to a tolerance.

The joint fit's least-squares loop reads ``JᵀJ``, ``Jᵀr`` and ``rᵀr`` from
one product of ``[J | r]`` with itself and steps on Python floats;
``reference_least_squares_box`` is the numpy loop it replaced, run from the
same seed in the same box. Both fill ``[J | r]`` with the same bits but sum
in other orders, so here results agree to a tolerance: the sum of squares no
more than 1e-12 relative above the reference's, parameters within 1e-9
relative, and the seed's warnings only. Where a stopping test that rounding
decides splits the loops, the reference restarted from the loop's end point
must find nothing better: a sum of squares no more than 1e-12 relative
below, parameters within 1e-9. The reference's small-step test keeps an
absolute 1e-26 term that the loop's relative test dropped; with ``r_max`` of
10 or more it never decides. One log on which the loop stalls keeps the end
point and sum of squares it has always reached, bit for bit; the sum of
squares is pinned per golden library set, the one ``golden/PLATFORM`` names
for this process's SIMD dispatch.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from golden.regen import dispatch, golden_set
from sequences import (
    DYADIC,
    JOINT_FIT_CASES,
    LAYER_Q,
    LAYER_S,
    LAYER_T,
    RATE_TABLES,
    REF,
    SEQUENCES,
    joint_fit_logs,
    quality_params,
    rate_params,
    synthetic_log,
    without_anchor,
)
from starq import (
    DegenerateDataError,
    InfeasibleError,
    InsufficientDataError,
    OptimizationResult,
    QrModel,
    RateParams,
    Star,
    StarqError,
    build_layer_grid,
    evaluate_quality,
    fit_rate_params,
    feasible_q,
    fit_power_exponent,
    fit_qr,
    optimal_quality_curve,
    optimize_continuous,
    optimize_discrete,
    quality_surface,
    rate_surface,
)
from starq import _solve, fitting
from starq.fitting import QrFit, _exponent_sse, _qr_rmse
from starq._solve import minimize_bounded
from starq.models import _REL_TOL, _check, _check_q_limit, _quality, _rate
from starq.optimizer import _budget_q, _geomspace

GRIDS = (2, 3, 5, 64, 128)


def reference_alpha_s(p, q):
    qp = np.maximum(4.0 + 6.0 * np.log2(q), p.qp_clamp)
    return p.alpha_s_tilde * (p.nu1 * qp + p.nu2)


def reference_quality(p, q, s, t):
    ref = p.ref
    f_q = np.expm1(-p.alpha_q * np.power(ref.q_min / q, p.beta_q)) / np.expm1(-p.alpha_q)
    a_s_ref = reference_alpha_s(p, ref.q_min)
    f_s = np.expm1(-reference_alpha_s(p, q) * np.power(s / ref.s_max, p.beta_s)) / np.expm1(-a_s_ref)
    f_t = np.expm1(-p.alpha_t * np.power(t / ref.t_max, p.beta_t)) / np.expm1(-p.alpha_t)
    return f_q * f_s * f_t


def reference_budget_q(rp, s, t, budget):
    ref = rp.ref
    return ref.q_min * np.power(
        (rp.r_max / budget) * np.power(s / ref.s_max, rp.c) * np.power(t / ref.t_max, rp.b),
        1.0 / rp.a,
    )


def reference_best_cells(rp, qp, budget, s, t):
    s, t = s[:, None], t[None, :]
    q = np.maximum(reference_budget_q(rp, s, t, budget), rp.ref.q_min)
    quality = reference_quality(qp, q, s, t)
    best = np.argmax(quality.reshape(len(budget), -1), axis=1)
    i, j = np.unravel_index(best, quality.shape[1:])
    rows = np.arange(len(budget))
    return quality[rows, i, j], q[rows, i, j], i, j


def reference_axes(ref, n_s, n_t):
    return (np.geomspace(ref.s_max / 16.0, ref.s_max, n_s),
            np.geomspace(ref.t_max / 16.0, ref.t_max, n_t))


def reference_continuous(rp, qp, budget, n):
    budgets = np.full((1, 1, 1), budget)
    s_axis, t_axis = reference_axes(rp.ref, n, n)
    quality, q, i, j = (v[0] for v in reference_best_cells(rp, qp, budgets, s_axis, t_axis))
    s, t = s_axis[i], t_axis[j]
    lo = (s_axis[max(i - 1, 0)], t_axis[max(j - 1, 0)])
    hi = (s_axis[min(i + 1, n - 1)], t_axis[min(j + 1, n - 1)])
    s_fine, t_fine = np.geomspace(lo, hi, 5, axis=-1)
    fine = (v[0] for v in reference_best_cells(rp, qp, budgets, s_fine, t_fine))
    fine_quality, fine_q, fi, fj = fine
    if fine_quality > quality:
        quality, q, s, t = fine_quality, fine_q, s_fine[fi], t_fine[fj]
    quality, q, s, t = float(quality), float(q), float(s), float(t)
    _check_q_limit(q, budget)
    return OptimizationResult(Star(q, s, t), quality, float(_rate(rp, q, s, t)))


def reference_discrete(rp, qp, sets, budget):
    q_lo, q_hi = sets.q_range
    s, t = (v.ravel() for v in np.meshgrid(sets.s_values, sets.t_values, indexing="ij"))
    q = np.maximum(reference_budget_q(rp, s, t, budget), q_lo)
    feasible = q <= q_hi * (1.0 + _REL_TOL)
    if not feasible.any():
        raise InfeasibleError(f"budget {budget} kbps is unreachable even at the coarsest stepsize")
    q, s, t = q[feasible], s[feasible], t[feasible]
    quality = reference_quality(qp, q, s, t)
    k = np.lexsort((s, t, -q, quality))[-1]
    _check_q_limit(float(q[k]), budget)
    return OptimizationResult(
        Star(float(q[k]), float(s[k]), float(t[k])),
        float(quality[k]),
        float(_rate(rp, q[k], s[k], t[k])),
    )


def reference_curve(rp, qp):
    budgets = np.geomspace(0.1 * rp.r_max, rp.r_max, 50)
    axes = reference_axes(rp.ref, 3, 64)
    quality, q, _, _ = reference_best_cells(rp, qp, budgets[:, None, None], *axes)
    k = q.argmax()
    _check_q_limit(float(q[k]), float(budgets[k]))
    return [(float(b), float(v)) for b, v in zip(budgets, quality)]


def outcome(f, *args):
    # The result, or the type and message of the package error raised instead.
    try:
        return f(*args)
    except StarqError as exc:
        return type(exc), str(exc)


def budgets(rp):
    # 40 budgets from infeasible through clamped at q_min.
    return np.geomspace(0.005 * rp.r_max, 1.5 * rp.r_max, 40).tolist()


@pytest.mark.parametrize("sequence", SEQUENCES)
@pytest.mark.parametrize("grid", GRIDS)
def test_continuous_matches_reference(sequence, grid):
    rp, qp = rate_params(sequence), quality_params(sequence)
    for budget in budgets(rp):
        got = outcome(optimize_continuous, rp, qp, budget, grid)
        assert got == outcome(reference_continuous, rp, qp, budget, grid), budget


@pytest.mark.parametrize("sequence", SEQUENCES)
def test_discrete_and_evaluate_quality_match_reference(sequence):
    rp, qp = rate_params(sequence), quality_params(sequence)
    for budget in budgets(rp):
        got = outcome(optimize_discrete, rp, qp, DYADIC, budget)
        assert got == outcome(reference_discrete, rp, qp, DYADIC, budget), budget
        if isinstance(got, OptimizationResult):
            x = got.star
            assert evaluate_quality(qp, x) == float(reference_quality(qp, x.q, x.s, x.t))


@pytest.mark.parametrize("sequence", SEQUENCES)
def test_curve_matches_reference(sequence):
    rp, qp = rate_params(sequence), quality_params(sequence)
    assert outcome(optimal_quality_curve, rp, qp) == outcome(reference_curve, rp, qp)


@pytest.mark.parametrize("sequence", SEQUENCES)
def test_layer_grid_and_evaluate_quality_match_reference(sequence):
    rp, qp = rate_params(sequence), quality_params(sequence)
    q_levels = tuple(np.geomspace(700.0, 16.0, 40).tolist())
    for levels in ((LAYER_S, LAYER_T, LAYER_Q), (LAYER_S, LAYER_T, q_levels)):
        s, t, q = (np.reshape(v, k) for v, k in zip(levels, ((-1, 1, 1), (1, -1, 1), (1, 1, -1))))
        grid = build_layer_grid(rp, qp, *levels)
        assert grid.rate.tobytes() == rate_surface(rp, q, s, t).tobytes()
        assert grid.quality.tobytes() == reference_quality(qp, q, s, t).tobytes()
    rng = np.random.default_rng(SEQUENCES.index(sequence))
    for x in zip(*(rng.uniform(lo, hi, 40).tolist() for lo, hi in
                   ((16.0, 700.0), (LAYER_S[0] / 4, LAYER_S[-1]), (1.0, 30.0)))):
        assert evaluate_quality(qp, Star(*x)) == float(reference_quality(qp, *x))


# Input forms of the surfaces: a Python float, a 0-d array, a 1-d axis, the
# three axes of a layer lattice as build_layer_grid passes them, a 2-d grid
# and a full lattice. Any three of them broadcast together.
FORMS = (None, (), (3,), (2, 1, 1), (1, 4, 1), (1, 1, 3), (4, 3), (2, 4, 3))
# Magnitudes near the model's domain, and any positive finite float, so that
# the surfaces over- and underflow.
magnitudes = st.one_of(
    st.floats(1e-3, 1e6),
    st.floats(min_value=0.0, max_value=np.finfo(float).max, exclude_min=True),
)


@st.composite
def surface_inputs(draw, n):
    inputs = []
    for _ in range(n):
        form = draw(st.sampled_from(FORMS))
        size = 1 if form is None else math.prod(form)
        values = draw(st.lists(magnitudes, min_size=size, max_size=size))
        inputs.append(values[0] if form is None else np.reshape(values, form))
    return inputs


def bits(value):
    return type(value), np.shape(value), np.asarray(value).tobytes()


def surface_outcome(f, *args):
    # The first floating-point error under numpy's raise mode, or the
    # result's bits; then the result's bits again with every numpy warning
    # recorded. A package error stands for both.
    try:
        with np.errstate(all="raise"):
            try:
                raised = bits(f(*args))
            except FloatingPointError as exc:
                raised = str(exc)
        with warnings.catch_warnings(record=True) as caught, np.errstate(all="warn"):
            warnings.simplefilter("always")
            value = bits(f(*args))
        return raised, value, [str(w.message) for w in caught]
    except StarqError as exc:
        return type(exc), str(exc)


def as_arrays(*args):
    # What the public surfaces validate their inputs into.
    return [np.asarray(v, dtype=float) for v in args]


def reference_quality_surface(p, q, s, t):
    q, s, t = as_arrays(q, s, t)
    _check_q_limit(q.max(initial=0.0))
    return reference_quality(p, q, s, t)


def reference_feasible_q(p, s, t, budget):
    return reference_budget_q(p, *as_arrays(s, t, budget))


@settings(max_examples=300, deadline=None)
@given(
    sequence=st.sampled_from(SEQUENCES),
    scenario=st.sampled_from(sorted(RATE_TABLES)),
    qst=surface_inputs(3),
    budget=surface_inputs(1),
)
@example(sequence="city", scenario="svc1", qst=[5e-324, 1e5, 10.0], budget=[1e-300])
@example(sequence="crew", scenario="svc1", qst=[1e-300, 1e300, 1e300], budget=[1e300])
@example(sequence="city", scenario="svc1", qst=[1.6e-307, 1e5, 10.0], budget=[1.0])
def test_surfaces_in_place_match_reference(sequence, scenario, qst, budget):
    rp, qp = rate_params(sequence, scenario), quality_params(sequence)
    q, s, t = qst
    before = [bits(v) for v in (q, s, t, *budget)]
    for got, want, args in (
        (_quality, reference_quality, (qp, q, s, t)),
        (quality_surface, reference_quality_surface, (qp, q, s, t)),
        (_budget_q, reference_budget_q, (rp, s, t, *budget)),
        (feasible_q, reference_feasible_q, (rp, s, t, *budget)),
    ):
        assert surface_outcome(got, *args) == surface_outcome(want, *args), got.__name__
    assert [bits(v) for v in (q, s, t, *budget)] == before


def numpy_outcome(f):
    # The array, or numpy's message where an operation over- or underflows.
    with np.errstate(all="raise"):
        try:
            return f()
        except FloatingPointError as exc:
            return str(exc)


positive = st.floats(min_value=0.0, max_value=np.finfo(float).max, exclude_min=True)
endpoints = st.lists(st.tuples(positive, positive).map(sorted).filter(lambda p: p[0] < p[1]),
                     min_size=1, max_size=3)


@given(pairs=endpoints, n=st.integers(2, 300))
def test_geomspace_is_numpy_geomspace(pairs, n):
    lo, hi = np.array(pairs).T.copy()
    got = numpy_outcome(lambda: _geomspace(lo, hi, n))
    want = numpy_outcome(lambda: np.geomspace(lo, hi, n, axis=-1))
    if isinstance(want, str):
        assert got == want
    else:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# The fit path's scalar objectives as first written, and the objectives the
# fits now search, called with the same arguments.
def reference_sse(ratios, values, sign, x):
    return float(np.sum((ratios ** (sign * x) - values) ** 2))


def lean_sse(ratios, values, sign, x):
    return _exponent_sse(ratios, values, sign)(x)


def reference_rmse(kappa, ratio, qualities):
    qr = np.expm1(-kappa * np.power(ratio, QrModel.exponent)) / np.expm1(-kappa)
    return float(np.sqrt(np.mean((qr - qualities) ** 2)))


def lean_rmse(kappa, ratio, qualities):
    # fit_qr powers the clamped rate ratios once, before its search.
    return _qr_rmse(np.power(ratio, QrModel.exponent), qualities)(kappa)


def outcome_bits(f, *args):
    # The value (repr, so that NaN equals NaN) and the kind of the first
    # floating-point error on the way to it, if any. The lean forms multiply
    # where the references square, so numpy's messages name other ufuncs.
    with np.errstate(all="ignore"):
        value = repr(f(*args))
    got = numpy_outcome(lambda: f(*args))
    return value, got.split(" encountered")[0] if isinstance(got, str) else None


finite_positive = st.floats(min_value=1e-300, max_value=1e300)
exponents = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0]), st.floats(0.0, 4.0))


@given(
    pairs=st.lists(st.tuples(finite_positive, finite_positive), min_size=1, max_size=40),
    x=exponents,
    sign=st.sampled_from([-1.0, 1.0]),
)
@example(pairs=[(2.0, 0.5), (4.0, 0.25)], x=0.5, sign=-1.0)
def test_exponent_objective_matches_reference(pairs, x, sign):
    ratios, values = np.array(pairs).T.copy()
    assert outcome_bits(lean_sse, ratios, values, sign, x) == outcome_bits(
        reference_sse, ratios, values, sign, x
    )


@given(
    points=st.lists(st.tuples(st.floats(1e-12, 1.0), st.floats(-2.0, 2.0)), min_size=1, max_size=60),
    kappa=st.one_of(st.sampled_from([1e-6, 0.5, 1.0, 2.0, 4.0, 50.0]), st.floats(1e-6, 50.0)),
)
def test_qr_objective_matches_reference(points, kappa):
    ratio, qualities = np.array(points).T.copy()
    assert outcome_bits(lean_rmse, kappa, ratio, qualities) == outcome_bits(
        reference_rmse, kappa, ratio, qualities
    )


# The exponent fit and the Q(R) fit as first written, around the reference
# objectives above.
def reference_fit_power_exponent(points, direction):
    pairs = _check("normalized points", list(points), array=True)
    ratios, values = pairs.T.copy()
    if all(math.isclose(r, 1.0, rel_tol=1e-12) for r in ratios):
        raise DegenerateDataError("all ratios equal 1; exponent is unidentifiable")
    sign = -1.0 if direction == "decreasing" else 1.0
    log_r = np.log(ratios)
    log_v = np.log(values)
    dr = log_r - log_r.mean()
    slope = float(np.dot(dr, log_v - log_v.mean()) / np.dot(dr, dr))
    init = min(max(sign * slope, 0.0), 4.0)
    result = minimize_bounded(lambda x: reference_sse(ratios, values, sign, x), 0.0, 4.0)
    if reference_sse(ratios, values, sign, init) < result.fun:
        return init
    return result.x


def reference_fit_qr(curve, r_max):
    points = list(curve)
    r_max = _check("r_max", r_max)
    ratio = np.minimum(_check("curve rates", [p[0] for p in points], array=True) / r_max, 1.0)
    qualities = _check("curve qualities", [p[1] for p in points], -np.inf, array=True)
    result = minimize_bounded(lambda kappa: reference_rmse(kappa, ratio, qualities), 1e-6, 50.0)
    return QrFit(model=QrModel(kappa=result.x, r_max=r_max), rmse=result.fun)


@given(
    points=st.lists(st.tuples(st.floats(0.01, 100.0), st.floats(1e-3, 1e3)), min_size=2, max_size=30),
    direction=st.sampled_from(["decreasing", "increasing"]),
)
def test_fit_power_exponent_matches_reference(points, direction):
    # Equal ratios other than 1 make the reference's log-log seed 0 / 0, a
    # NaN that never wins; fit_power_exponent skips that seed.
    with np.errstate(invalid="ignore"):
        expected = outcome(reference_fit_power_exponent, points, direction)
    assert outcome(fit_power_exponent, points, direction) == expected


@given(curve=st.lists(st.tuples(st.floats(1e-3, 1000.0), st.floats(-1.0, 2.0)), min_size=3,
                      max_size=60, unique_by=lambda p: p[1]))
def test_fit_qr_matches_reference(curve):
    assert fit_qr(curve, 1000.0) == reference_fit_qr(curve, 1000.0)


# The joint fit's least-squares loop as first written: it takes the residual
# and the Jacobian apart and keeps its books in numpy.
def reference_least_squares_box(resid_jac, x0, lower):
    lower = np.asarray(lower, dtype=float)
    x_start = x = np.maximum(np.asarray(x0, dtype=float), lower)
    r, jac = resid_jac(x)
    sse_start = sse = float(r @ r)
    damping = 1e-3
    status = "max_iterations"
    nit = 0
    while nit < _solve._MAX_ITERATIONS:
        grad = jac.T @ r
        free = (x > lower) | (grad < 0.0)
        if sse == 0.0 or not free.any():
            status = "converged"
            break
        jf = jac[:, free]
        scale = np.sqrt(np.einsum("ij,ij->j", jf, jf))
        scale[scale == 0.0] = 1.0
        g = grad[free] / scale
        g_max = np.max(np.abs(g))
        if g_max <= _solve._TOL * math.sqrt(sse):
            status = "converged"
            break
        h = (jf / scale).T @ (jf / scale)
        while damping <= 1e16:
            try:
                z = np.linalg.solve(h + damping * np.eye(h.shape[0]), -g)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            trial = x.copy()
            trial[free] += z / scale
            np.maximum(trial, lower, out=trial)
            r_trial, jac_trial = resid_jac(trial)
            sse_trial = float(r_trial @ r_trial)
            if sse_trial < sse or (
                sse_trial <= sse * (1.0 + 64 * _solve._EPS)
                and np.max(np.abs(jac_trial[:, free].T @ r_trial) / scale) < g_max
            ):
                break
            damping *= 10.0
        else:
            status = "stalled"
            break
        nit += 1
        small_step = bool(np.all(np.abs(trial - x) <= _solve._TOL * (np.abs(x) + _solve._TOL)))
        x, r, jac, sse = trial, r_trial, jac_trial, sse_trial
        damping = max(damping * 0.1, 1e-12)
        if small_step:
            status = "converged"
            break
    if sse > sse_start:
        return x_start, sse_start, nit, status
    return x, sse, nit, status


def reference_joint_problem(signed, measured, init):
    # The joint fit's residual and Jacobian in the reference's form, and the
    # box of the refinement: a, b, c >= 0 and r_max >= 1e-9 times the seed's.
    lq, lt, ls = -signed[:, 0], signed[:, 1], signed[:, 2]

    def resid_jac(x):
        a, b, c, r_max = x
        unit = np.exp(-a * lq + b * lt + c * ls)
        model = r_max * unit
        return model - measured, np.column_stack((-lq * model, lt * model, ls * model, unit))

    return resid_jac, (0.0, 0.0, 0.0, 1e-9 * init.r_max)


def seed_warnings(log):
    # The warnings of the joint fit's seed: the protocol fit's, or the
    # log-domain seed's where the protocol fit cannot run.
    try:
        return fit_rate_params(log).warnings
    except (InsufficientDataError, DegenerateDataError):
        return ("anchor samples missing; joint fit seeded by log-domain regression",)


def joint_fit_and_reference(log):
    # A joint fit with the solver's outcome, the reference problem of the
    # seed that fit refined, and the reference loop's (x, sse, nit, status)
    # from that seed.
    seen = {}

    def spy_refine(signed, measured, init):
        seen["args"] = (signed, measured, init)
        return refine(signed, measured, init)

    def spy_solve(*args):
        seen["result"] = solve(*args)
        return seen["result"]

    refine, solve = fitting._joint_refine, fitting.least_squares_box
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fitting, "_joint_refine", spy_refine)
        patch.setattr(fitting, "least_squares_box", spy_solve)
        report = fit_rate_params(log, mode="joint")
    init = seen["args"][2]
    resid_jac, lower = reference_joint_problem(*seen["args"])
    result = reference_least_squares_box(resid_jac, [init.a, init.b, init.c, init.r_max], lower)
    return report, seen["result"], (resid_jac, lower), result


def assert_close_params(got, want):
    for u, v in zip(got, want):
        assert math.isclose(u, v, rel_tol=1e-9, abs_tol=1e-300)


def assert_joint_fit_matches_reference(log):
    report, result, (resid_jac, lower), (x, sse, nit, status) = joint_fit_and_reference(log)
    assert report.warnings == seed_warnings(log)
    assert result.sse <= sse * (1.0 + 1e-12)
    p = report.params
    assert_close_params((p.a, p.b, p.c, p.r_max), x.tolist())
    if (result.nit, result.status) != (nit, status):
        # The loops fill [J | r] with the same bits but sum its products in
        # other orders, so a test that rounding decides near the optimum can
        # end them at different points; from the loop's end point the
        # reference finds nothing better.
        x_restart, sse_restart, _, _ = reference_least_squares_box(resid_jac, result.x, lower)
        assert sse_restart >= result.sse * (1.0 - 1e-12)
        assert_close_params(x_restart.tolist(), result.x.tolist())


@pytest.mark.parametrize("scenario, noise, seed, anchors", JOINT_FIT_CASES)
def test_joint_fit_matches_reference(scenario, noise, seed, anchors):
    for _, log in joint_fit_logs(scenario, noise, seed, anchors):
        assert_joint_fit_matches_reference(log)


@settings(max_examples=100, deadline=None)
@given(
    a=st.floats(0.2, 2.5),
    b=st.floats(0.1, 1.5),
    c=st.floats(0.1, 1.5),
    r_max=st.floats(10.0, 1e5),
    noise=st.floats(0.0, 0.03),
    seed=st.integers(0, 2**16),
    anchors=st.booleans(),
)
# Loops that split on a stopping test that rounding decides.
@example(a=1.0, b=1.0, c=1.0, r_max=183.0, noise=0.0013, seed=1, anchors=False)
@example(a=1.4223360264470752, b=1.4842130907755666, c=1.2014006689253527,
         r_max=30916.73157313823, noise=0.006490211773826148, seed=288, anchors=False)
@example(a=1.6590943847008912, b=1.2354779455596516, c=1.5,
         r_max=86540.39402677245, noise=0.004466524143830007, seed=5957, anchors=False)
@example(a=0.6843362462706057, b=0.9518666446375877, c=0.9805728028738765,
         r_max=74932.97649851555, noise=0.001094748956510996, seed=6615, anchors=True)
def test_joint_fit_matches_reference_on_any_log(a, b, c, r_max, noise, seed, anchors):
    log = synthetic_log(RateParams(a=a, b=b, c=c, r_max=r_max, ref=REF), noise, seed)
    assert_joint_fit_matches_reference(log if anchors else without_anchor(log))


# The stall log's sum of squares per golden library set: its last bits follow
# the loops numpy dispatches to and, on the host ``golden/PLATFORM`` records,
# change at the same dispatch level as the library files. ``PLATFORM`` names
# the set each dispatch reads.
STALL_SSE = {"lib": "0x1.9e16db7f1e329p-8", "lib-baseline": "0x1.9e16db7f1e60ap-8"}


def test_joint_fit_on_stall_log_keeps_its_bits():
    # Near its end no damped step up to damping 1e16 lowers the sum of
    # squares or, within rounding of it, the scaled gradient, so the loop
    # stalls. Its end point and sum of squares are pinned bit for bit.
    log = synthetic_log(RateParams(a=1.0, b=1.0, c=1.0, r_max=183.0, ref=REF), 0.0013, 1)
    _, result, _, _ = joint_fit_and_reference(without_anchor(log))
    assert (result.nit, result.status) == (4, "stalled")
    assert result.x.tolist() == [
        float.fromhex(h)
        for h in ("0x1.0030637517994p+0", "0x1.fffbadcf98452p-1", "0x1.001f6953ffa8bp+0", "0x1.6e3705255a79ep+7")
    ]
    assert result.sse == float.fromhex(STALL_SSE[golden_set(dispatch(), "lib").name])
