from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sequences import (
    JOINT_FIT_CASES,
    RATE_TABLES,
    REF,
    SEQUENCES,
    joint_fit_logs,
    rate_params,
    synthetic_log,
    without_anchor,
)
from starq import (
    CIF4,
    QCIF,
    DegenerateDataError,
    EncodeLog,
    InsufficientDataError,
    InvalidParameterError,
    RateParams,
    RateSample,
    Star,
    evaluate_rate,
    fit_power_exponent,
    fit_rate_params,
    normalize_nrq,
    normalize_nrs,
    normalize_nrt,
    pearson,
)
from starq._solve import minimize_bounded
from starq.fitting import _exponent_sse

CITY = rate_params("city")


def small_log(entries):
    return EncodeLog(
        samples=tuple(RateSample(star=Star(q, s, t), rate=r) for (q, s, t, r) in entries), ref=REF
    )


class TestNormalization:
    def test_nrq_definition(self):
        log = small_log([(16.0, REF.s_max, 30.0, 1000.0), (64.0, REF.s_max, 30.0, 250.0)])
        assert normalize_nrq(log) == [(1.0, 1.0), (4.0, 0.25)]

    def test_nrq_requires_anchor(self):
        log = small_log([(26.0, REF.s_max, 30.0, 500.0), (64.0, REF.s_max, 30.0, 250.0)])
        with pytest.raises(InsufficientDataError):
            normalize_nrq(log)

    def test_nrq_pools_over_frame_rates(self):
        log = synthetic_log(CITY)
        for ratio, value in normalize_nrq(log):
            assert value == pytest.approx(ratio**-1.394, rel=1e-12)
        # four stepsizes for each of the five frame rates at s_max
        assert len(normalize_nrq(log)) == 20

    def test_nrt_definition(self):
        log = small_log([(16.0, REF.s_max, 30.0, 1000.0), (16.0, REF.s_max, 15.0, 700.0)])
        assert normalize_nrt(log) == [(0.5, 0.7), (1.0, 1.0)]

    def test_nrt_requires_anchor(self):
        log = small_log([(16.0, REF.s_max, 15.0, 700.0), (16.0, REF.s_max, 7.5, 480.0)])
        with pytest.raises(InsufficientDataError):
            normalize_nrt(log)

    def test_nrt_restricted_to_reference_plane(self):
        log = synthetic_log(CITY)
        points = normalize_nrt(log)
        assert len(points) == 5
        for ratio, value in points:
            assert value == pytest.approx(ratio**0.547, rel=1e-12)

    def test_nrs_pools_over_stepsize_and_rate(self):
        log = synthetic_log(CITY)
        points = normalize_nrs(log)
        assert len(points) == 60
        for ratio, value in points:
            assert value == pytest.approx(ratio**1.114, rel=1e-12)

    def test_nrs_requires_anchor(self):
        log = small_log([(16.0, float(QCIF), 30.0, 50.0), (16.0, float(CIF4) / 4, 30.0, 150.0)])
        with pytest.raises(InsufficientDataError):
            normalize_nrs(log)


class TestPowerExponent:
    def test_exact_power_law(self):
        assert fit_power_exponent([(1.0, 1.0), (4.0, 0.25)], "decreasing") == pytest.approx(1.0, abs=1e-9)

    def test_noiseless_half_exponent(self):
        points = [(r, r**0.5) for r in (0.125, 0.25, 0.5, 1.0)]
        assert fit_power_exponent(points, "increasing") == pytest.approx(0.5, abs=1e-9)

    def test_noiseless_city_stepsize_exponent(self):
        points = normalize_nrq(synthetic_log(CITY))
        assert fit_power_exponent(points, "decreasing") == pytest.approx(1.394, rel=1e-6)

    def test_degenerate_all_anchor(self):
        with pytest.raises(DegenerateDataError):
            fit_power_exponent([(1.0, 1.0), (1.0, 1.0)], "decreasing")

    def test_needs_two_points(self):
        with pytest.raises(InvalidParameterError):
            fit_power_exponent([(1.0, 1.0)], "decreasing")

    def test_points_read_once(self):
        points = ((r, r**-1.0) for r in (1.0, 2.0, 4.0))
        assert fit_power_exponent(points, "decreasing") == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "points",
        [[(1.0, 1.0), (2.0, 0.5, 9.0)], [(1.0, 1.0, 0.0), (2.0, 0.5, 0.0), (4.0, 0.25, 0.0)],
         [1.0, 2.0, 4.0], [(1.0,), (2.0,)]],
        ids=["ragged", "triples", "scalars", "singles"],
    )
    def test_points_must_be_pairs(self, points):
        with pytest.raises(InvalidParameterError):
            fit_power_exponent(points, "decreasing")

    def test_unknown_direction(self):
        with pytest.raises(InvalidParameterError):
            fit_power_exponent([(1.0, 1.0), (2.0, 0.5)], "sideways")

    def test_equal_ratios_skip_the_log_log_seed(self):
        # Equal ratios other than 1 have no log-log slope (0 / 0); the search
        # alone decides, with no RuntimeWarning.
        search = minimize_bounded(_exponent_sse(np.array([0.5, 0.5]), np.ones(2), 1.0), 0.0, 4.0)
        assert fit_power_exponent([(0.5, 1.0), (0.5, 1.0)], "increasing") == search.x


@pytest.mark.parametrize("scenario", sorted(RATE_TABLES))
@pytest.mark.parametrize("sequence", SEQUENCES)
def test_noiseless_round_trip_all_scenarios(scenario, sequence):
    params = rate_params(sequence, scenario)
    report = fit_rate_params(synthetic_log(params), mode="protocol")
    got = report.params
    assert got.a == pytest.approx(params.a, rel=1e-6)
    assert got.b == pytest.approx(params.b, rel=1e-6)
    assert got.c == pytest.approx(params.c, rel=1e-6)
    assert got.r_max == pytest.approx(params.r_max, rel=1e-6)
    assert report.pc >= 0.999999


class TestFitRateParams:
    def test_single_sample_insufficient(self):
        log = small_log([(16.0, REF.s_max, 30.0, 1000.0)])
        with pytest.raises(InsufficientDataError):
            fit_rate_params(log)

    @pytest.mark.parametrize("mode,message", [
        ("protocol", "not enough distinct frame-rate measurements to fit"),
        ("joint", "joint fit needs at least four samples"),
    ])
    def test_two_samples_reach_the_later_rules(self, mode, message):
        # Two samples pass the sample-count rule and fail a later one.
        log = small_log([(16.0, REF.s_max, 30.0, 1000.0), (32.0, REF.s_max, 30.0, 600.0)])
        with pytest.raises(InsufficientDataError, match=message):
            fit_rate_params(log, mode=mode)

    def test_protocol_needs_anchor(self):
        samples = [
            (26.0, REF.s_max, 30.0, 800.0),
            (64.0, REF.s_max, 30.0, 300.0),
            (26.0, REF.s_max, 15.0, 550.0),
            (26.0, float(QCIF), 30.0, 60.0),
        ]
        with pytest.raises(InsufficientDataError):
            fit_rate_params(small_log(samples), mode="protocol")

    def test_joint_works_without_anchor(self):
        # Drop every sample on the reference planes; joint mode still fits.
        full = synthetic_log(CITY)
        kept = tuple(
            s
            for s in full.samples
            if not (
                math.isclose(s.star.q, REF.q_min)
                or math.isclose(s.star.s, REF.s_max)
                or math.isclose(s.star.t, REF.t_max)
            )
        )
        log = EncodeLog(samples=kept, ref=REF)
        report = fit_rate_params(log, mode="joint")
        assert report.warnings
        assert report.params.a == pytest.approx(CITY.a, rel=1e-6)
        assert report.params.r_max == pytest.approx(CITY.r_max, rel=1e-6)

    def test_joint_never_worse_than_protocol(self):
        log = synthetic_log(CITY, noise=0.01, seed=7)
        protocol = fit_rate_params(log, mode="protocol")
        joint = fit_rate_params(log, mode="joint")

        def sse(report):
            return sum((m - p) ** 2 for _, m, p in report.per_sample_residuals)

        assert sse(joint) <= sse(protocol) * (1 + 1e-12)

    def test_rrmse_is_rmse_over_r_max(self):
        report = fit_rate_params(synthetic_log(CITY, noise=0.01, seed=3))
        assert report.rrmse == report.rmse / report.params.r_max

    def test_residuals_cover_all_samples(self):
        log = synthetic_log(CITY)
        report = fit_rate_params(log)
        assert len(report.per_sample_residuals) == len(log.samples)

    def test_single_stepsize_insufficient(self):
        samples = [(16.0, REF.s_max, 30.0, 1000.0), (16.0, REF.s_max, 15.0, 600.0),
                   (16.0, float(QCIF), 30.0, 90.0)]
        with pytest.raises(InsufficientDataError, match="not enough distinct stepsize"):
            fit_rate_params(small_log(samples))

    def test_joint_without_anchor_needs_four_samples(self):
        samples = [(16.0, float(QCIF), 30.0, 90.0), (26.0, REF.s_max, 30.0, 800.0),
                   (26.0, REF.s_max, 15.0, 550.0)]
        log = EncodeLog.from_samples([RateSample(Star(q, s, t), r) for q, s, t, r in samples])
        with pytest.raises(InsufficientDataError, match="at least four samples"):
            fit_rate_params(log, mode="joint")

    def test_joint_without_anchor_needs_every_axis_to_vary(self):
        # One frame rate, below the reference one: the regression has rank 3.
        samples = [(16.0, float(QCIF), 15.0, 45.0), (26.0, float(QCIF), 15.0, 30.0),
                   (26.0, REF.s_max, 15.0, 400.0), (64.0, REF.s_max, 15.0, 150.0)]
        with pytest.raises(InsufficientDataError, match="do not vary enough"):
            fit_rate_params(small_log(samples), mode="joint")

    def test_unknown_mode(self):
        with pytest.raises(InvalidParameterError):
            fit_rate_params(synthetic_log(CITY), mode="bayesian")


@pytest.mark.parametrize("scenario, noise, seed, anchors", JOINT_FIT_CASES)
def test_joint_fit_reaches_the_least_squares_optimum(scenario, noise, seed, anchors):
    # An independent solver, scipy's trust-region reflective least squares
    # from the generating parameters, finds no lower sum of squares than the
    # joint fit; noiseless logs fit to rounding, which the absolute term covers.
    optimize = pytest.importorskip("scipy.optimize")
    for sequence, log in joint_fit_logs(scenario, noise, seed, anchors):
        signed = np.array([(-math.log(x.star.q / REF.q_min), math.log(x.star.t / REF.t_max),
                            math.log(x.star.s / REF.s_max)) for x in log.samples])
        measured = np.array([x.rate for x in log.samples])

        def residual(x):
            return x[3] * np.exp(signed @ x[:3]) - measured

        def jacobian(x):
            unit = np.exp(signed @ x[:3])
            return np.column_stack((signed * (x[3] * unit)[:, None], unit))

        best = optimize.least_squares(
            residual, RATE_TABLES[scenario][sequence], jac=jacobian,
            bounds=([0.0, 0.0, 0.0, 1e-9], np.inf), method="trf", x_scale="jac",
            xtol=1e-15, ftol=1e-15, gtol=1e-15,
        )
        p = fit_rate_params(log, mode="joint").params
        got = residual(np.array([p.a, p.b, p.c, p.r_max]))
        floor = 1e-20 * float(measured @ measured)
        assert float(got @ got) <= float(best.fun @ best.fun) * (1.0 + 1e-9) + floor, sequence


class TestSearchBound:
    def test_noiseless_fit_has_no_warning(self):
        assert fit_rate_params(synthetic_log(CITY), mode="protocol").warnings == ()

    @pytest.mark.parametrize("mode", ["protocol", "joint"])
    def test_exponent_at_search_bound_is_reported(self, mode):
        # The exponent search stops at 4, below the generating a = 5.
        report = fit_rate_params(synthetic_log(dataclasses.replace(CITY, a=5.0)), mode=mode)
        bound_warnings = [w for w in report.warnings if "search bound 4" in w]
        assert len(bound_warnings) == 1
        assert "stepsize exponent a" in bound_warnings[0]
        if mode == "protocol":
            assert report.params.a == pytest.approx(4.0, abs=1e-6)
        else:
            assert report.params.a == pytest.approx(5.0, rel=1e-6)


def _scaled(log, k):
    return EncodeLog(
        samples=tuple(RateSample(star=s.star, rate=s.rate * k) for s in log.samples), ref=log.ref
    )


def _assert_same_fit(got, want, rate_scale=1.0):
    assert got.a == pytest.approx(want.a, rel=1e-9)
    assert got.b == pytest.approx(want.b, rel=1e-9)
    assert got.c == pytest.approx(want.c, rel=1e-9)
    assert got.r_max == pytest.approx(want.r_max * rate_scale, rel=1e-9)


@pytest.mark.parametrize("mode", ["protocol", "joint"])
@pytest.mark.parametrize("scenario, sequence, seed", [("svc1", "city", 1), ("sl2", "soccer", 2), ("svc1", "ice", 3)])
class TestFitMetamorphic:
    def test_rate_scaling_scales_r_max_only(self, mode, scenario, sequence, seed):
        log = synthetic_log(rate_params(sequence, scenario), noise=0.03, seed=seed)
        base = fit_rate_params(log, mode=mode).params
        for k in (0.013, 3.7, 1e3 / 7):
            _assert_same_fit(fit_rate_params(_scaled(log, k), mode=mode).params, base, rate_scale=k)

    def test_sample_order_does_not_matter(self, mode, scenario, sequence, seed):
        log = synthetic_log(rate_params(sequence, scenario), noise=0.03, seed=seed)
        base = fit_rate_params(log, mode=mode).params
        order = np.random.default_rng(seed).permutation(len(log.samples))
        shuffled = EncodeLog(samples=tuple(log.samples[i] for i in order), ref=log.ref)
        _assert_same_fit(fit_rate_params(shuffled, mode=mode).params, base)


@settings(max_examples=100, deadline=None)
@given(
    a=st.floats(0.2, 2.5),
    b=st.floats(0.1, 1.5),
    c=st.floats(0.1, 1.5),
    r_max=st.floats(10.0, 1e5),
    noise=st.floats(0.0, 0.03),
    seed=st.integers(0, 2**16),
    anchors=st.booleans(),
    j=st.integers(-80, 80),
)
def test_rate_unit_is_free(a, b, c, r_max, noise, seed, anchors, j):
    # Rates in another unit, a power of two apart, scale every rate output by
    # exactly k. A log without the anchor sample seeds its joint fit from the
    # logs of its rates, which round differently, so it agrees to 1e-9.
    log = synthetic_log(RateParams(a=a, b=b, c=c, r_max=r_max, ref=REF), noise, seed)
    k = 2.0 ** j
    if not anchors:
        log = without_anchor(log)
        _assert_same_fit(fit_rate_params(_scaled(log, k), mode="joint").params,
                         fit_rate_params(log, mode="joint").params, rate_scale=k)
        return
    for mode in ("protocol", "joint"):
        want = fit_rate_params(log, mode=mode)
        assert fit_rate_params(_scaled(log, k), mode=mode) == dataclasses.replace(
            want,
            params=dataclasses.replace(want.params, r_max=want.params.r_max * k),
            rmse=want.rmse * k,
            per_sample_residuals=tuple((x, m * k, p * k) for x, m, p in want.per_sample_residuals),
        )


@settings(max_examples=100, deadline=None)
@given(j=st.integers(-1000, 1000))
def test_protocol_fit_metrics_hold_across_the_float_range(j):
    # Beyond rates of about 1e150 the squared residuals and the correlation's
    # sums leave the float range in the rates' own unit; the metrics are
    # taken in a unit a power of two apart, so they scale exactly too.
    log = synthetic_log(RateParams(a=1.2, b=0.7, c=0.5, r_max=3000.0, ref=REF), 0.02, 5)
    want = fit_rate_params(log)
    got = fit_rate_params(_scaled(log, 2.0 ** j))
    assert (got.params.a, got.params.b, got.params.c) == (want.params.a, want.params.b, want.params.c)
    assert got.params.r_max == math.ldexp(want.params.r_max, j)
    assert got.rmse == math.ldexp(want.rmse, j)
    assert (got.rrmse, got.pc) == (want.rrmse, want.pc)
    assert got.per_sample_residuals == tuple(
        (x, math.ldexp(m, j), math.ldexp(p, j)) for x, m, p in want.per_sample_residuals
    )


class TestEncodeLog:
    def test_conflicting_duplicates_rejected(self):
        with pytest.raises(InvalidParameterError):
            small_log([(16.0, REF.s_max, 30.0, 1000.0), (16.0, REF.s_max, 30.0, 999.0)])

    def test_identical_duplicates_allowed(self):
        log = small_log([(16.0, REF.s_max, 30.0, 1000.0), (16.0, REF.s_max, 30.0, 1000.0)])
        assert len(log.samples) == 2

    def test_reference_derivation(self):
        log = EncodeLog.from_samples(
            [
                RateSample(star=Star(26.0, float(QCIF), 7.5), rate=40.0),
                RateSample(star=Star(16.0, float(CIF4), 30.0), rate=2000.0),
            ]
        )
        assert log.ref == REF

    def test_empty_log_rejected(self):
        with pytest.raises(InvalidParameterError):
            EncodeLog(samples=(), ref=REF)
        with pytest.raises(InvalidParameterError, match="empty log"):
            EncodeLog.from_samples([])

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(InvalidParameterError):
            RateSample(star=Star(16.0, 1e5, 30.0), rate=0.0)

    def test_samples_stored_as_a_tuple(self):
        sample = RateSample(star=Star(16.0, REF.s_max, 30.0), rate=1000.0)
        log = EncodeLog(samples=[sample], ref=REF)
        assert log.samples == (sample,)
        assert hash(log) == hash(EncodeLog(samples=(sample,), ref=REF))
        assert EncodeLog(samples=iter([sample]), ref=REF) == log

    @pytest.mark.parametrize("samples", [[(1, 2)], [None], "ab", 5], ids=["pair", "none", "str", "int"])
    def test_samples_must_be_rate_samples(self, samples):
        with pytest.raises(InvalidParameterError, match="samples"):
            EncodeLog(samples=samples, ref=REF)
        with pytest.raises(InvalidParameterError, match="samples"):
            EncodeLog.from_samples(samples)

    @pytest.mark.parametrize("ref", [None, (16.0, REF.s_max, 30.0)], ids=["none", "tuple"])
    def test_ref_must_be_a_resolution_ref(self, ref):
        sample = RateSample(star=Star(16.0, REF.s_max, 30.0), rate=1000.0)
        with pytest.raises(InvalidParameterError, match="ref"):
            EncodeLog(samples=(sample,), ref=ref)

    @pytest.mark.parametrize("star", [None, (16.0, REF.s_max, 30.0)], ids=["none", "tuple"])
    def test_sample_star_must_be_a_star(self, star):
        with pytest.raises(InvalidParameterError, match="star"):
            RateSample(star=star, rate=1000.0)


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [1, 2, 3]) == 1.0

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == -1.0

    def test_hand_computed_value(self):
        # n=4: sums 10 and 11, cross 34, squares 30 and 39.
        expected = (4 * 34 - 10 * 11) / (math.sqrt(4 * 30 - 100) * math.sqrt(4 * 39 - 121))
        assert pearson([1, 2, 3, 4], [1, 2, 3, 5]) == pytest.approx(expected, rel=1e-12)

    def test_constant_vector_degenerate(self):
        with pytest.raises(DegenerateDataError):
            pearson([1, 1, 1], [1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            pearson([1, 2], [1, 2, 3])

    def test_needs_two_points(self):
        with pytest.raises(InvalidParameterError, match="at least two points"):
            pearson([1.0], [2.0])

    @given(
        alpha=st.floats(min_value=1e-2, max_value=1e2),
        beta=st.floats(min_value=-100.0, max_value=100.0),
    )
    def test_affine_invariance(self, alpha, beta):
        x = np.array([1.0, 2.0, 4.0, 8.0, 9.0])
        y = np.array([2.0, 1.0, 5.0, 7.0, 11.0])
        base = pearson(x, y)
        assert pearson(x, alpha * y + beta) == pytest.approx(base, abs=1e-12)

    @settings(deadline=None)
    @given(
        x=st.lists(st.integers(-1000, 1000), min_size=2, max_size=8),
        data=st.data(),
        j=st.integers(-1000, 1000),
    )
    def test_power_of_two_scale_is_exact(self, x, data, j):
        y = data.draw(st.lists(st.integers(-1000, 1000), min_size=len(x), max_size=len(x)))
        assume(len(set(x)) > 1 and len(set(y)) > 1)
        x = np.array(x, dtype=float)
        assert pearson(np.ldexp(x, j), y) == pearson(x, y)
        assert pearson(y, np.ldexp(x, j)) == pearson(y, x)

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e300, 1e-300])
    def test_far_from_unit_scale(self, scale):
        assert pearson([scale, 2 * scale, 3 * scale], [1, 2, 3]) == pytest.approx(1.0, abs=1e-15)
        assert pearson([3 * scale, 2 * scale, scale], [1, 2, 3]) == pytest.approx(-1.0, abs=1e-15)
