from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sequences import REF, SEQUENCES, quality_params, rate_params
from starq import (
    CIF4,
    QCIF,
    InvalidParameterError,
    OutOfRangeError,
    QrModel,
    QualityParams,
    RateParams,
    ResolutionRef,
    Star,
    evaluate_qr,
    evaluate_quality,
    evaluate_rate,
    qp_from_stepsize,
    qr_surface,
    stepsize_from_qp,
)
from starq.fileio import ModelFile, model_to_dict
from starq.models import _check

CITY = rate_params("city")
CITY_Q = quality_params("city")


positive = st.floats(min_value=1e-3, max_value=1e3)
exponents = st.floats(min_value=0.0, max_value=3.0)


def make_params(a, b, c, r_max):
    return RateParams(a=a, b=b, c=c, r_max=r_max, ref=REF)


class TestRate:
    def test_reference_point_returns_r_max(self):
        assert evaluate_rate(CITY, Star(16.0, float(CIF4), 30.0)) == 2379.0

    def test_quadrupled_stepsize(self):
        got = evaluate_rate(CITY, Star(64.0, float(CIF4), 30.0))
        assert got == pytest.approx(2379.0 * 4.0**-1.394, rel=1e-12)
        assert got == pytest.approx(344.4, abs=0.1)

    def test_smallest_size_and_low_rate(self):
        got = evaluate_rate(CITY, Star(16.0, float(QCIF), 3.75))
        assert got == pytest.approx(2379.0 * 16.0**-1.114 * 8.0**-0.547, rel=1e-12)
        assert got == pytest.approx(34.8, abs=0.1)

    def test_rejects_nonpositive_operating_point(self):
        with pytest.raises(InvalidParameterError):
            Star(0.0, 1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            Star(16.0, -1.0, 30.0)
        with pytest.raises(InvalidParameterError):
            Star(16.0, float("nan"), 30.0)

    def test_rejects_invalid_params(self):
        with pytest.raises(InvalidParameterError):
            make_params(-0.1, 0.5, 0.5, 1000.0)
        with pytest.raises(InvalidParameterError):
            make_params(1.0, 0.5, 0.5, 0.0)

    @given(a=exponents, b=exponents, c=exponents, r_max=positive)
    def test_normalization_invariant(self, a, b, c, r_max):
        p = make_params(a, b, c, r_max)
        at_ref = evaluate_rate(p, Star(REF.q_min, REF.s_max, REF.t_max))
        assert math.isclose(at_ref, r_max, rel_tol=1e-15)

    @given(
        a=exponents,
        b=exponents,
        c=exponents,
        x1=st.floats(min_value=0.1, max_value=100.0),
        x2=st.floats(min_value=0.1, max_value=100.0),
        q=st.floats(min_value=1.0, max_value=200.0),
        s=st.floats(min_value=1e3, max_value=1e6),
        t=st.floats(min_value=0.5, max_value=60.0),
    )
    def test_separability_per_axis(self, a, b, c, x1, x2, q, s, t):
        p = make_params(a, b, c, 2000.0)
        t_ratio = evaluate_rate(p, Star(q, s, x1)) / evaluate_rate(p, Star(q, s, x2))
        assert math.isclose(t_ratio, (x1 / x2) ** b, rel_tol=1e-12)
        q_ratio = evaluate_rate(p, Star(x1, s, t)) / evaluate_rate(p, Star(x2, s, t))
        assert math.isclose(q_ratio, (x1 / x2) ** -a, rel_tol=1e-12)
        s_scale = 1e4
        s_ratio = evaluate_rate(p, Star(q, x1 * s_scale, t)) / evaluate_rate(p, Star(q, x2 * s_scale, t))
        assert math.isclose(s_ratio, (x1 / x2) ** c, rel_tol=1e-12)

    def test_monotone_in_each_axis(self):
        for q1, q2 in zip((16, 26, 40), (26, 40, 64)):
            assert evaluate_rate(CITY, Star(q2, 1e5, 30)) <= evaluate_rate(CITY, Star(q1, 1e5, 30))
        for t1, t2 in zip((3.75, 7.5, 15), (7.5, 15, 30)):
            assert evaluate_rate(CITY, Star(16, 1e5, t1)) <= evaluate_rate(CITY, Star(16, 1e5, t2))
        for s1, s2 in zip((QCIF, CIF4 // 4), (CIF4 // 4, CIF4)):
            assert evaluate_rate(CITY, Star(16, s1, 30)) <= evaluate_rate(CITY, Star(16, s2, 30))


class TestQuality:
    def test_reference_point_is_one(self):
        for sequence in SEQUENCES:
            qp = quality_params(sequence)
            assert evaluate_quality(qp, Star(REF.q_min, REF.s_max, REF.t_max)) == 1.0

    @pytest.mark.parametrize("q_min", [8.0, 16.0, 32.0])
    def test_reference_point_is_one_for_any_reference_stepsize(self, q_min):
        ref = ResolutionRef(q_min=q_min, s_max=REF.s_max, t_max=REF.t_max)
        qp = QualityParams(alpha_q=7.25, alpha_s_tilde=3.52, alpha_t=4.10, ref=ref)
        assert evaluate_quality(qp, Star(q_min, ref.s_max, ref.t_max)) == 1.0

    def test_temporal_factor_alone(self):
        # At the reference stepsize and frame size only the temporal factor is active.
        expected = (1 - math.exp(-4.10 * 0.5**0.63)) / (1 - math.exp(-4.10))
        got = evaluate_quality(CITY_Q, Star(16.0, float(CIF4), 15.0))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_stepsize(self):
        hi = evaluate_quality(CITY_Q, Star(26.0, float(CIF4), 30.0))
        lo = evaluate_quality(CITY_Q, Star(64.0, float(CIF4), 30.0))
        assert hi >= lo

    def test_monotone_sweeps_within_reference_box(self):
        qs = [evaluate_quality(CITY_Q, Star(q, float(CIF4), 30.0)) for q in (16, 20, 26, 40, 64, 104)]
        assert all(a >= b for a, b in zip(qs, qs[1:]))
        ss = [evaluate_quality(CITY_Q, Star(26.0, s, 30.0)) for s in (QCIF, CIF4 // 4, CIF4)]
        assert all(a <= b for a, b in zip(ss, ss[1:]))
        ts = [evaluate_quality(CITY_Q, Star(26.0, float(CIF4), t)) for t in (3.75, 7.5, 15, 30)]
        assert all(a <= b for a, b in zip(ts, ts[1:]))

    def test_values_in_unit_interval_on_reference_box(self):
        for q in (16, 26, 40, 64, 104):
            for s in (QCIF, CIF4 // 4, CIF4):
                for t in (3.75, 7.5, 15, 30):
                    value = evaluate_quality(CITY_Q, Star(q, s, t))
                    assert 0.0 < value <= 1.0

    def test_constants_fixed(self):
        assert QualityParams.beta_q == 1.0
        assert QualityParams.beta_s == 0.74
        assert QualityParams.beta_t == 0.63
        assert QualityParams.nu1 == -0.037
        assert QualityParams.nu2 == 2.25
        assert QualityParams.qp_clamp == 28.0

    def test_rejects_nonpositive_alphas(self):
        with pytest.raises(InvalidParameterError):
            QualityParams(alpha_q=0.0, alpha_s_tilde=1.0, alpha_t=1.0, ref=REF)

    def test_spatial_sensitivity_flat_below_clamp(self):
        # Stepsizes below the clamp share the clamped coefficient.
        assert CITY_Q.alpha_s(16.0) == CITY_Q.alpha_s(4.0)
        assert CITY_Q.alpha_s(64.0) < CITY_Q.alpha_s(16.0)


class TestStoredDenominators:
    """QualityParams computes the quality surface's three normalizing
    denominators once and keeps them out of its fields."""

    def test_invisible_to_fields_repr_eq_hash_and_documents(self):
        qp = quality_params("city")
        names = [f.name for f in dataclasses.fields(QualityParams)]
        assert names == ["alpha_q", "alpha_s_tilde", "alpha_t", "ref"]
        assert repr(qp) == (
            "QualityParams(alpha_q=7.25, alpha_s_tilde=3.52, alpha_t=4.1, "
            "ref=ResolutionRef(q_min=16.0, s_max=405504.0, t_max=30.0))"
        )
        twin = QualityParams(7.25, 3.52, 4.1, REF)
        assert twin == qp and hash(twin) == hash(qp) == hash((7.25, 3.52, 4.1, REF))
        assert model_to_dict(ModelFile(REF, quality=qp)) == {
            "scenario": "",
            "ref": {"q_min": 16.0, "s_max": 405504.0, "t_max": 30.0},
            "quality": {"alpha_q": 7.25, "alpha_s_tilde": 3.52, "alpha_t": 4.1},
        }

    @pytest.mark.parametrize("field", ["alpha_q", "alpha_s_tilde", "alpha_t", "ref"])
    def test_replace_recomputes_them(self, field):
        qp = quality_params("city")
        # A reference stepsize of 64 (QP 40) moves the spatial denominator too.
        value = ResolutionRef(64.0, REF.s_max, REF.t_max) if field == "ref" else 2.0
        changed = dataclasses.replace(qp, **{field: value})
        fields = {f.name: getattr(qp, f.name) for f in dataclasses.fields(qp)}
        fresh = QualityParams(**{**fields, field: value})
        ref = changed.ref
        assert evaluate_quality(changed, Star(ref.q_min, ref.s_max, ref.t_max)) == 1.0
        x = Star(40.0, float(QCIF), 7.5)
        assert evaluate_quality(changed, x) == evaluate_quality(fresh, x)
        assert evaluate_quality(changed, x) != evaluate_quality(qp, x)

    def test_extreme_parameters_construct_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            QualityParams(1.0, 1e308, 1.0, ref=ResolutionRef(1e300, 405504.0, 30.0))


class TestQpMapping:
    @pytest.mark.parametrize("q,qp", [(16.0, 28.0), (64.0, 40.0), (1.0, 4.0)])
    def test_table_points(self, q, qp):
        assert qp_from_stepsize(q) == pytest.approx(qp, abs=1e-12)

    def test_round_trip_over_qp_scale(self):
        for qp in np.linspace(0.0, 51.0, 103):
            back = qp_from_stepsize(stepsize_from_qp(float(qp)))
            assert back == pytest.approx(float(qp), abs=1e-9)

    @given(qp=st.floats(min_value=0.0, max_value=51.0))
    def test_round_trip_property(self, qp):
        assert qp_from_stepsize(stepsize_from_qp(qp)) == pytest.approx(qp, abs=1e-9)

    def test_rejects_nonpositive_stepsize(self):
        with pytest.raises(InvalidParameterError):
            qp_from_stepsize(0.0)


class TestQrModel:
    def test_ceiling_rate_gives_one(self):
        m = QrModel(kappa=5.058, r_max=2379.0)
        assert evaluate_qr(m, 2379.0) == 1.0

    def test_half_rate_value(self):
        m = QrModel(kappa=5.058, r_max=2379.0)
        expected = (1 - math.exp(-5.058 * 0.5**0.55)) / (1 - math.exp(-5.058))
        assert evaluate_qr(m, 2379.0 / 2) == pytest.approx(expected, rel=1e-12)

    def test_vanishes_at_zero_rate(self):
        m = QrModel(kappa=5.058, r_max=2379.0)
        assert evaluate_qr(m, 2379.0 * 1e-12) < 1e-5
        assert evaluate_qr(m, 2379.0 * 1e-15) < evaluate_qr(m, 2379.0 * 1e-12)

    @given(
        kappa=st.floats(min_value=0.5, max_value=20.0),
        lo=st.floats(min_value=0.01, max_value=0.98),
        step=st.floats(min_value=1e-3, max_value=0.5),
    )
    def test_strictly_increasing(self, kappa, lo, step):
        m = QrModel(kappa=kappa, r_max=1000.0)
        hi = min(lo + step, 1.0)
        assert evaluate_qr(m, lo * 1000.0) < evaluate_qr(m, hi * 1000.0)

    def test_rate_within_tolerance_of_ceiling_gives_one(self):
        m = QrModel(kappa=5.058, r_max=2379.0)
        assert evaluate_qr(m, m.r_max * (1 + 1e-10)) == 1.0
        assert qr_surface(m, [m.r_max / 2, m.r_max * (1 + 1e-10)])[1] == 1.0

    def test_out_of_range(self):
        m = QrModel(kappa=5.0, r_max=1000.0)
        with pytest.raises(OutOfRangeError):
            evaluate_qr(m, 0.0)
        with pytest.raises(OutOfRangeError):
            evaluate_qr(m, 1000.0001)

    @pytest.mark.parametrize("r", [[1.0, 2.0], np.array([3.0]), (5.0,), [[1.0]], [1.0, [2.0]]],
                             ids=["list", "1-element-array", "tuple", "nested", "ragged"])
    def test_non_scalar_rate_is_an_input_error(self, r):
        with pytest.raises(InvalidParameterError, match="rate must be a scalar"):
            evaluate_qr(QrModel(kappa=5.0, r_max=1000.0), r)

    def test_scalar_rates_of_any_type(self):
        m = QrModel(kappa=5.0, r_max=1000.0)
        assert evaluate_qr(m, np.array(500.0)) == evaluate_qr(m, np.float64(500.0)) == evaluate_qr(m, 500)
        for r in (0, math.nan, True, "x", 2000.0):
            with pytest.raises(OutOfRangeError):
                evaluate_qr(m, r)

    def test_exponent_fixed(self):
        assert QrModel.exponent == 0.55


def test_resolution_ref_validation():
    with pytest.raises(InvalidParameterError):
        ResolutionRef(q_min=16.0, s_max=0.0, t_max=30.0)


def check_outcome(value, low, strict):
    # What _check(array=True) gives: the float array's shape and values, or
    # the error's type and message.
    try:
        arr = _check("x", value, low, strict, array=True)
    except InvalidParameterError as exc:
        return type(exc), str(exc)
    return arr.dtype, arr.shape, arr.tolist()


FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, -0.0, 1e308])


@given(
    values=st.lists(FLOATS, min_size=1, max_size=12)
    | st.lists(st.tuples(FLOATS, FLOATS), min_size=1, max_size=6)
    | st.lists(st.tuples(FLOATS) | st.tuples(FLOATS, FLOATS), min_size=1, max_size=4),
    low=st.sampled_from([0.0, 1.0, -math.inf]),
    strict=st.booleans(),
)
def test_float_sequence_check_matches_numpy_path(values, low, strict):
    # A list or tuple of Python floats, or of rows of them, takes _check's
    # path without numpy. The same numbers as numpy scalars take numpy's
    # path, which the check had for every sequence before. Both accept and
    # reject alike (ragged rows included), with the same message.
    scalars = [tuple(map(np.float64, v)) if type(v) is tuple else np.float64(v) for v in values]
    expected = check_outcome(scalars, low, strict)
    assert check_outcome(values, low, strict) == expected
    assert check_outcome(tuple(values), low, strict) == expected
