from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sequences import REF
from starq import (
    SL2,
    SVC1,
    FeatureVector,
    InvalidParameterError,
    PredictorMatrix,
    predict_params,
)

# Independent copies of the published predictor weights, row order (a, b, c,
# r_max), column order (1, mu_dfd, sigma_mvm, sigma_mda).
SVC1_ROWS = (
    (1.374, 0.059, -0.049, -0.253),
    (0.226, 0.022, -0.007, 0.305),
    (1.507, 0.005, 0.0013, -0.594),
    (-7262.0, 1240.0, -995.0, 8033.0),
)
SL2_ROWS = (
    (1.538, 0.040, -0.025, -0.474),
    (-0.241, 0.025, -0.014, 0.530),
    (1.420, 0.011, 0.0099, -0.619),
    (-4598.0, 795.9, -549.2, 4810.0),
)


def test_builtin_matrices_match_fixtures_exactly():
    assert SVC1.rows == SVC1_ROWS
    assert SL2.rows == SL2_ROWS


def test_zero_features_select_constant_column_svc1():
    prediction = predict_params(SVC1, FeatureVector(0.0, 0.0, 0.0), REF)
    assert prediction.raw == (1.374, 0.226, 1.507, -7262.0)
    assert prediction.clamped_fields == ("r_max",)
    assert prediction.out_of_domain
    assert prediction.params.a == 1.374
    assert prediction.params.r_max == 1.0  # default floor


def test_zero_features_select_constant_column_sl2():
    prediction = predict_params(SL2, FeatureVector(0.0, 0.0, 0.0), REF)
    assert prediction.raw == (1.538, -0.241, 1.420, -4598.0)
    assert prediction.clamped_fields == ("b", "r_max")
    assert prediction.params.b == 0.0


def test_unit_features_give_row_sums():
    prediction = predict_params(SVC1, FeatureVector(1.0, 1.0, 1.0), REF)
    assert prediction.raw[0] == pytest.approx(1.131, abs=1e-12)
    assert prediction.raw[1] == pytest.approx(0.546, abs=1e-12)
    assert prediction.raw[2] == pytest.approx(0.9193, abs=1e-12)
    assert prediction.raw[3] == pytest.approx(1016.0, abs=1e-9)
    assert not prediction.out_of_domain


def test_prediction_carries_reference():
    prediction = predict_params(SVC1, FeatureVector(2.0, 1.0, 0.5), REF)
    assert prediction.params.ref == REF


@given(
    f1=st.tuples(*[st.floats(min_value=0.0, max_value=50.0)] * 3),
    f2=st.tuples(*[st.floats(min_value=0.0, max_value=50.0)] * 3),
)
def test_linearity_before_clamping(f1, f2):
    h = SVC1.as_array()
    constant = h[:, 0]

    def raw(fv):
        return np.array(predict_params(SVC1, FeatureVector(*fv), REF).raw)

    combined = raw(tuple(a + b for a, b in zip(f1, f2))) - constant
    parts = (raw(f1) - constant) + (raw(f2) - constant)
    assert np.allclose(combined, parts, rtol=1e-12, atol=1e-9)


def test_feature_vector_validation():
    with pytest.raises(InvalidParameterError):
        FeatureVector(-1.0, 0.0, 0.0)
    with pytest.raises(InvalidParameterError):
        FeatureVector(float("inf"), 0.0, 0.0)


def with_weight(value):
    # SVC1's rows with the first weight replaced.
    return ((value,) + SVC1_ROWS[0][1:],) + SVC1_ROWS[1:]


@pytest.mark.parametrize(
    "rows",
    [((1.0, 2.0),), SVC1_ROWS[:3], with_weight("0.1"), with_weight(True), with_weight(np.True_),
     with_weight(float("inf")), with_weight(float("nan")), with_weight(None),
     SVC1_ROWS[:3] + ((1.0, 2.0),)],
    ids=["1x2", "3x4", "string", "bool", "numpy-bool", "inf", "nan", "none", "ragged"],
)
def test_predictor_matrix_shape_enforced(rows):
    with pytest.raises(InvalidParameterError):
        PredictorMatrix(scenario="bad", rows=rows)


def test_predictor_matrix_rows_stored_as_floats():
    rows = tuple(tuple(int(v) for v in row) for row in SVC1_ROWS)
    h = PredictorMatrix(scenario="ints", rows=rows)
    assert h.rows == tuple(tuple(float(int(v)) for v in row) for row in SVC1_ROWS)
    assert all(type(v) is float for row in h.rows for v in row)
