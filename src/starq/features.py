"""Predict rate-surface parameters from content features.

Each parameter is a fixed affine combination of three motion and texture
features computed from the source video: mean displaced frame difference,
standard deviation of motion-vector magnitude and standard deviation of
motion direction activity. The combination weights depend on the coding
configuration; the two published weight matrices are built in. Feature
extraction itself is out of scope; callers supply precomputed vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .models import RateParams, ResolutionRef, _check, _check_fields


@dataclass(frozen=True)
class FeatureVector:
    """Content features of a source sequence, all nonnegative."""

    mu_dfd: float
    sigma_mvm: float
    sigma_mda: float

    def __post_init__(self) -> None:
        _check_fields(self, ("mu_dfd", "sigma_mvm", "sigma_mda"), strict=False)


@dataclass(frozen=True)
class PredictorMatrix:
    """4x4 weight matrix mapping ``[1, mu_dfd, sigma_mvm, sigma_mda]`` to
    ``[a, b, c, r_max]``."""

    scenario: str
    rows: tuple[tuple[float, float, float, float], ...]

    def __post_init__(self) -> None:
        rows = _check("predictor matrix rows", self.rows, -np.inf, array=True)
        if rows.shape != (4, 4):
            raise InvalidParameterError("predictor matrix must be 4x4")
        object.__setattr__(self, "rows", tuple(map(tuple, rows.tolist())))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.rows, dtype=float)


SVC1 = PredictorMatrix(
    scenario="SVC#1",
    rows=(
        (1.374, 0.059, -0.049, -0.253),
        (0.226, 0.022, -0.007, 0.305),
        (1.507, 0.005, 0.0013, -0.594),
        (-7262.0, 1240.0, -995.0, 8033.0),
    ),
)

SL2 = PredictorMatrix(
    scenario="SL#2",
    rows=(
        (1.538, 0.040, -0.025, -0.474),
        (-0.241, 0.025, -0.014, 0.530),
        (1.420, 0.011, 0.0099, -0.619),
        (-4598.0, 795.9, -549.2, 4810.0),
    ),
)

BUILTIN_PREDICTORS = {"SVC1": SVC1, "SL2": SL2}


@dataclass(frozen=True)
class ParamPrediction:
    """Predicted parameters plus the raw, unclamped predictor output."""

    params: RateParams
    raw: tuple[float, float, float, float]
    clamped_fields: tuple[str, ...]

    @property
    def out_of_domain(self) -> bool:
        return bool(self.clamped_fields)


def predict_params(h: PredictorMatrix, f: FeatureVector, ref: ResolutionRef) -> ParamPrediction:
    """Apply the linear predictor and assemble usable rate parameters.

    The predictor is unconstrained, so it can produce negative exponents or a
    nonpositive ``r_max`` for features far from its training range. Such
    values are clamped (exponents to 0, ``r_max`` to 1.0 kbps) and the
    affected field names are reported so callers can treat the result as
    out of domain.
    """
    raw = tuple(map(float, h.as_array() @ np.array([1.0, f.mu_dfd, f.sigma_mvm, f.sigma_mda])))

    clamped = [name for name, v in zip("abc", raw) if v < 0]
    a, b, c = (max(v, 0.0) for v in raw[:3])
    r_max = raw[3]
    if r_max <= 0:
        r_max, clamped = 1.0, clamped + ["r_max"]

    params = RateParams(a=a, b=b, c=c, r_max=r_max, ref=ref)
    return ParamPrediction(params=params, raw=raw, clamped_fields=tuple(clamped))
