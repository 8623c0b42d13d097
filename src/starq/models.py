"""Analytic rate and quality surfaces over stepsize, frame size and frame rate.

The bit rate of an encoded sequence is modeled as a product of three power
laws, one per resolution axis, normalized so that the model returns ``r_max``
at the reference operating point ``(q_min, s_max, t_max)``. Perceptual
quality is a product of three inverted-exponential factors normalized to 1.0
at the same point, and a one-parameter inverted exponential summarizes the
achievable quality as a function of rate alone.

The ``*_surface`` functions broadcast over numpy arrays; the ``evaluate_*``
wrappers take validated scalar operating points and return plain floats. Both
call one private core per formula, built on numpy ufuncs (``np.power``, not
``**``), so a scalar result has exactly the bits of the array result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, OutOfRangeError

# Pixels per frame for the named broadcast formats.
QCIF = 176 * 144
CIF = 352 * 288
CIF4 = 704 * 576

FRAME_SIZE_NAMES = {"qcif": float(QCIF), "cif": float(CIF), "4cif": float(CIF4)}


def _require_positive(**values: float) -> None:
    for name, v in values.items():
        if not isinstance(v, (int, float)) or not math.isfinite(v) or not v > 0:
            raise InvalidParameterError(f"{name} must be finite and > 0, got {v!r}")


def _positive_arrays(**values) -> list[np.ndarray]:
    """The values as float arrays, each checked finite and strictly positive."""
    arrays = [np.asarray(v, dtype=float) for v in values.values()]
    for name, arr in zip(values, arrays):
        if not np.all(np.isfinite(arr)) or not np.all(arr > 0):
            raise InvalidParameterError(f"{name} must be finite and strictly positive")
    return arrays


def _qp(q):
    return 4.0 + 6.0 * np.log2(q)


@dataclass(frozen=True)
class Star:
    """One operating point: stepsize ``q``, frame size ``s`` (pixels per
    frame) and frame rate ``t`` (Hz). All three are physical magnitudes;
    normalization against reference values happens inside operations."""

    q: float
    s: float
    t: float

    def __post_init__(self) -> None:
        _require_positive(q=self.q, s=self.s, t=self.t)


@dataclass(frozen=True)
class ResolutionRef:
    """Reference resolutions the models are normalized against."""

    q_min: float
    s_max: float
    t_max: float

    def __post_init__(self) -> None:
        _require_positive(q_min=self.q_min, s_max=self.s_max, t_max=self.t_max)

    def matches(self, other: "ResolutionRef", rel_tol: float = 1e-9) -> bool:
        return (
            math.isclose(self.q_min, other.q_min, rel_tol=rel_tol)
            and math.isclose(self.s_max, other.s_max, rel_tol=rel_tol)
            and math.isclose(self.t_max, other.t_max, rel_tol=rel_tol)
        )


@dataclass(frozen=True)
class RateParams:
    """Rate-surface parameters.

    ``a``, ``b`` and ``c`` control how fast the rate falls as the stepsize
    grows and as frame rate and frame size shrink; ``r_max`` is the rate at
    the reference point.
    """

    a: float
    b: float
    c: float
    r_max: float
    ref: ResolutionRef

    def __post_init__(self) -> None:
        for name in ("a", "b", "c"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise InvalidParameterError(f"exponent {name} must be finite and >= 0, got {v!r}")
        _require_positive(r_max=self.r_max)


@dataclass(frozen=True)
class QualityParams:
    """Quality-surface parameters.

    Only the three ``alpha`` coefficients are content dependent. The shape
    exponents, the stepsize coupling of the spatial factor and the QP clamp
    are fixed constants of the model.
    """

    alpha_q: float
    alpha_s_tilde: float
    alpha_t: float
    ref: ResolutionRef

    # Fixed model constants, not fitted.
    beta_q = 1.0
    beta_s = 0.74
    beta_t = 0.63
    nu1 = -0.037
    nu2 = 2.25
    qp_clamp = 28.0

    def __post_init__(self) -> None:
        _require_positive(
            alpha_q=self.alpha_q, alpha_s_tilde=self.alpha_s_tilde, alpha_t=self.alpha_t
        )

    def alpha_s(self, q):
        """Stepsize-coupled spatial falloff coefficient, flat below the QP clamp."""
        qp = np.maximum(_qp(q), self.qp_clamp)
        return self.alpha_s_tilde * (self.nu1 * qp + self.nu2)


@dataclass(frozen=True)
class QrModel:
    """One-parameter summary of achievable quality versus rate."""

    kappa: float
    r_max: float

    exponent = 0.55

    def __post_init__(self) -> None:
        _require_positive(kappa=self.kappa, r_max=self.r_max)


def _check_shared_ref(rp: RateParams, qp: QualityParams) -> None:
    if not rp.ref.matches(qp.ref):
        raise InvalidParameterError("rate and quality parameters use different references")


def qp_from_stepsize(q):
    """Map a quantization stepsize to the real-valued H.264 QP scale.

    The stepsize doubles every 6 QP units, with QP 4 at stepsize 1.
    Broadcasts over numpy arrays.
    """
    return _qp(*_positive_arrays(q=q))


def stepsize_from_qp(qp: float) -> float:
    """Inverse of :func:`qp_from_stepsize`."""
    if not math.isfinite(qp):
        raise InvalidParameterError(f"qp must be finite, got {qp!r}")
    return 2.0 ** ((qp - 4.0) / 6.0)


def _rate(p: RateParams, q, s, t):
    ref = p.ref
    return (
        p.r_max
        * np.power(q / ref.q_min, -p.a)
        * np.power(t / ref.t_max, p.b)
        * np.power(s / ref.s_max, p.c)
    )


def rate_surface(p: RateParams, q, s, t):
    """Bit rate in kbps at stepsize ``q``, frame size ``s``, frame rate ``t``.

    Accepts scalars or broadcastable numpy arrays. Equals ``p.r_max`` exactly
    at the reference point.
    """
    return _rate(p, *_positive_arrays(q=q, s=s, t=t))


def evaluate_rate(p: RateParams, x: Star) -> float:
    """Bit rate in kbps at the operating point ``x``."""
    return float(_rate(p, x.q, x.s, x.t))


def _quality(p: QualityParams, q, s, t):
    ref = p.ref
    f_q = np.expm1(-p.alpha_q * np.power(ref.q_min / q, p.beta_q)) / np.expm1(-p.alpha_q)
    a_s_ref = p.alpha_s(ref.q_min)
    f_s = np.expm1(-p.alpha_s(q) * np.power(s / ref.s_max, p.beta_s)) / np.expm1(-a_s_ref)
    f_t = np.expm1(-p.alpha_t * np.power(t / ref.t_max, p.beta_t)) / np.expm1(-p.alpha_t)
    return f_q * f_s * f_t


def quality_surface(p: QualityParams, q, s, t):
    """Perceptual quality at ``(q, s, t)``, normalized to 1.0 at the
    reference point.

    Each axis contributes an inverted-exponential factor. The spatial
    factor's falloff coefficient depends on the stepsize through the QP
    scale; its normalizing denominator is pinned at the reference stepsize so
    the full product is exactly 1.0 at ``(q_min, s_max, t_max)``.
    """
    return _quality(p, *_positive_arrays(q=q, s=s, t=t))


def evaluate_quality(p: QualityParams, x: Star) -> float:
    """Perceptual quality at the operating point ``x``."""
    return float(_quality(p, x.q, x.s, x.t))


def _qr(kappa: float, ratio):
    # Summary quality at rate ratio r / r_max.
    return np.expm1(-kappa * np.power(ratio, QrModel.exponent)) / np.expm1(-kappa)


def qr_surface(m: QrModel, r):
    """Summary quality at rate ``r`` kbps, for ``0 < r <= m.r_max``."""
    arr = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(arr)) or not np.all(arr > 0):
        raise OutOfRangeError("rate must be finite and > 0")
    if np.any(arr > m.r_max):
        raise OutOfRangeError(f"rate exceeds the model ceiling {m.r_max}")
    return _qr(m.kappa, arr / m.r_max)


def evaluate_qr(m: QrModel, r: float) -> float:
    """Summary quality at rate ``r`` kbps."""
    return float(qr_surface(m, r))
