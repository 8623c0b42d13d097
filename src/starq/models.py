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
from numbers import Real

import numpy as np

from .errors import InfeasibleError, InvalidParameterError, OutOfRangeError

# Pixels per frame for the named broadcast formats.
QCIF = 176 * 144
CIF = 352 * 288
CIF4 = 704 * 576

FRAME_SIZE_NAMES = {"qcif": float(QCIF), "cif": float(CIF), "4cif": float(CIF4)}


# Relative tolerance within which a value counts as equal to a reference value.
_REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_REL_TOL)


def _check(name, value, low=0.0, strict=True, *, array=False, error=InvalidParameterError):
    """``value`` as a float (a float array with ``array``), checked real,
    finite and ``> low`` (``>= low`` unless ``strict``); else raises ``error``.
    Every numeric input rule of the package goes through here."""
    if array:
        arr = np.asarray(value)
        if arr.dtype.kind in "biuf":
            arr = arr.astype(float, copy=False)
            ok = np.isfinite(arr) & ((arr > low) if strict else (arr >= low))
            if np.count_nonzero(ok) == ok.size:  # cheaper than ok.all() on small arrays
                return arr
    elif type(value) is float or isinstance(value, Real):
        v = float(value)
        if math.isfinite(v) and (v > low if strict else v >= low):
            return v
    bound = "" if low == -math.inf else f" {'>' if strict else '>='} {low:g}"
    if array:
        raise error(f"{name} must hold finite reals{bound}")
    raise error(f"{name} must be a finite real{bound}, got {value!r}")


def _check_fields(obj, names, strict=True) -> None:
    # Checks the named fields of a frozen dataclass and stores them as floats.
    for name in names:
        value = getattr(obj, name)
        checked = _check(name, value, strict=strict)
        if checked is not value:
            object.__setattr__(obj, name, checked)


def _check_ladder(name: str, values, increasing: bool = True) -> tuple[float, ...]:
    # The values as floats, checked non-empty, finite, > 0 and strictly monotone.
    arr = _check(name, values, array=True)
    ladder = tuple(arr.tolist()) if arr.ndim == 1 else ()
    if not ladder or not all(a < b if increasing else a > b for a, b in zip(ladder, ladder[1:])):
        direction = "increasing" if increasing else "decreasing"
        raise InvalidParameterError(f"{name} must be a non-empty, strictly {direction} sequence")
    return ladder


def _positive_arrays(**values) -> list[np.ndarray]:
    return [_check(name, v, array=True) for name, v in values.items()]


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
        _check_fields(self, ("q", "s", "t"))


@dataclass(frozen=True)
class ResolutionRef:
    """Reference resolutions the models are normalized against."""

    q_min: float
    s_max: float
    t_max: float

    def __post_init__(self) -> None:
        _check_fields(self, ("q_min", "s_max", "t_max"))

    def matches(self, other: "ResolutionRef") -> bool:
        return all(_close(getattr(self, f), getattr(other, f)) for f in ("q_min", "s_max", "t_max"))


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
        _check_fields(self, ("a", "b", "c"), strict=False)
        _check_fields(self, ("r_max",))


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
    # Stepsize where the spatial coefficient reaches 0 (QP -nu2/nu1, about
    # 60.81): quality is <= 0 from here on, so the model ends below it.
    q_limit = 2.0 ** ((nu2 / -nu1 - 4.0) / 6.0)

    def __post_init__(self) -> None:
        _check_fields(self, ("alpha_q", "alpha_s_tilde", "alpha_t"))

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
        _check_fields(self, ("kappa", "r_max"))


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
    qp = _check("qp", qp, -math.inf)
    try:
        return 2.0 ** ((qp - 4.0) / 6.0)
    except OverflowError:
        raise InvalidParameterError(f"qp {qp!r} gives a stepsize beyond the float range") from None


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
    at the reference point. Raises :class:`OutOfRangeError` where the rate
    overflows to infinity or underflows to 0.
    """
    rate = _rate(p, *_positive_arrays(q=q, s=s, t=t))
    _check("rate", rate, array=True, error=OutOfRangeError)
    return rate


def evaluate_rate(p: RateParams, x: Star) -> float:
    """Bit rate in kbps at the operating point ``x``."""
    return _check("rate", float(_rate(p, x.q, x.s, x.t)), error=OutOfRangeError)


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
    the full product is exactly 1.0 at ``(q_min, s_max, t_max)``. Raises
    :class:`OutOfRangeError` at stepsizes ``>= p.q_limit``.
    """
    q, s, t = _positive_arrays(q=q, s=s, t=t)
    _check_q_limit(q.max(initial=0.0))
    return _quality(p, q, s, t)


def evaluate_quality(p: QualityParams, x: Star) -> float:
    """Perceptual quality at the operating point ``x``."""
    _check_q_limit(x.q)
    return float(_quality(p, x.q, x.s, x.t))


def _check_q_limit(q: float, budget: float | None = None) -> None:
    # A stepsize at or above the limit is out of range; as an optimizer's best
    # point at a budget it makes that budget infeasible.
    limit = QualityParams.q_limit
    if q >= limit:
        limit = f"stepsize {q:.6g} is not below the quality model's limit {limit:.6g}"
        if budget is None:
            raise OutOfRangeError(limit)
        raise InfeasibleError(f"budget {budget:.6g} kbps: best {limit}")


def _qr(kappa: float, ratio):
    # Summary quality at rate ratio r / r_max.
    return np.expm1(-kappa * np.power(ratio, QrModel.exponent)) / np.expm1(-kappa)


def qr_surface(m: QrModel, r):
    """Summary quality at rate ``r`` kbps, for ``0 < r <= m.r_max``."""
    arr = _check("rate", r, array=True, error=OutOfRangeError)
    if np.any(arr > m.r_max):
        raise OutOfRangeError(f"rate exceeds the model ceiling {m.r_max}")
    return _qr(m.kappa, arr / m.r_max)


def evaluate_qr(m: QrModel, r: float) -> float:
    """Summary quality at rate ``r`` kbps."""
    return float(qr_surface(m, r))
