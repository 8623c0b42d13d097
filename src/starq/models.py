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
from itertools import chain
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
        flat = _floats(value, low, strict)
        if flat is not None:  # nothing left to discover or check
            arr = np.fromiter(flat, float, len(flat))
            return arr if flat is value else arr.reshape(len(value), -1)
        try:
            arr = np.asarray(value)
        except (TypeError, ValueError):  # a ragged sequence
            arr = np.asarray(None)
        if arr.dtype.kind in "iuf" and (arr is value or not _holds_bool(value)):
            arr = arr.astype(float, copy=False)
            ok = np.isfinite(arr) & ((arr > low) if strict else (arr >= low))
            if np.count_nonzero(ok) == ok.size:  # cheaper than ok.all() on small arrays
                return arr
    elif type(value) is float:  # already a float: finite exactly when x - x is 0
        if value - value == 0.0 and (value > low if strict else value >= low):
            return value
    elif isinstance(value, Real) and type(value) is not bool:
        try:
            v = float(value)
        except OverflowError:  # an int beyond the float range
            v = math.inf
        if math.isfinite(v) and (v > low if strict else v >= low):
            return v
    bound = "" if low == -math.inf else f" {'>' if strict else '>='} {low:g}"
    if array:
        raise error(f"{name} must hold finite reals{bound}")
    raise error(f"{name} must be a finite real{bound}, got {value!r}")


def _floats(values, low=0.0, strict=True) -> list | tuple | None:
    # ``values`` flattened, if it is a list or tuple of Python floats or of
    # equal-length rows of them, each finite and ``> low`` (``>= low`` unless
    # ``strict``); else None, for _check's numpy path to decide. A sum of
    # floats is finite only when every term is; one that overflows says None.
    if type(values) not in (list, tuple) or not values:
        return None
    row = type(values[0])
    if row in (list, tuple):
        if list(map(type, values)).count(row) != len(values) or len(set(map(len, values))) > 1:
            return None
        values = list(chain.from_iterable(values))
    if not values or list(map(type, values)).count(float) != len(values):
        return None
    if not math.isfinite(sum(values)):
        return None
    least = min(values)
    return values if (least > low if strict else least >= low) else None


def _holds_bool(value) -> bool:
    # numpy turns a bool among numbers into 0 or 1, so lists and tuples are
    # scanned at every depth for Python and numpy booleans.
    if type(value) in (list, tuple):
        return any(map(_holds_bool, value))
    return type(value) in (bool, np.bool_) or isinstance(value, np.ndarray) and value.dtype == bool


def _frozen(cls, fields: dict):
    # An instance of the frozen dataclass ``cls`` holding ``fields``, a dict
    # of its field values, as given, for values built under every rule its
    # __post_init__ would check.
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _check_fields(obj, names, strict=True) -> None:
    # Checks the named fields of a frozen dataclass and stores them as floats;
    # a field holding a finite Python float in range is stored as it is.
    for name in names:
        value = getattr(obj, name)
        checked = _check(name, value, strict=strict)
        if checked is not value:
            object.__setattr__(obj, name, checked)


def _check_ladder(name: str, values, increasing: bool = True) -> tuple[float, ...]:
    # The values as floats, checked non-empty, finite, > 0 and strictly monotone.
    return _ladder(name, _check(name, values, array=True), increasing)


def _ladder(name: str, arr: np.ndarray, increasing: bool) -> tuple[float, ...]:
    # The ladder rule for values ``arr`` holds as checked floats, in their own shape.
    ladder = tuple(arr.tolist()) if arr.ndim == 1 else ()
    if not ladder or not all(a < b if increasing else a > b for a, b in zip(ladder, ladder[1:])):
        direction = "increasing" if increasing else "decreasing"
        raise InvalidParameterError(f"{name} must be a non-empty, strictly {direction} sequence")
    return ladder


def _mean(x) -> float:
    # x.mean() of a 1-d float array, bit for bit: the same pairwise sum over
    # the same count, without numpy's Python-level wrapper.
    return float(np.add.reduce(x)) / x.size


def _positive_arrays(**values) -> list[np.ndarray]:
    return [_check(name, v, array=True) for name, v in values.items()]


def _qp(q):
    x = np.log2(q)
    x *= 6.0
    x += 4.0
    return x


def _times(x, y):
    # x * y, written into the larger operand where that is a private temporary
    # array of the product's shape; else a new array or numpy scalar. Swapped
    # operands give the same bits, as x is never NaN where they swap.
    if type(x) is not np.ndarray:  # the product has y's shape
        y *= x
        return y
    size = getattr(y, "size", 1)
    a, b = (x, y) if size <= x.size else (y, x)
    # Operands of one rank and two sizes, such as a lattice's (L, 1, 1) and
    # (1, M, 1) axes, have their shapes tested: a failed write costs more.
    # Without a unit axis, a takes the product's shape or none at all.
    if size != x.size and getattr(y, "ndim", 0) == x.ndim and 1 in a.shape:
        if np.broadcast(a, b).shape != a.shape:
            return x * y
    try:
        a *= b
        return a
    except ValueError:  # the product is larger than a
        return x * y


def stepsize_from_qp(qp: float) -> float:
    """Inverse of :func:`qp_from_stepsize`."""
    qp = _check("qp", qp, -math.inf)
    try:
        q = 2.0 ** ((qp - 4.0) / 6.0)
    except OverflowError:
        raise InvalidParameterError(f"qp {qp!r} gives a stepsize beyond the float range") from None
    if q == 0.0:  # below the smallest subnormal: no stepsize > 0
        raise InvalidParameterError(f"qp {qp!r} gives a stepsize that underflows to 0")
    return q


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
    q_limit = stepsize_from_qp(nu2 / -nu1)

    def __post_init__(self) -> None:
        _check_fields(self, ("alpha_q", "alpha_s_tilde", "alpha_t"))
        # The three normalizing denominators of the quality surface, computed
        # once. A plain attribute, not a field: files, ==, repr and hash ignore
        # it. Parameters the surface cannot use stay constructible silently.
        with np.errstate(all="ignore"):
            minus_alphas = (-self.alpha_q, self._minus_alpha_s(self.ref.q_min), -self.alpha_t)
            object.__setattr__(self, "_denominators", tuple(map(np.expm1, minus_alphas)))

    def alpha_s(self, q):
        """Stepsize-coupled spatial falloff coefficient, flat below the QP clamp."""
        return -self._minus_alpha_s(q)

    def _minus_alpha_s(self, q):
        # alpha_s with the sign in the coefficient, bit for bit: -c * x is -(c * x).
        x = _qp(q)
        if type(x) is np.ndarray:
            np.maximum(x, self.qp_clamp, out=x)
        elif x < self.qp_clamp:  # a numpy scalar: np.maximum's value, without its call
            x = np.float64(self.qp_clamp)
        x *= self.nu1
        x += self.nu2
        x *= -self.alpha_s_tilde
        return x


@dataclass(frozen=True)
class QrModel:
    """One-parameter summary of achievable quality versus rate."""

    kappa: float
    r_max: float

    exponent = 0.55

    def __post_init__(self) -> None:
        _check_fields(self, ("kappa", "r_max"))


def _check_shared_ref(rp: RateParams, qp: QualityParams) -> None:
    if rp.ref is not qp.ref and not rp.ref.matches(qp.ref):
        raise InvalidParameterError("rate and quality parameters use different references")


def qp_from_stepsize(q):
    """Map a quantization stepsize to the real-valued H.264 QP scale.

    The stepsize doubles every 6 QP units, with QP 4 at stepsize 1.
    Broadcasts over numpy arrays.
    """
    return _qp(*_positive_arrays(q=q))


def _rate(p: RateParams, q, s, t):
    ref = p.ref
    return (
        p.r_max
        * np.power(q / ref.q_min, -p.a)
        * np.power(t / ref.t_max, p.b)
        * np.power(s / ref.s_max, p.c)
    )


# _rate without numpy's overflow and invalid-value warnings: a rate past the
# float range comes out inf, or nan for inf * 0, and the caller's check raises
# OutOfRangeError for it, which a warning made an error by the warnings filter
# would otherwise pre-empt. The decorator form costs half what a ``with``
# block does per call, which a scalar evaluate_rate pays in full.
_quiet_rate = np.errstate(over="ignore", invalid="ignore")(_rate)


def rate_surface(p: RateParams, q, s, t):
    """Bit rate in kbps at stepsize ``q``, frame size ``s``, frame rate ``t``.

    Accepts scalars or broadcastable numpy arrays. Equals ``p.r_max`` exactly
    at the reference point. Raises :class:`OutOfRangeError`, and no numpy
    warning, where the rate overflows to infinity or underflows to 0.
    """
    return _checked_rate(p, *_positive_arrays(q=q, s=s, t=t))


def _checked_rate(p: RateParams, q, s, t):
    # rate_surface on checked arrays: the rate, checked finite and > 0.
    rate = _quiet_rate(p, q, s, t)
    _check("rate", rate, array=True, error=OutOfRangeError)
    return rate


def evaluate_rate(p: RateParams, x: Star) -> float:
    """Bit rate in kbps at the operating point ``x``; the errors of
    :func:`rate_surface`."""
    return _check("rate", float(_quiet_rate(p, x.q, x.s, x.t)), error=OutOfRangeError)


def _quality(p: QualityParams, q, s, t):
    # The plain product's ufuncs, operands and order, temporaries written in place. beta_q is 1:
    # q_min / q goes unpowered, times a numpy coefficient for numpy's float errors at a float q.
    ref = p.ref
    d_q, d_s, d_t = p._denominators
    f_q = _factor(np.float64(-p.alpha_q), ref.q_min / q, d_q)
    f_s = _factor(p._minus_alpha_s(q), s / ref.s_max, d_s, p.beta_s)
    f_t = _factor(-p.alpha_t, t / ref.t_max, d_t, p.beta_t)
    return _times(_times(f_q, f_s), f_t)


def _factor(minus_alpha, x, d, beta=None):
    # expm1(minus_alpha * x ** beta) / d of private temporaries; x itself without beta.
    if beta is not None:
        x = np.power(x, beta, out=x if type(x) is np.ndarray else None)
    x = _times(minus_alpha, x)
    x = np.expm1(x, out=x) if type(x) is np.ndarray else np.expm1(x)
    x /= d
    return x


def quality_surface(p: QualityParams, q, s, t):
    """Perceptual quality at ``(q, s, t)``, normalized to 1.0 at the
    reference point.

    Each axis contributes an inverted-exponential factor. The spatial
    factor's falloff coefficient depends on the stepsize through the QP
    scale; its normalizing denominator is pinned at the reference stepsize so
    the full product is exactly 1.0 at ``(q_min, s_max, t_max)``. Raises
    :class:`OutOfRangeError` at stepsizes ``>= p.q_limit``.
    """
    return _checked_quality(p, *_positive_arrays(q=q, s=s, t=t))


def _checked_quality(p: QualityParams, q, s, t):
    # quality_surface on checked arrays: the quality, for stepsizes below q_limit.
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


def _qr(kappa: float, powered):
    # Summary quality at the powered rate ratio (r / r_max) ** exponent.
    return np.expm1(-kappa * powered) / np.expm1(-kappa)


def _qr_powered(r_max, r, name="rate"):
    # (r / r_max) ** QrModel.exponent with the ratio clamped at 1, for a checked
    # r_max and rates > 0 up to r_max within the reference tolerance: the ceiling
    # rule of qr_surface, fit_qr and path_quality_loss. A fit powers its rates once.
    rates = _check(name, r, array=True, error=OutOfRangeError)
    if np.any(rates > r_max * (1.0 + _REL_TOL)):
        raise OutOfRangeError(f"{name} must not exceed the model ceiling {r_max}")
    return np.power(np.minimum(rates / r_max, 1.0), QrModel.exponent)


def qr_surface(m: QrModel, r):
    """Summary quality at rate ``r`` kbps, for ``0 < r <= m.r_max``; a rate
    above ``m.r_max`` by at most the reference tolerance counts as ``r_max``."""
    return _qr(m.kappa, _qr_powered(m.r_max, r))


def evaluate_qr(m: QrModel, r: float) -> float:
    """Summary quality at one rate ``r`` kbps; :func:`qr_surface` takes arrays."""
    if isinstance(r, (list, tuple)) or np.ndim(r) != 0:
        raise InvalidParameterError(f"rate must be a scalar, got {r!r}")
    return float(qr_surface(m, r))
