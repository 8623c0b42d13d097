"""Estimate rate-surface parameters from measured encode logs.

The protocol fit mirrors how the parameters are defined: each exponent is
recovered from bit rates normalized along its own axis (NRQ, NRT, NRS) and
``r_max`` is the measured rate at the reference point. The joint fit refines
all four parameters together against the raw rates and is available for logs
that lack the exact anchor measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._solve import least_squares_box, minimize_bounded
from .errors import DegenerateDataError, InsufficientDataError, InvalidParameterError
from .models import RateParams, ResolutionRef, Star, _check, _check_fields, _close, _rate

_EXPONENT_MAX = 4.0
# Lower bounds of (a, b, c, r_max) in the joint refinement.
_JOINT_LOWER = (0.0, 0.0, 0.0, 1e-9)


@dataclass(frozen=True)
class RateSample:
    """One measured operating point and its bit rate in kbps."""

    star: Star
    rate: float
    tag: str = ""

    def __post_init__(self) -> None:
        _check_fields(self, ("rate",))


@dataclass(frozen=True)
class EncodeLog:
    """An ordered collection of rate measurements plus reference resolutions."""

    samples: tuple[RateSample, ...]
    ref: ResolutionRef

    def __post_init__(self) -> None:
        if not self.samples:
            raise InvalidParameterError("encode log is empty")
        seen: dict[tuple[float, float, float], float] = {}
        for sample in self.samples:
            key = (sample.star.q, sample.star.s, sample.star.t)
            if key in seen and seen[key] != sample.rate:
                raise InvalidParameterError(
                    f"conflicting rates for duplicate operating point {key}: "
                    f"{seen[key]} vs {sample.rate}"
                )
            seen[key] = sample.rate

    @classmethod
    def from_samples(
        cls, samples, ref: ResolutionRef | None = None
    ) -> "EncodeLog":
        """Build a log, deriving the reference resolutions when not supplied.

        The derived reference is the smallest stepsize and the largest frame
        size and frame rate present in the samples.
        """
        samples = tuple(samples)
        if ref is None:
            if not samples:
                raise InvalidParameterError("cannot derive a reference from an empty log")
            ref = ResolutionRef(
                q_min=min(s.star.q for s in samples),
                s_max=max(s.star.s for s in samples),
                t_max=max(s.star.t for s in samples),
            )
        return cls(samples=samples, ref=ref)


@dataclass(frozen=True)
class FitReport:
    """Fitted parameters plus accuracy metrics over every sample in the log."""

    params: RateParams
    pc: float
    rmse: float
    rrmse: float
    per_sample_residuals: tuple[tuple[Star, float, float], ...]
    warnings: tuple[str, ...] = field(default=())


def _normalize(samples, group, axis: str, anchor: float, missing: str):
    # Rates divided by the rate measured at ``axis == anchor`` within each
    # group of samples, groups in sorted order and each group sorted along
    # ``axis``. Groups without an anchor measurement are skipped.
    groups: dict = {}
    for sample in samples:
        groups.setdefault(group(sample.star), []).append(sample)
    points: list[tuple[float, float]] = []
    for key in sorted(groups):
        members = groups[key]
        anchors = [m for m in members if _close(getattr(m.star, axis), anchor)]
        if anchors:
            points += [
                (getattr(m.star, axis) / anchor, m.rate / anchors[0].rate)
                for m in sorted(members, key=lambda m: getattr(m.star, axis))
            ]
    if not points:
        raise InsufficientDataError(missing)
    return points


def normalize_nrq(log: EncodeLog) -> list[tuple[float, float]]:
    """Rates at ``s_max`` normalized by the rate at ``q_min``, pooled over
    every frame rate measured there.

    Returns ``(q / q_min, rate ratio)`` pairs, anchor included. Frame rates
    lacking a ``q_min`` measurement at ``s_max`` cannot be normalized and are
    skipped.
    """
    ref = log.ref
    at_smax = [s for s in log.samples if _close(s.star.s, ref.s_max)]
    return _normalize(
        at_smax, lambda x: x.t, "q", ref.q_min,
        "no rate measured at the reference stepsize and frame size",
    )


def normalize_nrt(log: EncodeLog) -> list[tuple[float, float]]:
    """Rates at ``(q_min, s_max)`` normalized by the rate at ``t_max``.

    Returns ``(t / t_max, rate ratio)`` pairs.
    """
    ref = log.ref
    curve = [
        s for s in log.samples if _close(s.star.q, ref.q_min) and _close(s.star.s, ref.s_max)
    ]
    return _normalize(
        curve, lambda x: None, "t", ref.t_max,
        "no rate measured at the reference frame rate for the reference stepsize and frame size",
    )


def normalize_nrs(log: EncodeLog) -> list[tuple[float, float]]:
    """Rates normalized by the rate at ``s_max`` within each ``(q, t)`` pair,
    pooled over all pairs.

    Returns ``(s / s_max, rate ratio)`` pairs. Pairs without an ``s_max``
    measurement are skipped.
    """
    return _normalize(
        log.samples, lambda x: (x.q, x.t), "s", log.ref.s_max,
        "no rate measured at the reference frame size",
    )


def fit_power_exponent(points, direction: str) -> float:
    """Least-squares exponent of a single power law through normalized rates.

    ``direction`` selects the model: ``"decreasing"`` fits ``ratio ** -x``
    (rates falling as the ratio grows), ``"increasing"`` fits ``ratio ** x``.
    The squared error is minimized in the linear rate domain by bracketed
    scalar minimization on ``[0, 4]``; a log-log regression slope seeds the
    search and is kept if it happens to score better.
    """
    return _fit_exponent(points, direction)[0]


def _fit_exponent(points, direction: str) -> tuple[float, bool]:
    # The exponent of fit_power_exponent, and whether the search stopped at
    # its upper bound.
    if direction not in ("decreasing", "increasing"):
        raise InvalidParameterError(f"unknown direction {direction!r}")
    ratios = _check("ratios", [p[0] for p in points], array=True)
    values = _check("normalized rates", [p[1] for p in points], array=True)
    if ratios.size < 2:
        raise InvalidParameterError("need at least two normalized points")
    if all(math.isclose(r, 1.0, rel_tol=1e-12) for r in ratios):
        raise DegenerateDataError("all ratios equal 1; exponent is unidentifiable")

    sign = -1.0 if direction == "decreasing" else 1.0
    log_r = np.log(ratios)
    log_v = np.log(values)
    dr = log_r - log_r.mean()
    slope = float(np.dot(dr, log_v - log_v.mean()) / np.dot(dr, dr))
    init = min(max(sign * slope, 0.0), _EXPONENT_MAX)

    def sse(x: float) -> float:
        return float(np.sum((ratios ** (sign * x) - values) ** 2))

    result = minimize_bounded(sse, 0.0, _EXPONENT_MAX, xatol=1e-10)
    if sse(init) < result.fun:
        return init, init == _EXPONENT_MAX
    return result.x, result.at_bound == _EXPONENT_MAX


def pearson(x, y) -> float:
    """Linear correlation between two equally long measurement vectors."""
    xv = _check("x", x, -math.inf, array=True)
    yv = _check("y", y, -math.inf, array=True)
    if xv.ndim != 1 or xv.shape != yv.shape:
        raise InvalidParameterError("inputs must be 1-d vectors of equal length")
    if xv.size < 2:
        raise InvalidParameterError("need at least two points")
    xm = xv - xv.mean()
    ym = yv - yv.mean()
    sxx = float(np.dot(xm, xm))
    syy = float(np.dot(ym, ym))
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateDataError("constant vector has no correlation")
    # Rounding can push a perfect correlation one ulp past the true bound.
    return min(1.0, max(-1.0, float(np.dot(xm, ym) / math.sqrt(sxx * syy))))


def _find_anchor(log: EncodeLog) -> RateSample:
    ref = log.ref
    for sample in log.samples:
        x = sample.star
        if _close(x.q, ref.q_min) and _close(x.s, ref.s_max) and _close(x.t, ref.t_max):
            return sample
    raise InsufficientDataError(
        "log has no measurement at the reference point (q_min, s_max, t_max)"
    )


def _informative(points, axis: str) -> list[tuple[float, float]]:
    if len(points) < 2 or all(math.isclose(r, 1.0, rel_tol=1e-12) for r, _ in points):
        raise InsufficientDataError(f"not enough distinct {axis} measurements to fit")
    return points


def _protocol_fit(log: EncodeLog, warnings: list[str]) -> RateParams:
    anchor = _find_anchor(log)
    exponents = []
    bound_hits = []
    for curve, axis, direction, name in (
        (normalize_nrq, "stepsize", "decreasing", "a"),
        (normalize_nrt, "frame-rate", "increasing", "b"),
        (normalize_nrs, "frame-size", "increasing", "c"),
    ):
        value, at_bound = _fit_exponent(_informative(curve(log), axis), direction)
        exponents.append(value)
        if at_bound:
            bound_hits.append(
                f"{axis} exponent {name} stopped at the search bound {_EXPONENT_MAX:g}; "
                "the data may call for a larger value"
            )
    # Warn only once every curve has fitted; a joint fit that falls back to
    # the log-domain seed never uses these exponents.
    warnings.extend(bound_hits)
    a, b, c = exponents
    return RateParams(a=a, b=b, c=c, r_max=anchor.rate, ref=log.ref)


def _log_ratios(log: EncodeLog):
    # Per sample: log of q, t and s over their reference values, and the rate.
    ref = log.ref
    lq = np.log([s.star.q / ref.q_min for s in log.samples])
    lt = np.log([s.star.t / ref.t_max for s in log.samples])
    ls = np.log([s.star.s / ref.s_max for s in log.samples])
    return lq, lt, ls, np.asarray([s.rate for s in log.samples])


def _loglinear_init(ref: ResolutionRef, lq, lt, ls, rate) -> RateParams:
    # log rate is linear in the four unknowns; used only to seed the joint fit.
    if len(rate) < 4:
        raise InsufficientDataError("joint fit needs at least four samples")
    rows = np.column_stack((np.ones_like(lq), -lq, lt, ls))
    coef, _, rank, _ = np.linalg.lstsq(rows, np.log(rate), rcond=None)
    if rank < 4:
        raise InsufficientDataError(
            "samples do not vary enough across the three axes for a joint fit"
        )
    log_rmax, a, b, c = (float(v) for v in coef)
    return RateParams(
        a=max(a, 0.0),
        b=max(b, 0.0),
        c=max(c, 0.0),
        r_max=math.exp(log_rmax),
        ref=ref,
    )


def fit_rate_params(log: EncodeLog, mode: str = "protocol") -> FitReport:
    """Fit all four rate parameters from a measured log.

    ``protocol`` mode fits each exponent from its own normalized-rate curve
    and takes ``r_max`` from the measured anchor rate; it requires the anchor
    samples. ``joint`` mode minimizes the squared rate error over all four
    parameters simultaneously, seeded by the protocol fit when the anchors
    exist and by a log-domain regression otherwise. If the joint refinement
    fails to reduce the squared error it falls back to its seed and flags a
    warning. Accuracy metrics cover every sample in the log.
    """
    if mode not in ("protocol", "joint"):
        raise InvalidParameterError(f"unknown fit mode {mode!r}")
    if len(log.samples) < 2:
        raise InsufficientDataError("cannot fit a rate model to fewer than two samples")

    warnings: list[str] = []
    if mode == "protocol":
        params = _protocol_fit(log, warnings)
    else:
        ratios = _log_ratios(log)
        try:
            init = _protocol_fit(log, warnings)
        except (InsufficientDataError, DegenerateDataError):
            init = _loglinear_init(log.ref, *ratios)
            warnings.append("anchor samples missing; joint fit seeded by log-domain regression")
        params = _joint_refine(ratios, init, warnings)

    qs = np.asarray([s.star.q for s in log.samples])
    ss = np.asarray([s.star.s for s in log.samples])
    ts = np.asarray([s.star.t for s in log.samples])
    measured = np.asarray([s.rate for s in log.samples])
    predicted = _rate(params, qs, ss, ts)

    rmse = float(np.sqrt(np.mean((measured - predicted) ** 2)))
    residuals = tuple(
        (sample.star, float(m), float(p))
        for sample, m, p in zip(log.samples, measured, predicted)
    )
    return FitReport(
        params=params,
        pc=pearson(measured, predicted),
        rmse=rmse,
        rrmse=rmse / params.r_max,
        per_sample_residuals=residuals,
        warnings=tuple(warnings),
    )


def _joint_refine(ratios, init: RateParams, warnings: list[str]) -> RateParams:
    lq, lt, ls, measured = ratios

    def resid_jac(x):
        a, b, c, r_max = x
        unit = np.exp(-a * lq + b * lt + c * ls)
        model = r_max * unit
        return model - measured, np.column_stack((-lq * model, lt * model, ls * model, unit))

    x0 = np.array([init.a, init.b, init.c, init.r_max])
    result = least_squares_box(resid_jac, x0, _JOINT_LOWER)
    residual0 = resid_jac(x0)[0]
    sse_init = float(residual0 @ residual0)
    if result.sse > sse_init * (1.0 + 1e-12) + 1e-30:
        warnings.append("joint refinement did not reduce the residual; kept the seed fit")
        return init
    a, b, c, r_max = (float(v) for v in result.x)
    return RateParams(a=a, b=b, c=c, r_max=r_max, ref=init.ref)
