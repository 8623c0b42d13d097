"""Every parameter fit of the package.

Rate-surface parameters come from measured encode logs. The protocol fit
mirrors how the parameters are defined: each exponent is recovered from bit
rates normalized along its own axis (NRQ, NRT, NRS) and ``r_max`` is the
measured rate at the reference point. The joint fit refines all four
parameters together against the raw rates and is available for logs that
lack the exact anchor measurements. ``fit_qr`` fits ``kappa``, the one
parameter of the quality-versus-rate summary, to a curve such as
``starq.optimizer.optimal_quality_curve`` gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter, itemgetter

import numpy as np

from ._solve import least_squares_box, minimize_bounded
from .errors import DegenerateDataError, InsufficientDataError, InvalidParameterError
from .models import (
    QrModel, RateParams, ResolutionRef, Star, _check, _check_fields, _close, _mean, _qr,
    _qr_powered, _rate,
)

_EXPONENT_MAX = 4.0


@dataclass(frozen=True)
class RateSample:
    """One measured operating point and its bit rate in kbps."""

    star: Star
    rate: float
    tag: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.star, Star):
            raise InvalidParameterError(f"star must be a Star, got {self.star!r}")
        _check_fields(self, ("rate",))


def _samples(samples) -> tuple[RateSample, ...]:
    # The samples as a tuple, each checked to be a RateSample.
    try:
        samples = tuple(samples)
    except TypeError:
        raise InvalidParameterError(f"samples must be an iterable, got {samples!r}") from None
    for sample in samples:
        if not isinstance(sample, RateSample):
            raise InvalidParameterError(f"samples must be RateSample objects, got {sample!r}")
    return samples


def _check_repeats(points, samples) -> None:
    # An operating point that repeats, ``points[i]`` being sample i's, must
    # repeat its rate.
    if len(set(points)) == len(points):
        return
    seen: dict[tuple[float, float, float], float] = {}
    for key, sample in zip(points, samples):
        if key in seen and seen[key] != sample.rate:
            raise InvalidParameterError(
                f"conflicting rates for duplicate operating point {key}: "
                f"{seen[key]} vs {sample.rate}"
            )
        seen[key] = sample.rate


@dataclass(frozen=True)
class EncodeLog:
    """An ordered collection of rate measurements plus reference resolutions.

    A log derives its rate columns, its NRQ, NRT and NRS curves and its
    protocol fit on first use and keeps them for later fits. They are not
    fields: ``==``, ``repr``, ``hash`` and pickles ignore them, and
    ``dataclasses.replace`` gives a log that derives its own. A derivation
    that raises keeps nothing, so it raises again on the next call.
    """

    samples: tuple[RateSample, ...]
    ref: ResolutionRef

    def __post_init__(self) -> None:
        samples = _samples(self.samples)
        object.__setattr__(self, "samples", samples)
        if not isinstance(self.ref, ResolutionRef):
            raise InvalidParameterError(f"ref must be a ResolutionRef, got {self.ref!r}")
        if not samples:
            raise InvalidParameterError("encode log is empty")
        _check_repeats([(x.star.q, x.star.s, x.star.t) for x in samples], samples)

    @classmethod
    def from_samples(cls, samples) -> "EncodeLog":
        """Build a log whose reference resolutions are the smallest stepsize
        and the largest frame size and frame rate present in the samples.
        Pass ``ref`` to the constructor to give a reference explicitly.
        """
        samples = _samples(samples)
        if not samples:
            raise InvalidParameterError("cannot derive a reference from an empty log")
        return cls(samples=samples, ref=_log_ref((x.star.q, x.star.s, x.star.t) for x in samples))

    def __getstate__(self) -> dict:
        # A pickle holds the fields alone; its copy derives its own views.
        return {"samples": self.samples, "ref": self.ref}

    @cached_property
    def _columns(self) -> tuple[np.ndarray, ...]:
        # The q, s, t and rate arrays of the samples, read-only; four
        # comprehensions cost less than one pass and a transpose.
        samples = self.samples
        columns = (
            np.array([x.star.q for x in samples]),
            np.array([x.star.s for x in samples]),
            np.array([x.star.t for x in samples]),
            np.array([x.rate for x in samples]),
        )
        for column in columns:
            column.flags.writeable = False
        return columns

    # The NRQ, NRT and NRS curves as (ratios, values) tuples; the public
    # normalize_* functions give them as pairs.
    @cached_property
    def _nrq(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        ref = self.ref
        at_smax = [x for x in self.samples if _close(x.star.s, ref.s_max)]
        return _normalize(
            at_smax, lambda x: x.t, "q", ref.q_min,
            "no rate measured at the reference stepsize and frame size",
        )

    @cached_property
    def _nrt(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        ref = self.ref
        curve = [
            x for x in self.samples if _close(x.star.q, ref.q_min) and _close(x.star.s, ref.s_max)
        ]
        return _normalize(
            curve, lambda x: None, "t", ref.t_max,
            "no rate measured at the reference frame rate for the reference stepsize and frame size",
        )

    @cached_property
    def _nrs(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        return _normalize(
            self.samples, lambda x: (x.q, x.t), "s", self.ref.s_max,
            "no rate measured at the reference frame size",
        )

    @cached_property
    def _protocol_seed(self) -> tuple[RateParams, tuple[str, ...]]:
        # The protocol fit's parameters and warnings, which the joint fit
        # refines.
        anchor = _find_anchor(self)
        exponents = []
        bound_hits = []
        for curve, axis, sign, name in (
            ("_nrq", "stepsize", -1.0, "a"),
            ("_nrt", "frame-rate", 1.0, "b"),
            ("_nrs", "frame-size", 1.0, "c"),
        ):
            ratios, values = getattr(self, curve)
            if len(ratios) < 2 or _all_one(ratios):
                raise InsufficientDataError(f"not enough distinct {axis} measurements to fit")
            points = _check("normalized points", (ratios, values), array=True)
            value, at_bound = _fit_exponent(*points, sign)
            exponents.append(value)
            if at_bound:
                bound_hits.append(
                    f"{axis} exponent {name} stopped at the search bound {_EXPONENT_MAX:g}; "
                    "the data may call for a larger value"
                )
        # The bound warnings come only with a fit of every curve; a joint fit
        # that falls back to the log-domain seed never uses these exponents.
        a, b, c = exponents
        return RateParams(a=a, b=b, c=c, r_max=anchor.rate, ref=self.ref), tuple(bound_hits)


def _log_ref(points) -> ResolutionRef:
    # A log's reference from its ``(q, s, t)`` points: the smallest stepsize
    # and the largest frame size and frame rate.
    qs, ss, ts = zip(*points)
    return ResolutionRef(q_min=min(qs), s_max=max(ss), t_max=max(ts))


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
    # The ratios ``axis / anchor`` and the rates divided by the rate measured
    # at ``axis == anchor`` within each group of samples, as two tuples:
    # groups in sorted order, each sorted along ``axis``. Groups without an
    # anchor measurement are skipped.
    groups: dict = {}
    for sample in samples:
        x = sample.star
        groups.setdefault(group(x), []).append((getattr(x, axis), sample.rate))
    ratios: list[float] = []
    values: list[float] = []
    for key in sorted(groups):
        members = groups[key]
        for candidate, base in members:
            if _close(candidate, anchor):
                members.sort(key=itemgetter(0))  # stable: ties keep the log's order
                for value, rate in members:
                    ratios.append(value / anchor)
                    values.append(rate / base)
                break
    if not ratios:
        raise InsufficientDataError(missing)
    return tuple(ratios), tuple(values)


def normalize_nrq(log: EncodeLog) -> list[tuple[float, float]]:
    """Rates at ``s_max`` normalized by the rate at ``q_min``, pooled over
    every frame rate measured there.

    Returns ``(q / q_min, rate ratio)`` pairs, anchor included. Frame rates
    lacking a ``q_min`` measurement at ``s_max`` cannot be normalized and are
    skipped. The log keeps the curve, which its protocol fit reads too; the
    returned list is the caller's own.
    """
    return list(zip(*log._nrq))


def normalize_nrt(log: EncodeLog) -> list[tuple[float, float]]:
    """Rates at ``(q_min, s_max)`` normalized by the rate at ``t_max``.

    Returns ``(t / t_max, rate ratio)`` pairs. The log keeps the curve, as
    for :func:`normalize_nrq`.
    """
    return list(zip(*log._nrt))


def normalize_nrs(log: EncodeLog) -> list[tuple[float, float]]:
    """Rates normalized by the rate at ``s_max`` within each ``(q, t)`` pair,
    pooled over all pairs.

    Returns ``(s / s_max, rate ratio)`` pairs. Pairs without an ``s_max``
    measurement are skipped. The log keeps the curve, as for
    :func:`normalize_nrq`.
    """
    return list(zip(*log._nrs))


def fit_power_exponent(points, direction: str) -> float:
    """Least-squares exponent of a single power law through normalized rates.

    ``direction`` selects the model: ``"decreasing"`` fits ``ratio ** -x``
    (rates falling as the ratio grows), ``"increasing"`` fits ``ratio ** x``.
    The squared error in the linear rate domain is minimized by a bounded
    search on ``[0, 4]``; the clamped log-log slope, exact on noiseless logs,
    is a second candidate and wins when it scores better.
    """
    if direction not in ("decreasing", "increasing"):
        raise InvalidParameterError(f"unknown direction {direction!r}")
    pairs = _check("normalized points", list(points), array=True)
    if len(pairs) < 2 or pairs.shape[1:] != (2,):
        raise InvalidParameterError("need at least two (ratio, normalized rate) pairs")
    if _all_one(pairs[:, 0].tolist()):
        raise DegenerateDataError("all ratios equal 1; exponent is unidentifiable")
    return _fit_exponent(*pairs.T.copy(), -1.0 if direction == "decreasing" else 1.0)[0]


def _all_one(ratios) -> bool:
    # Whether every ratio equals 1, which leaves an exponent unidentifiable.
    return all(math.isclose(r, 1.0, rel_tol=1e-12) for r in ratios)


def _fit_exponent(ratios, values, sign: float) -> tuple[float, bool]:
    # The exponent of fit_power_exponent through the checked points
    # ``(ratios, values)``, with ``sign`` -1 for a decreasing curve, and
    # whether the search stopped at its upper bound; the ratios are not all 1.
    log_r = np.log(ratios)
    log_v = np.log(values)
    dr = log_r - _mean(log_r)
    sse = _exponent_sse(ratios, values, sign)
    result = minimize_bounded(sse, 0.0, _EXPONENT_MAX)
    if dd := np.dot(dr, dr):  # equal ratios give no log-log slope to try
        init = min(max(sign * float(np.dot(dr, log_v - _mean(log_v)) / dd), 0.0), _EXPONENT_MAX)
        if sse(init) < result.fun:
            return init, init == _EXPONENT_MAX
    return result.x, result.at_bound == _EXPONENT_MAX


def _exponent_sse(ratios, values, sign: float):
    # The exponent search's objective: the squared error of
    # ratios ** (sign * x) against values, as a function of x.
    def sse(x: float) -> float:
        # ``**``, not np.power: the operator has its own fast paths for
        # exponents such as 0.5 and 2, which numpy does not promise to match
        # np.power bit for bit.
        d = ratios ** (sign * x)
        d -= values
        d *= d
        return float(np.add.reduce(d))

    return sse


@dataclass(frozen=True)
class QrFit:
    """Fitted rate-quality summary and its root-mean-square error."""

    model: QrModel
    rmse: float


def fit_qr(curve, r_max: float) -> QrFit:
    """Fit the one-parameter quality-versus-rate summary to a curve of
    ``(rate, quality)`` points by bracketed scalar minimization of the RMSE.

    ``curve`` is any iterable of at least three pairs; a point that is not a
    pair raises :class:`InvalidParameterError`.
    """
    points = list(curve)
    n = len(points)
    if n < 3:
        raise InsufficientDataError("need at least three curve points")
    try:
        shape = np.shape(points)
    except ValueError:  # ragged points
        shape = ()
    if shape != (n, 2):
        raise InvalidParameterError("curve points must be (rate, quality) pairs")
    rates, qualities = zip(*points)
    r_max = _check("r_max", r_max)
    powered = _qr_powered(r_max, rates, "curve rates")
    qualities = _check("curve qualities", qualities, -np.inf, array=True)
    if np.all(qualities == qualities[0]):
        raise DegenerateDataError("curve is flat; no summary parameter fits it")
    result = minimize_bounded(_qr_rmse(powered, qualities), 1e-6, 50.0)
    return QrFit(model=QrModel(kappa=result.x, r_max=r_max), rmse=result.fun)


def _qr_rmse(powered, qualities):
    # fit_qr's objective: the RMSE of the Q(R) summary at the powered rate
    # ratios against the qualities, as a function of kappa.
    def rmse(kappa: float) -> float:
        d = _qr(kappa, powered)
        d -= qualities
        d *= d
        return math.sqrt(_mean(d))

    return rmse


def pearson(x, y) -> float:
    """Linear correlation between two equally long measurement vectors.

    Multiplying either vector by a power of two leaves the result
    bit-identical, as long as no element becomes subnormal.
    """
    xv = _check("x", x, -math.inf, array=True)
    yv = _check("y", y, -math.inf, array=True)
    if xv.ndim != 1 or xv.shape != yv.shape:
        raise InvalidParameterError("inputs must be 1-d vectors of equal length")
    if xv.size < 2:
        raise InvalidParameterError("need at least two points")
    xm = _centred(xv)
    ym = _centred(yv)
    sxx = float(np.dot(xm, xm))
    syy = float(np.dot(ym, ym))
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateDataError("constant vector has no correlation")
    # Rounding can push a perfect correlation one ulp past the true bound.
    return min(1.0, max(-1.0, float(np.dot(xm, ym) / math.sqrt(sxx * syy))))


def _centred(v: np.ndarray) -> np.ndarray:
    # v less its mean, in the unit that puts its largest magnitude in
    # [0.5, 1). The scaling is exact, and it keeps pearson's sums of squares
    # and their product inside the float range at any scale of v.
    v = np.ldexp(v, -math.frexp(float(np.maximum.reduce(np.abs(v))))[1])
    v -= _mean(v)
    return v


def _find_anchor(log: EncodeLog) -> RateSample:
    ref = log.ref
    for sample in log.samples:
        x = sample.star
        if _close(x.q, ref.q_min) and _close(x.s, ref.s_max) and _close(x.t, ref.t_max):
            return sample
    raise InsufficientDataError(
        "log has no measurement at the reference point (q_min, s_max, t_max)"
    )


def _loglinear_init(ref: ResolutionRef, signed, rate) -> RateParams:
    # log rate is linear in the four unknowns; used only to seed the joint fit.
    if len(rate) < 4:
        raise InsufficientDataError("joint fit needs at least four samples")
    rows = np.column_stack((np.ones(len(rate)), signed))
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
    exist and by a log-domain regression otherwise. The log keeps its
    protocol fit and the curves it came from, so either mode reuses what an
    earlier fit or ``normalize_*`` call of the same log object derived;
    every report equals the one a fresh log would give. The refinement keeps
    ``a, b, c >= 0`` and ``r_max >= 1e-9`` times the seed's, a box that holds
    the seed, and never ends with a larger squared error than the seed has.
    Where that floor rounds to 0 (a subnormal seed ``r_max``) and the loop
    ends at ``r_max = 0``, ``RateParams`` raises ``InvalidParameterError``.
    Accuracy metrics cover every sample in the log; they are taken in the
    unit that puts ``r_max`` in [0.5, 1), so a power-of-two change of rate
    unit scales ``rmse`` exactly and leaves ``rrmse`` and ``pc`` as they are.
    """
    if mode not in ("protocol", "joint"):
        raise InvalidParameterError(f"unknown fit mode {mode!r}")
    if len(log.samples) < 2:
        raise InsufficientDataError("cannot fit a rate model to fewer than two samples")

    q, s, t, measured = log._columns
    if mode == "protocol":
        params, warnings = log._protocol_seed
    else:
        ref = log.ref
        # Per sample: -log(q / q_min), log(t / t_max), log(s / s_max).
        signed = np.array((-np.log(q / ref.q_min), np.log(t / ref.t_max), np.log(s / ref.s_max))).T
        try:
            init, warnings = log._protocol_seed
        except InsufficientDataError:
            init = _loglinear_init(ref, signed, measured)
            warnings = ("anchor samples missing; joint fit seeded by log-domain regression",)
        params = _joint_refine(signed, measured, init)

    predicted = _rate(params, q, s, t)
    # Squared residuals of rates beyond about 1e+-150 leave the float range:
    # square them in the unit that puts r_max in [0.5, 1), an exact scaling.
    unit = math.frexp(params.r_max)[1]
    d = np.ldexp(measured, -unit)
    d -= np.ldexp(predicted, -unit)
    d *= d
    rmse = math.ldexp(math.sqrt(_mean(d)), unit)
    stars = map(attrgetter("star"), log.samples)
    residuals = tuple(zip(stars, measured.tolist(), predicted.tolist()))
    return FitReport(
        params=params,
        pc=pearson(measured, predicted),
        rmse=rmse,
        rrmse=rmse / params.r_max,
        per_sample_residuals=residuals,
        warnings=warnings,
    )


def _joint_refine(signed, measured, init: RateParams) -> RateParams:
    # The solver's [J | r], filled in place: d model / d (a, b, c) is the
    # signed log-ratio times the model, d model / d r_max the model at r_max 1.
    out = np.empty((len(measured), 5), order="F")
    jac, unit, residual = out[:, :3], out[:, 3], out[:, 4]

    def jac_resid(x):
        np.multiply(signed, x[:3], out=jac)
        np.add.reduce(jac, axis=1, out=unit)
        np.exp(unit, out=unit)
        np.multiply(unit, x[3], out=residual)
        np.multiply(signed, residual[:, None], out=jac)
        np.subtract(residual, measured, out=residual)
        return out

    # A floor relative to the seed keeps the fit free of the rate unit.
    x0 = (init.a, init.b, init.c, init.r_max)
    a, b, c, r_max = least_squares_box(jac_resid, x0, (0.0, 0.0, 0.0, 1e-9 * init.r_max)).x.tolist()
    return RateParams(a=a, b=b, c=c, r_max=r_max, ref=init.ref)
