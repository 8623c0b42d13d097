"""Benchmark parameter tables for the five standard test sequences.

These values act as frozen fixtures: fitted rate parameters per coding
scenario, quality parameters, and the quality-rate summary coefficients the
acceptance suite reproduces. The measurement grid mirrors the encode ladder
the parameters were derived on: dyadic frame sizes and frame rates with four
stepsizes.
"""

from __future__ import annotations

import numpy as np

from starq import (
    CIF,
    CIF4,
    QCIF,
    EncodeLog,
    FeasibleSets,
    QualityParams,
    RateParams,
    RateSample,
    ResolutionRef,
    Star,
    evaluate_quality,
    evaluate_rate,
    feasible_q,
)

SEQUENCES = ("city", "crew", "harbour", "ice", "soccer")

REF = ResolutionRef(q_min=16.0, s_max=float(CIF4), t_max=30.0)

# (a, b, c, r_max) per sequence, per coding scenario.
RATE_TABLES: dict[str, dict[str, tuple[float, float, float, float]]] = {
    "svc1": {
        "city": (1.394, 0.547, 1.114, 2379.0),
        "crew": (1.139, 0.702, 0.830, 3516.0),
        "harbour": (1.373, 0.640, 0.952, 6145.0),
        "ice": (0.936, 0.628, 0.736, 1594.0),
        "soccer": (1.152, 0.635, 0.899, 3242.0),
    },
    "svc2": {
        "city": (1.342, 0.329, 0.806, 3625.0),
        "crew": (1.20, 0.538, 0.533, 4960.0),
        "harbour": (1.171, 0.508, 0.646, 8675.0),
        "ice": (0.952, 0.496, 0.537, 2334.0),
        "soccer": (1.092, 0.454, 0.642, 4554.0),
    },
    "svc3": {
        "city": (1.239, 0.268, 0.512, 761.0),
        "crew": (1.092, 0.459, 0.319, 1169.0),
        "harbour": (1.363, 0.288, 0.427, 1953.0),
        "ice": (0.953, 0.447, 0.371, 761.0),
        "soccer": (1.15, 0.425, 0.411, 1200.0),
    },
    "svc4": {
        "city": (0.881, 0.254, 0.902, 1816.0),
        "crew": (0.69, 0.536, 0.605, 2909.0),
        "harbour": (0.768, 0.471, 0.808, 4556.0),
        "ice": (0.647, 0.486, 0.669, 1518.0),
        "soccer": (0.771, 0.441, 0.799, 2588.0),
    },
    "sl1": {
        "city": (1.935, 0.836, 1.301, 7561.0),
        "crew": (1.362, 0.828, 0.881, 6962.0),
        "harbour": (1.23, 0.795, 0.895, 10884.0),
        "ice": (1.12, 0.679, 0.729, 2140.0),
        "soccer": (1.38, 0.711, 0.992, 6084.0),
    },
    "sl2": {
        "city": (1.371, 0.233, 1.047, 1512.0),
        "crew": (1.095, 0.471, 0.785, 2429.0),
        "harbour": (1.248, 0.397, 0.894, 3818.0),
        "ice": (0.86, 0.438, 0.667, 975.0),
        "soccer": (1.086, 0.39, 0.88, 2268.0),
    },
    "sl3": {
        "city": (1.333, 0.242, 0.479, 1965.0),
        "crew": (1.054, 0.491, 0.266, 2969.0),
        "harbour": (1.149, 0.422, 0.361, 4909.0),
        "ice": (0.851, 0.454, 0.239, 1125.0),
        "soccer": (1.037, 0.403, 0.40, 2736.0),
    },
}

# (alpha_q, alpha_s_tilde, alpha_t) per sequence.
QUALITY_TABLE: dict[str, tuple[float, float, float]] = {
    "city": (7.25, 3.52, 4.10),
    "crew": (4.51, 4.07, 3.09),
    "harbour": (9.65, 4.58, 2.83),
    "ice": (5.61, 3.68, 3.00),
    "soccer": (6.31, 4.55, 2.23),
}

# Quality-rate summary coefficient and its reported fit error (percent).
QR_KAPPA = {"city": 5.058, "crew": 3.121, "harbour": 5.882, "ice": 2.769, "soccer": 4.103}
QR_RMSE_PCT = {"city": 0.49, "crew": 0.13, "harbour": 0.43, "ice": 1.3, "soccer": 0.79}

# Measurement ladder: 4 stepsizes x 5 frame rates x 3 frame sizes = 60 points.
GRID_Q = (16.0, 26.0, 40.0, 64.0)
GRID_T = (1.875, 3.75, 7.5, 15.0, 30.0)
GRID_S = (float(QCIF), float(CIF), float(CIF4))

# Layer ladder used by the ordering workflows: 3 x 4 x 4.
LAYER_S = (float(QCIF), float(CIF), float(CIF4))
LAYER_T = (3.75, 7.5, 15.0, 30.0)
LAYER_Q = (64.0, 40.0, 26.0, 16.0)

# The dyadic 3 x 4 ladder of frame sizes and frame rates, stepsizes 16 to 104.
DYADIC = FeasibleSets(LAYER_S, LAYER_T, (16.0, 104.0))


def rate_params(sequence: str, scenario: str = "svc1") -> RateParams:
    a, b, c, r_max = RATE_TABLES[scenario][sequence]
    return RateParams(a=a, b=b, c=c, r_max=r_max, ref=REF)


def quality_params(sequence: str) -> QualityParams:
    alpha_q, alpha_s_tilde, alpha_t = QUALITY_TABLE[sequence]
    return QualityParams(
        alpha_q=alpha_q, alpha_s_tilde=alpha_s_tilde, alpha_t=alpha_t, ref=REF
    )


def synthetic_log(params: RateParams, noise: float = 0.0, seed: int = 0) -> EncodeLog:
    """Model-generated measurement log over the standard ladder, optionally
    with multiplicative gaussian noise."""
    rng = np.random.default_rng(seed)
    samples = []
    for q in GRID_Q:
        for t in GRID_T:
            for s in GRID_S:
                star = Star(q=q, s=s, t=t)
                rate = evaluate_rate(params, star)
                if noise:
                    rate *= 1.0 + noise * float(rng.standard_normal())
                samples.append(RateSample(star=star, rate=rate))
    return EncodeLog(samples=tuple(samples), ref=params.ref)


def write_log_csv(path, log: EncodeLog):
    """Write ``log`` as a CSV encode log at ``path`` and return the path. The
    frame size is written as a one-row-high frame, so it reads back exactly."""
    lines = ["q,width,height,fps,rate_kbps"]
    lines += [f"{x.star.q!r},{x.star.s!r},1,{x.star.t!r},{x.rate!r}" for x in log.samples]
    path.write_text("\n".join(lines) + "\n")
    return path


def without_anchor(log: EncodeLog) -> EncodeLog:
    """The log less its sample at the reference point, which leaves it to the
    joint fit's log-domain seed."""
    ref = (log.ref.q_min, log.ref.s_max, log.ref.t_max)
    kept = [x for x in log.samples if (x.star.q, x.star.s, x.star.t) != ref]
    return EncodeLog(samples=tuple(kept), ref=log.ref)


# Joint-fit fixture logs, as (scenario, noise, seed, anchors): both predictor
# scenarios, noiseless and noisy, with and without the anchor sample.
JOINT_FIT_CASES = [
    (scenario, noise, seed, anchors)
    for scenario in ("svc1", "sl2")
    for noise, seed in ((0.0, 0), (0.01, 1), (0.01, 2), (0.03, 3))
    for anchors in (True, False)
]


def joint_fit_logs(scenario: str, noise: float, seed: int, anchors: bool):
    """One fixture log per sequence for a case of JOINT_FIT_CASES."""
    for sequence in SEQUENCES:
        log = synthetic_log(rate_params(sequence, scenario), noise, seed)
        yield sequence, log if anchors else without_anchor(log)


def enumerate_discrete(rp, qp, sets, budget):
    """Brute-force best operating point of a discrete set: the highest
    quality, ties broken toward the smaller stepsize, then the larger frame
    rate, then the larger frame size."""
    best_key, best = None, None
    for s in sets.s_values:
        for t in sets.t_values:
            q = max(feasible_q(rp, s, t, budget), sets.q_range[0])
            if q > sets.q_range[1] * (1 + 1e-9):
                continue
            quality = evaluate_quality(qp, Star(q, s, t))
            key = (quality, -q, t, s)
            if best_key is None or key > best_key:
                best_key, best = key, Star(q, s, t)
    return best
