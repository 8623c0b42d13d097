"""Seeded input generation for the starq benchmark.

Everything the program under test receives (CSV encode logs, JSON model,
feasible-set, layer-level and feature documents, budget traces) is made here
from the benchmark seed alone. This module does not import starq: synthetic
rates come from the paper's rate formula written out below, so a defect in
the package cannot change its own inputs.

The parameter tables are a frozen copy of the fixture tables in
``tests/sequences.py`` (five sequences, seven coding scenarios, the quality
table, the 60-point encode ladder and the 3x4x4 layer ladder). They are
copied rather than imported so that edits to the test fixtures do not change
benchmark inputs between two commits being compared.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

SEQUENCES = ("city", "crew", "harbour", "ice", "soccer")
SCENARIOS = ("svc1", "svc2", "svc3", "svc4", "sl1", "sl2", "sl3")

QCIF = 176.0 * 144.0
CIF = 352.0 * 288.0
CIF4 = 704.0 * 576.0

# Reference resolutions (q_min, s_max, t_max).
REF = (16.0, CIF4, 30.0)

# (a, b, c, r_max) per coding scenario and sequence.
RATE_TABLES = {
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
QUALITY_TABLE = {
    "city": (7.25, 3.52, 4.10),
    "crew": (4.51, 4.07, 3.09),
    "harbour": (9.65, 4.58, 2.83),
    "ice": (5.61, 3.68, 3.00),
    "soccer": (6.31, 4.55, 2.23),
}

# Encode ladder: 4 stepsizes x 5 frame rates x 3 frame sizes = 60 points.
GRID_Q = (16.0, 26.0, 40.0, 64.0)
GRID_T = (1.875, 3.75, 7.5, 15.0, 30.0)
GRID_S = (QCIF, CIF, CIF4)

# Layer ladder (3 x 4 x 4), also the dyadic ladder of the discrete optimizer.
LAYER_S = (QCIF, CIF, CIF4)
LAYER_T = (3.75, 7.5, 15.0, 30.0)
LAYER_Q = (64.0, 40.0, 26.0, 16.0)
DYADIC_Q_RANGE = (16.0, 104.0)

# Relative noise levels of model_build logs.
BUILD_NOISES = (0.0, 0.005, 0.01, 0.03)
BUILD_POOL = 32
# Finer ordering lattice: each axis gets a seeded size in this range, with
# stepsizes kept at or below 104 (QP 44.5), inside the quality model's range.
FINE_AXIS = (8, 24)
FINE_Q_MAX = 104.0

ADAPT_GRIDS = (32, 64, 128)
# The adapter serves one stream per (grid, dyadic) pair, so half the streams
# also solve on the dyadic ladder. Each tick decides for every stream, which
# keeps the tick cost unimodal: a median over single decisions would sit on
# the boundary between equally common cost classes and jump between them.
ADAPT_STREAMS = tuple((grid, dyadic) for dyadic in (False, True) for grid in ADAPT_GRIDS)
ADAPT_TICKS = 100
ADAPT_BUDGET_FRAC = (0.02, 1.0)
ADAPT_WALK_SIGMA = 0.15

CLI_INSTANCES = 3
CLI_NOISE = 0.01

# One stream per workload, so adding a draw to one leaves the others alone.
_STREAMS = {"cli_oneshot": 1, "adapt_stream": 2, "model_build": 3}


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAMS[workload]])


def rate_model(params, q, s, t):
    """The paper's rate surface: r_max (q/q_min)^-a (t/t_max)^b (s/s_max)^c."""
    a, b, c, r_max = params
    q_min, s_max, t_max = REF
    return r_max * (q / q_min) ** -a * (t / t_max) ** b * (s / s_max) ** c


def encode_log_rows(params, noise: float, rng, drop_anchor: bool = False):
    """(q, s, t, rate) rows over the encode ladder with multiplicative
    gaussian noise. ``drop_anchor`` removes the row at the reference point,
    which leaves a log only the joint fit can use."""
    rows = []
    for q in GRID_Q:
        for t in GRID_T:
            for s in GRID_S:
                rate = float(rate_model(params, q, s, t))
                if noise:
                    rate *= 1.0 + noise * float(rng.standard_normal())
                if drop_anchor and (q, s, t) == REF:
                    continue
                rows.append((q, s, t, rate))
    return rows


def write_log_csv(path: Path, rows) -> None:
    # Frame size is width*height; a 1-pixel-high frame keeps it exact.
    lines = ["q,width,height,fps,rate_kbps"]
    lines += [f"{q!r},{s!r},1,{t!r},{rate!r}" for q, s, t, rate in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def write_json(path: Path, doc) -> None:
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def model_doc(sequence: str, scenario: str) -> dict:
    a, b, c, r_max = RATE_TABLES[scenario][sequence]
    alpha_q, alpha_s_tilde, alpha_t = QUALITY_TABLE[sequence]
    return {
        "scenario": f"{sequence}-{scenario}",
        "ref": {"q_min": REF[0], "s_max": REF[1], "t_max": REF[2]},
        "rate": {"a": a, "b": b, "c": c, "r_max": r_max},
        "quality": {"alpha_q": alpha_q, "alpha_s_tilde": alpha_s_tilde, "alpha_t": alpha_t},
    }


def feature_doc(rng) -> dict:
    return {
        "mu_dfd": float(rng.uniform(4.0, 10.0)),
        "sigma_mvm": float(rng.uniform(0.5, 3.0)),
        "sigma_mda": float(rng.uniform(0.5, 1.2)),
    }


def _pick(rng, values):
    return values[int(rng.integers(len(values)))]


def cli_inputs(seed: int, workdir: Path) -> list[dict]:
    """Files for the cli_oneshot workload: per instance an encode log, a
    model document, feasible sets, layer levels and a feature record, plus
    the scalar arguments of each subcommand."""
    rng = rng_for("cli_oneshot", seed)
    instances = []
    for k in range(CLI_INSTANCES):
        sequence, scenario = _pick(rng, SEQUENCES), _pick(rng, SCENARIOS)
        params = RATE_TABLES[scenario][sequence]
        paths = {name: workdir / f"cli{k}-{name}" for name in
                 ("log.csv", "model.json", "sets.json", "levels.json", "features.json")}
        rows = encode_log_rows(params, CLI_NOISE, rng)
        write_log_csv(paths["log.csv"], rows)
        write_json(paths["model.json"], model_doc(sequence, scenario))
        write_json(paths["sets.json"], {
            "s_values": list(LAYER_S), "t_values": list(LAYER_T), "q_range": list(DYADIC_Q_RANGE),
        })
        write_json(paths["levels.json"], {
            "s_values": list(LAYER_S), "t_values": list(LAYER_T), "q_levels": list(LAYER_Q),
        })
        features = feature_doc(rng)
        write_json(paths["features.json"], features)
        instances.append({
            "sequence": sequence,
            "scenario": scenario,
            "paths": {name: str(p) for name, p in paths.items()},
            "rows": rows,
            "features": features,
            "sweep_q": float(_pick(rng, GRID_Q)),
            "budget": float(params[3] * rng.uniform(0.05, 1.0)),
            # The dyadic ladder stays feasible down to about 0.01 r_max.
            "dyadic_budget": float(params[3] * rng.uniform(0.2, 1.0)),
            "predictor": _pick(rng, ("SVC1", "SL2")),
        })
    return instances


def build_inputs(seed: int, workdir: Path) -> list[dict]:
    """The model_build log pool. Entry k has noise BUILD_NOISES[(k // 4) % 4]
    and drops its anchor row when k % 4 == 3, so every (noise, anchor)
    combination appears and exactly a quarter of the logs lack anchors."""
    rng = rng_for("model_build", seed)
    pool = []
    for k in range(BUILD_POOL):
        sequence, scenario = _pick(rng, SEQUENCES), _pick(rng, SCENARIOS)
        noise = BUILD_NOISES[(k // 4) % len(BUILD_NOISES)]
        drop_anchor = k % 4 == 3
        params = RATE_TABLES[scenario][sequence]
        path = workdir / f"build{k:02d}.csv"
        write_log_csv(path, encode_log_rows(params, noise, rng, drop_anchor))
        pool.append({
            "sequence": sequence,
            "scenario": scenario,
            "noise": noise,
            "anchors": not drop_anchor,
            "path": str(path),
            "features": feature_doc(rng),
            "predictor": _pick(rng, ("SVC1", "SL2")),
            "fine_shape": tuple(int(v) for v in rng.integers(FINE_AXIS[0], FINE_AXIS[1] + 1, 3)),
        })
    return pool


def fine_lattice(shape):
    """(s_levels, t_levels, q_levels) of a finer ordering lattice."""
    n_s, n_t, n_q = shape
    q_min, s_max, t_max = REF
    return (
        tuple(float(v) for v in np.geomspace(s_max / 16.0, s_max, n_s)),
        tuple(float(v) for v in np.geomspace(t_max / 16.0, t_max, n_t)),
        tuple(float(v) for v in np.geomspace(FINE_Q_MAX, q_min, n_q)),
    )


def adapt_rounds(seed: int):
    """Endless rounds of stream-adapter sessions, one session per stream in
    ADAPT_STREAMS and ADAPT_TICKS budgets each. A session draws its sequence
    and scenario; its budgets follow a log random walk reflected into
    ADAPT_BUDGET_FRAC * r_max."""
    rng = rng_for("adapt_stream", seed)
    lo, hi = (float(np.log(v)) for v in ADAPT_BUDGET_FRAC)
    while True:
        sessions = []
        for grid, dyadic in ADAPT_STREAMS:
            sequence, scenario = _pick(rng, SEQUENCES), _pick(rng, SCENARIOS)
            r_max = RATE_TABLES[scenario][sequence][3]
            x = float(rng.uniform(lo, hi))
            budgets = []
            for _ in range(ADAPT_TICKS):
                x += ADAPT_WALK_SIGMA * float(rng.standard_normal())
                if x > hi:
                    x = 2 * hi - x
                if x < lo:
                    x = 2 * lo - x
                budgets.append(r_max * float(np.exp(x)))
            sessions.append({
                "sequence": sequence,
                "scenario": scenario,
                "grid": grid,
                "dyadic": dyadic,
                "budgets": budgets,
            })
        yield sessions
