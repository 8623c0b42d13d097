"""File formats consumed and produced by the command-line front end.

Encode logs are CSV with a header; model documents and optimizer configs are
JSON. Frame sizes may be given as pixel counts or as the format names qcif,
cif and 4cif.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

from .errors import InvalidParameterError
from .fitting import EncodeLog, RateSample
from .models import (
    FRAME_SIZE_NAMES,
    QrModel,
    QualityParams,
    RateParams,
    ResolutionRef,
    Star,
    _check,
    stepsize_from_qp,
)
from .optimizer import FeasibleSets

_REQUIRED_LOG_COLUMNS = ("width", "height", "fps", "rate_kbps")


def parse_frame_size(value) -> float:
    """Pixels per frame from a number or a named format (qcif, cif, 4cif)."""
    if isinstance(value, str):
        name = value.strip().lower()
        if name in FRAME_SIZE_NAMES:
            return FRAME_SIZE_NAMES[name]
        try:
            value = float(name)
        except ValueError:
            raise InvalidParameterError(f"unknown frame size {value!r}") from None
    return _check("frame size", value)


def _parse_float(row_num: int, column: str, raw: str) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise InvalidParameterError(
            f"line {row_num}: column {column!r} is not numeric: {raw!r}"
        ) from None


def read_encode_log(path) -> tuple[EncodeLog, list[str]]:
    """Parse a CSV encode log.

    The header must name width, height, fps and rate_kbps plus a stepsize
    column: either q (stepsize) or qp (quantization parameter). When both are
    present qp wins, with a warning, since qp is what encoders log. Returns
    the log and any warnings.
    """
    path = Path(path)
    fieldnames, rows = _read_csv(path)
    if fieldnames is None:
        raise InvalidParameterError(f"{path}: empty file, expected a CSV header")
    columns = [name.strip() for name in fieldnames]
    missing = [c for c in _REQUIRED_LOG_COLUMNS if c not in columns]
    if missing:
        raise InvalidParameterError(f"{path}: line 1: missing columns {missing}")
    has_q = "q" in columns
    has_qp = "qp" in columns
    if not has_q and not has_qp:
        raise InvalidParameterError(f"{path}: line 1: need a 'q' or 'qp' column")

    warnings: list[str] = []
    if has_q and has_qp:
        warnings.append("log has both 'q' and 'qp' columns; using 'qp'")

    samples: list[RateSample] = []
    for num, row in rows:
        row = {k.strip(): (v.strip() if isinstance(v, str) else v) for k, v in row.items() if k}
        if has_qp:
            q = stepsize_from_qp(_parse_float(num, "qp", row.get("qp")))
        else:
            q = _parse_float(num, "q", row.get("q"))
        width = _parse_float(num, "width", row.get("width"))
        height = _parse_float(num, "height", row.get("height"))
        fps = _parse_float(num, "fps", row.get("fps"))
        rate = _parse_float(num, "rate_kbps", row.get("rate_kbps"))
        try:
            star = Star(q=q, s=width * height, t=fps)
            samples.append(RateSample(star=star, rate=rate, tag=row.get("label", "") or ""))
        except InvalidParameterError as exc:
            raise InvalidParameterError(f"{path}: line {num}: {exc}") from None
    if not samples:
        raise InvalidParameterError(f"{path}: no data rows")
    return EncodeLog.from_samples(samples), warnings


@dataclass(frozen=True)
class ModelFile:
    """A JSON model document: reference resolutions plus any of the three
    parameter sets."""

    ref: ResolutionRef
    scenario: str = ""
    rate: RateParams | None = None
    quality: QualityParams | None = None
    qr: QrModel | None = None


def model_to_dict(model: ModelFile) -> dict:
    doc: dict = {
        "scenario": model.scenario,
        "ref": {
            "q_min": model.ref.q_min,
            "s_max": model.ref.s_max,
            "t_max": model.ref.t_max,
        },
    }
    if model.rate is not None:
        p = model.rate
        doc["rate"] = {"a": p.a, "b": p.b, "c": p.c, "r_max": p.r_max}
    if model.quality is not None:
        p = model.quality
        doc["quality"] = {
            "alpha_q": p.alpha_q,
            "alpha_s_tilde": p.alpha_s_tilde,
            "alpha_t": p.alpha_t,
        }
    if model.qr is not None:
        doc["qr"] = {"kappa": model.qr.kappa, "r_max": model.qr.r_max}
    return doc


def model_from_dict(doc: dict) -> ModelFile:
    try:
        ref_doc = doc["ref"]
        ref = ResolutionRef(
            q_min=float(ref_doc["q_min"]),
            s_max=parse_frame_size(ref_doc["s_max"]),
            t_max=float(ref_doc["t_max"]),
        )
        rate = quality = qr = None
        if "rate" in doc:
            r = doc["rate"]
            rate = RateParams(
                a=float(r["a"]), b=float(r["b"]), c=float(r["c"]),
                r_max=float(r["r_max"]), ref=ref,
            )
        if "quality" in doc:
            qd = doc["quality"]
            quality = QualityParams(
                alpha_q=float(qd["alpha_q"]),
                alpha_s_tilde=float(qd["alpha_s_tilde"]),
                alpha_t=float(qd["alpha_t"]),
                ref=ref,
            )
        if "qr" in doc:
            q = doc["qr"]
            qr = QrModel(kappa=float(q["kappa"]), r_max=float(q["r_max"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameterError(f"malformed model document: {exc}") from None
    return ModelFile(ref=ref, scenario=str(doc.get("scenario", "")), rate=rate, quality=quality, qr=qr)


def read_model_file(path) -> ModelFile:
    doc = _read_config(path)
    try:
        return model_from_dict(doc)
    except InvalidParameterError as exc:
        raise InvalidParameterError(f"{path}: {exc}") from None


def write_model_file(path, model: ModelFile) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), indent=2, sort_keys=True) + "\n")


def read_sets_config(path) -> FeasibleSets:
    """Feasible-set config: keys s_values, t_values and q_range."""
    doc = _read_config(path)
    try:
        s_values = tuple(parse_frame_size(v) for v in doc["s_values"])
        t_values = tuple(float(v) for v in doc["t_values"])
        lo, hi = doc["q_range"]
        q_range = (float(lo), float(hi))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameterError(f"{path}: malformed sets config: {exc}") from None
    return FeasibleSets(s_values=s_values, t_values=t_values, q_range=q_range)


def read_levels_config(path) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
    """Layer-level config: keys s_values, t_values (increasing) and q_levels
    (decreasing). Ordering is the caller's contract and is not repaired here.
    """
    doc = _read_config(path)
    try:
        s_levels = tuple(parse_frame_size(v) for v in doc["s_values"])
        t_levels = tuple(float(v) for v in doc["t_values"])
        q_levels = tuple(float(v) for v in doc["q_levels"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameterError(f"{path}: malformed levels config: {exc}") from None
    return s_levels, t_levels, q_levels


def _read_csv(path) -> tuple[list[str] | None, list[tuple[int, dict]]]:
    """Header and rows of a CSV file, each row with the line number it ends on."""
    with Path(path).open(newline="") as handle:
        reader = csv.DictReader(handle)
        try:
            return reader.fieldnames, [(reader.line_num, row) for row in reader]
        except (csv.Error, UnicodeDecodeError) as exc:
            raise InvalidParameterError(f"{path}: line {reader.line_num}: {exc}") from None


def _read_config(path) -> dict:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidParameterError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidParameterError(f"{path}: expected a JSON object")
    return doc
