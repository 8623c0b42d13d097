"""File formats consumed and produced by the command-line front end.

Encode logs are CSV; model documents and configs are JSON; feature records
are either. Document keys are the fields of the dataclass filled, and values
reach its constructor as JSON gave them; only text (CSV cells, frame sizes) is
converted here. An encode log whose cells are all in range is the exception:
the reader checks them once itself and builds trusted instances (see
:func:`read_encode_log`). Errors start with the path, for a CSV record
``line N:``.
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import dataclass, fields
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

from .errors import InvalidParameterError, StarqError
from .models import (
    FRAME_SIZE_NAMES,
    QrModel,
    QualityParams,
    RateParams,
    ResolutionRef,
    Star,
    _check,
    _check_ladder,
    _floats,
    _frozen,
    stepsize_from_qp,
)

# The readers that build these types import them when called, so reading a
# model document never loads fitting, features or the optimizer.
if TYPE_CHECKING:
    from .features import FeatureVector
    from .fitting import EncodeLog
    from .optimizer import FeasibleSets

# Encode-log columns besides the stepsize, which is a q or a qp column.
_LOG_COLUMNS = ("width", "height", "fps", "rate_kbps")
# The optional parameter sections of a model document.
_SECTIONS = {"rate": RateParams, "quality": QualityParams, "qr": QrModel}


def _reader(read):
    # A file reader whose errors all start with the path.
    @functools.wraps(read)
    def wrapper(path):
        path = Path(path)
        try:
            return read(path)
        except StarqError as exc:
            raise type(exc)(f"{path}: {exc}") from None

    return wrapper


def _number(text: str, name: str) -> float:
    # The one text-to-number conversion; range rules belong to the constructors.
    try:
        return float(text)
    except ValueError:
        raise InvalidParameterError(f"{name} must be a number, got {text!r}") from None


def parse_frame_size(value) -> float:
    """Pixels per frame from a number or from text: a number or a named
    format (qcif, cif, 4cif)."""
    if isinstance(value, str):
        name = value.strip().lower()
        if name in FRAME_SIZE_NAMES:
            return FRAME_SIZE_NAMES[name]
        value = _number(name, "a frame size other than qcif, cif or 4cif")
    return _check("frame size", value)


@_reader
def read_encode_log(path) -> tuple[EncodeLog, list[str]]:
    """Parse a CSV encode log.

    The header must name width, height, fps and rate_kbps plus a stepsize
    column: either q (stepsize) or qp (quantization parameter). When both are
    present qp wins, with a warning, since qp is what encoders log. Returns
    the log and any warnings.

    Each row is read once. When every row is of the header's width and its
    cells ``float`` reads as values inside every rule (stepsize, frame size,
    frame rate and rate finite and > 0, tested once over the log), each row
    gives its sample without a second check. Otherwise every row goes the
    checked way, cells stripped and padded, converted in column order and
    built by the checking constructors, whose error it raises, and the log
    is ``EncodeLog.from_samples`` of those samples. Either way the log's
    reference comes from the rows' own minima and maxima, and the rule on
    repeated points runs once.
    """
    from .fitting import EncodeLog, RateSample, _check_repeats, _log_ref

    index, line, width, rows = _read_csv(path)
    if index is None:
        raise InvalidParameterError("empty file, expected a CSV header")
    _check_columns(index, line, _LOG_COLUMNS)
    q_column = "qp" if "qp" in index else "q"
    if q_column not in index:
        raise InvalidParameterError(f"line {line}: need a 'q' or 'qp' column")
    warnings = []
    if q_column == "qp" and "q" in index:
        warnings.append("log has both 'q' and 'qp' columns; using 'qp'")

    from_qp, at_label = q_column == "qp", index.get("label")
    at_values = itemgetter(index[q_column], *(index[c] for c in _LOG_COLUMNS))

    def tag(cells: list[str]) -> str:
        return "" if at_label is None else cells[at_label].strip()

    def checked(num: int, row: list[str]) -> RateSample:
        # Each cell is converted once, in column order: the stepsize (from qp
        # if need be), then the rest, where a cell that is not a number names
        # its column.
        cells = _cells(row, width)
        q_text, *rest = at_values(cells)
        try:
            q = _number(q_text, q_column)
            if from_qp:
                q = stepsize_from_qp(q)
            w, h, fps, rate = map(_number, rest, _LOG_COLUMNS)
            return RateSample(Star(q, w * h, fps), rate, tag(cells))
        except InvalidParameterError as exc:
            _on_line(num, exc)

    # The range rule once over the whole log; a log that breaks it goes the checked
    # way, row by row. Tested per row, it cost about 2% of a model build.
    plain = [_plain(at_values(row), from_qp) if len(row) == width else None for _, row in rows]
    if _floats(plain) is None:  # also a log without data rows
        samples = [checked(num, row) for num, row in rows]
        if not samples:
            raise InvalidParameterError("no data rows")
        return EncodeLog.from_samples(samples), warnings
    points = [(q, s, fps) for q, s, fps, _ in plain]
    samples = tuple([_frozen(RateSample, {"star": _frozen(Star, {"q": q, "s": s, "t": fps}),
                                          "rate": rate, "tag": tag(row)})
                     for (q, s, fps, rate), (_, row) in zip(plain, rows)])
    _check_repeats(points, samples)
    return _frozen(EncodeLog, {"samples": samples, "ref": _log_ref(points)}), warnings


def _plain(cells, from_qp: bool) -> list[float] | None:
    # A row's stepsize, frame size, frame rate and rate from its raw stepsize,
    # width, height, fps and rate cells, if ``float`` reads each; else None.
    try:
        q, w, h, fps, rate = map(float, cells)
        if from_qp:
            q = stepsize_from_qp(q)
    except (ValueError, InvalidParameterError):
        return None
    return [q, w * h, fps, rate]


@dataclass(frozen=True)
class ModelFile:
    """A JSON model document: reference resolutions plus any of the three
    parameter sets, whose rate and quality sections share its reference."""

    ref: ResolutionRef
    scenario: str = ""
    rate: RateParams | None = None
    quality: QualityParams | None = None
    qr: QrModel | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.scenario, str):
            raise InvalidParameterError(f"scenario must be a JSON string, got {self.scenario!r}")
        if any(p is not None and not p.ref.matches(self.ref) for p in (self.rate, self.quality)):
            raise InvalidParameterError("rate and quality sections must use the model's reference")


def _values(obj) -> dict:
    # The document entries of a dataclass: its fields but the shared ``ref``.
    return {f.name: getattr(obj, f.name) for f in fields(obj) if f.name != "ref"}


def model_to_dict(model: ModelFile) -> dict:
    doc = {"scenario": model.scenario, "ref": _values(model.ref)}
    for key in _SECTIONS:
        if getattr(model, key) is not None:
            doc[key] = _values(getattr(model, key))
    return doc


def model_from_dict(doc: dict) -> ModelFile:
    ref = _section(_object(doc), "ref", ResolutionRef)
    parts = {key: _section(doc, key, cls, ref) for key, cls in _SECTIONS.items() if key in doc}
    return ModelFile(ref=ref, scenario=doc.get("scenario", ""), **parts)


def _section(doc: dict, key: str, cls, ref=None):
    # ``cls`` built from the JSON object under ``key``.
    try:
        return _build(cls, _object(doc.get(key)), ref)
    except InvalidParameterError as exc:
        raise InvalidParameterError(f"{key}: {exc}") from None


def _build(cls, doc: dict, ref=None):
    # ``cls`` from the values of a JSON object under its field names; a
    # ``ref`` field takes ``ref``.
    return cls(**{f.name: ref if f.name == "ref" else _field(doc, f.name) for f in fields(cls)})


def _field(doc: dict, key: str):
    # The value under ``key`` as JSON gave it, but frame sizes parsed.
    if key not in doc:
        raise InvalidParameterError(f"missing key {key!r}")
    value = doc[key]
    if key == "s_max":
        return parse_frame_size(value)
    if key == "s_values":
        if not isinstance(value, list):
            raise InvalidParameterError(f"{key} must be a JSON list, got {value!r}")
        return [parse_frame_size(v) for v in value]
    return value


@_reader
def read_model_file(path) -> ModelFile:
    return model_from_dict(_read_json(path))


def write_model_file(path, model: ModelFile) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), indent=2, sort_keys=True) + "\n")


@_reader
def read_sets_config(path) -> FeasibleSets:
    """Feasible-set config: keys s_values, t_values and q_range."""
    from .optimizer import FeasibleSets

    return _build(FeasibleSets, _read_json(path))


@_reader
def read_levels_config(path) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
    """Layer-level config: keys s_values and t_values (strictly increasing)
    and q_levels (strictly decreasing), each checked as a ladder."""
    doc = _read_json(path)
    ladders = (("s_values", True), ("t_values", True), ("q_levels", False))
    return tuple(_check_ladder(key, _field(doc, key), increasing) for key, increasing in ladders)


@_reader
def read_features(path) -> FeatureVector:
    """Content features from a JSON object or from the first record of a CSV
    file, under the keys mu_dfd, sigma_mvm and sigma_mda."""
    from .features import FeatureVector

    if path.suffix.lower() != ".csv":
        return _build(FeatureVector, _read_json(path))
    index, line, width, rows = _read_csv(path)
    names = [f.name for f in fields(FeatureVector)]
    if index is not None:
        _check_columns(index, line, names)
    if not rows:
        raise InvalidParameterError("no feature records")
    num, row = rows[0]
    row = _cells(row, width)
    try:
        return _build(FeatureVector, {k: _number(row[index[k]], k) for k in names})
    except InvalidParameterError as exc:
        _on_line(num, exc)


def _read_csv(path: Path) -> tuple[dict[str, int] | None, int, int, list[tuple[int, list[str]]]]:
    # The column of each header name (None for a file of blank lines), the
    # header's last line and width, and each data row's last line and cells
    # as read. The first row is the header; a leading UTF-8 byte-order mark is
    # dropped. Names are stripped and nameless columns are not read; blank
    # rows are skipped, and a cell past the header must be empty once
    # stripped. Every such fault is found before a caller converts a cell.
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(filter(None, reader), None)
            if header is None:
                return None, reader.line_num, 0, []
            index = _named_once((name, i) for i, name in enumerate(map(str.strip, header)) if name)
            header_line, rows, width = reader.line_num, [], len(header)
            for row in reader:
                if row:
                    if len(row) > width and any(map(str.strip, row[width:])):
                        raise InvalidParameterError(f"non-empty cell past column {width}")
                    rows.append((reader.line_num, row))
        except (csv.Error, InvalidParameterError) as exc:
            _on_line(reader.line_num, exc)
        except UnicodeDecodeError as exc:
            raise InvalidParameterError(f"not UTF-8: {exc}") from None
    return index, header_line, width, rows


def _check_columns(index: dict[str, int], line: int, names) -> None:
    # Raises for the ``names`` the CSV header ``index`` lacks, on the header's ``line``.
    missing = [name for name in names if name not in index]
    if missing:
        raise InvalidParameterError(f"line {line}: missing columns {missing}")


def _on_line(num: int, exc: Exception) -> NoReturn:
    # ``exc``, raised while a CSV record was read, as an input error on its last line ``num``.
    raise InvalidParameterError(f"line {num}: {exc}") from None


def _cells(row: list[str], width: int) -> list[str]:
    # A CSV row's cells stripped, a short row padded with empty cells.
    cells = list(map(str.strip, row))
    return cells + [""] * (width - len(cells))


def _read_json(path: Path) -> dict:
    try:
        doc = json.loads(path.read_text(encoding="utf-8-sig"), object_pairs_hook=_named_once)
    except (ValueError, RecursionError) as exc:  # not UTF-8 or JSON, too deep, or a name given twice
        raise InvalidParameterError(f"invalid JSON: {exc}") from None
    return _object(doc)


def _named_once(pairs) -> dict:
    # The (name, value) pairs of a JSON object or a CSV header, each name once.
    doc = {}
    for name, value in pairs:
        if name in doc:
            raise InvalidParameterError(f"{name!r} is named twice")
        doc[name] = value
    return doc


def _object(doc) -> dict:
    # ``doc`` if it is a JSON object.
    if not isinstance(doc, dict):
        raise InvalidParameterError(f"expected a JSON object, got {type(doc).__name__}")
    return doc
