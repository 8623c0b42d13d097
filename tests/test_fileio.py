from __future__ import annotations

import codecs
import csv
import io
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sequences import REF, quality_params, rate_params
from starq import (
    CIF4,
    QCIF,
    EncodeLog,
    FeatureVector,
    InvalidParameterError,
    QrModel,
    QualityParams,
    RateParams,
    RateSample,
    ResolutionRef,
    Star,
    StarqError,
    stepsize_from_qp,
)
from starq.cli import main
from starq.fileio import (
    ModelFile,
    model_from_dict,
    model_to_dict,
    parse_frame_size,
    read_encode_log,
    read_features,
    read_levels_config,
    read_model_file,
    read_sets_config,
    write_model_file,
)


MISSING = object()
README = Path(__file__).resolve().parent.parent / "README.md"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestEncodeLogCsv:
    def test_q_column(self, tmp_path):
        path = write(
            tmp_path,
            "log.csv",
            "q,width,height,fps,rate_kbps\n16,704,576,30,2379\n64,704,576,30,344.4\n",
        )
        log, warnings = read_encode_log(path)
        assert warnings == []
        assert len(log.samples) == 2
        assert log.samples[0].star.s == 704 * 576
        assert log.ref.q_min == 16.0

    def test_qp_column_converted(self, tmp_path):
        path = write(
            tmp_path,
            "log.csv",
            "qp,width,height,fps,rate_kbps\n28,704,576,30,2379\n40,704,576,30,344.4\n",
        )
        log, warnings = read_encode_log(path)
        assert warnings == []
        assert log.samples[0].star.q == pytest.approx(16.0, rel=1e-12)
        assert log.samples[1].star.q == pytest.approx(64.0, rel=1e-12)

    def test_qp_takes_precedence_with_warning(self, tmp_path):
        path = write(
            tmp_path,
            "log.csv",
            "q,qp,width,height,fps,rate_kbps\n999,28,704,576,30,2379\n",
        )
        log, warnings = read_encode_log(path)
        assert len(warnings) == 1
        assert log.samples[0].star.q == pytest.approx(16.0, rel=1e-12)

    def test_empty_file(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            read_encode_log(write(tmp_path, "log.csv", ""))

    def test_missing_columns_named(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="missing columns"):
            read_encode_log(write(tmp_path, "log.csv", "q,width,height\n16,704,576\n"))

    def test_bad_value_names_line(self, tmp_path):
        path = write(
            tmp_path,
            "log.csv",
            "q,width,height,fps,rate_kbps\n16,704,576,30,2379\n64,704,oops,30,344\n",
        )
        with pytest.raises(InvalidParameterError, match="line 3"):
            read_encode_log(path)

    def test_bad_value_after_blank_rows_names_its_own_line(self, tmp_path):
        path = write(tmp_path, "log.csv", "q,width,height,fps,rate_kbps\n\n\n16,704,576,x,1\n")
        with pytest.raises(InvalidParameterError, match="^.*: line 4: fps must be a number"):
            read_encode_log(path)

    @pytest.mark.parametrize(
        "row",
        ["64,x,576,30,344", "64,704,576", "1e10,704,576,30,344"],
        ids=["non-numeric", "short-row", "huge-qp"],
    )
    def test_row_errors_start_with_path_and_line(self, tmp_path, row):
        text = f"qp,width,height,fps,rate_kbps\n28,704,576,30,2379\n{row}\n"
        path = write(tmp_path, "log.csv", text)
        with pytest.raises(InvalidParameterError) as err:
            read_encode_log(path)
        assert str(err.value).startswith(f"{path}: line 3: ")

    def test_label_column_kept(self, tmp_path):
        path = write(
            tmp_path,
            "log.csv",
            "q,width,height,fps,rate_kbps,label\n16,704,576,30,2379,city\n",
        )
        log, _ = read_encode_log(path)
        assert log.samples[0].tag == "city"

    def test_needs_a_stepsize_column(self, tmp_path):
        path = write(tmp_path, "log.csv", "width,height,fps,rate_kbps\n704,576,30,2379\n")
        with pytest.raises(InvalidParameterError, match="^.*: line 1: need a 'q' or 'qp' column$"):
            read_encode_log(path)

    @pytest.mark.parametrize(
        "header,name",
        [("q,width,height,fps,rate_kbps,rate_kbps", "rate_kbps"),
         (" q,q,width,height,fps,rate_kbps", "q"),
         ("label,q,width,height,fps,rate_kbps,label ", "label")],
        ids=["repeated", "strips-alike", "optional-column"],
    )
    def test_name_given_twice(self, tmp_path, header, name):
        path = write(tmp_path, "log.csv", f"{header}\n16,704,576,30,100,5\n")
        with pytest.raises(InvalidParameterError) as err:
            read_encode_log(path)
        assert str(err.value) == f"{path}: line 1: {name!r} is named twice"

    def test_non_empty_cell_past_the_header(self, tmp_path):
        text = "q,width,height,fps,rate_kbps\n16,704,576,30,2379\n16,704,576,30,2,383.1\n"
        path = write(tmp_path, "log.csv", text)
        with pytest.raises(InvalidParameterError) as err:
            read_encode_log(path)
        assert str(err.value) == f"{path}: line 3: non-empty cell past column 5"

    def test_nameless_columns_not_read(self, tmp_path):
        text = "q,,width,height, ,fps,rate_kbps\n16,x,704,576,y,30,2379\n"
        log, _ = read_encode_log(write(tmp_path, "log.csv", text))
        assert [sample.rate for sample in log.samples] == [2379.0]

    def test_row_of_only_commas_is_not_blank(self, tmp_path, capsys):
        text = "q,width,height,fps,rate_kbps\n16,704,576,30,2379\n,,,,\n64,704,576,30,344.4\n"
        path = write(tmp_path, "log.csv", text)
        assert main(["fit", str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {path}: line 3: q must be a number, got ''\n")

    def test_empty_cells_past_the_header_allowed(self, tmp_path):
        text = "q,width,height,fps,rate_kbps\n16,704,576,30,2379,\n64,704,576,30,344.4, ,\n"
        log, _ = read_encode_log(write(tmp_path, "log.csv", text))
        assert [sample.rate for sample in log.samples] == [2379.0, 344.4]
        # Such rows go the checked way, which builds the log from its samples.
        assert log == EncodeLog.from_samples(log.samples)
        assert hash(log) == hash(EncodeLog.from_samples(log.samples))

    @pytest.mark.parametrize("blanks", [0, 2])
    def test_csv_error_names_the_line_the_reader_stopped_on(self, tmp_path, blanks):
        # A field over csv's size limit on line 3, after any blank lines.
        limit = csv.field_size_limit()
        head = "q,width,height,fps,rate_kbps\n16,704,576,30,2379\n" + "\n" * blanks
        path = write(tmp_path, "log.csv", head + "16," + "7" * (limit + 1) + ",1,30,1\n")
        with pytest.raises(InvalidParameterError) as err:
            read_encode_log(path)
        assert str(err.value) == f"{path}: line {3 + blanks}: field larger than field limit ({limit})"

    def test_blank_lines_before_the_header_skipped(self, tmp_path):
        path = write(tmp_path, "log.csv", "\nq,width\n1,2\n")
        with pytest.raises(InvalidParameterError) as err:
            read_encode_log(path)
        assert str(err.value) == f"{path}: line 2: missing columns ['height', 'fps', 'rate_kbps']"
        text = "\n\r\nq,width,height,fps,rate_kbps\n16,704,576,x,2379\n"
        with pytest.raises(InvalidParameterError, match="^.*: line 4: fps must be a number"):
            read_encode_log(write(tmp_path, "log.csv", text))

    @pytest.mark.parametrize(
        "header,message",
        [('"wid\nth",q', "missing columns ['width', 'height', 'fps', 'rate_kbps']"),
         ('width,height,fps,rate_kbps,"la\nbel"', "need a 'q' or 'qp' column")],
        ids=["missing-columns", "no-stepsize"],
    )
    def test_header_faults_name_the_line_the_header_ends_on(self, tmp_path, header, message):
        path = write(tmp_path, "log.csv", f"{header}\n")
        with pytest.raises(InvalidParameterError) as err:
            read_encode_log(path)
        assert str(err.value) == f"{path}: line 2: {message}"

    def test_bytes_not_utf8_name_no_line(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_bytes(b"q,width,height,fps,rate_kbps\n16,\xff,1,30,1\n")
        with pytest.raises(InvalidParameterError) as err:
            read_encode_log(path)
        assert str(err.value).startswith(f"{path}: not UTF-8: 'utf-8' codec can't decode byte 0xff")


LOG_HEADER = "q,width,height,fps,rate_kbps"
LOG_ROW = {"q": "16", "width": "704", "height": "576", "fps": "30", "rate_kbps": "2379"}
GOOD_ROW = ",".join(LOG_ROW.values())


def log_text(*rows: str, header: str = LOG_HEADER) -> str:
    return "".join(f"{line}\n" for line in (header, *rows))


def bad_cell(column: str, cell: str, message: str, header: str = LOG_HEADER):
    # A one-row log whose ``column`` holds ``cell``, and its full error.
    row = ",".join(cell if c == column else v for c, v in LOG_ROW.items())
    if header != LOG_HEADER:
        row = row.replace(LOG_ROW["q"], cell, 1) if column == "qp" else row
    return pytest.param(log_text(row, header=header), InvalidParameterError, f"line 2: {message}",
                        id=f"{column}-{cell or 'empty'}")


QP_HEADER = LOG_HEADER.replace("q,", "qp,", 1)
# The checked value a bad cell of each column reaches: the frame size is
# width * height, so -1 there reads -576 or -704.
RANGE_VALUES = {
    "q": ("q", "0.0", "-1.0"), "width": ("s", "0.0", "-576.0"), "height": ("s", "0.0", "-704.0"),
    "fps": ("t", "0.0", "-1.0"), "rate_kbps": ("rate", "0.0", "-1.0"),
}
CSV_LIMIT = csv.field_size_limit()

# read_encode_log's error for each kind of bad log: the type and the full
# message after ``<path>: ``, and which fault decides where two meet.
READER_ERRORS = [
    *(bad_cell(column, cell, f"{column} must be a number, got {cell!r}")
      for column in LOG_ROW for cell in ("x", "")),
    *(bad_cell(column, cell, f"{rule} must be a finite real > 0, got {got}")
      for column, (rule, zero, minus_one) in RANGE_VALUES.items()
      for cell, got in (("0", zero), ("-1", minus_one), ("nan", "nan"), ("inf", "inf"))),
    bad_cell("qp", "x", "qp must be a number, got 'x'", QP_HEADER),
    bad_cell("qp", "", "qp must be a number, got ''", QP_HEADER),
    bad_cell("qp", "nan", "qp must be a finite real, got nan", QP_HEADER),
    bad_cell("qp", "inf", "qp must be a finite real, got inf", QP_HEADER),
    bad_cell("qp", "1e10", "qp 10000000000.0 gives a stepsize beyond the float range", QP_HEADER),
    bad_cell("qp", "-1e10", "qp -10000000000.0 gives a stepsize that underflows to 0", QP_HEADER),
    pytest.param(log_text("16,704,576"), InvalidParameterError,
                 "line 2: fps must be a number, got ''", id="short-row"),
    pytest.param(log_text(f"{GOOD_ROW},5"), InvalidParameterError,
                 "line 2: non-empty cell past column 5", id="long-row"),
    pytest.param(log_text(), InvalidParameterError, "no data rows", id="header-only"),
    pytest.param(log_text(GOOD_ROW, "16,704,576,30,2380"), InvalidParameterError,
                 "conflicting rates for duplicate operating point (16.0, 405504.0, 30.0): "
                 "2379.0 vs 2380.0", id="conflicting-duplicates"),
    pytest.param(log_text("28,704,576,30,2379", "28.0,704,576,30,2380", header=QP_HEADER),
                 InvalidParameterError,
                 "conflicting rates for duplicate operating point (16.0, 405504.0, 30.0): "
                 "2379.0 vs 2380.0", id="conflicting-duplicates-qp"),
    # Which fault decides: the read phase (a later line's past-header cell,
    # csv error or undecodable byte) before any conversion; then rows in
    # order, each cell in column order before its range rules; duplicates last.
    pytest.param(log_text("x,704,576,30,2379", f"{GOOD_ROW},5"), InvalidParameterError,
                 "line 3: non-empty cell past column 5", id="past-header-later-wins"),
    pytest.param(log_text("x,704,576,30,2379", "16," + "7" * (CSV_LIMIT + 1) + ",1,30,1"),
                 InvalidParameterError, f"line 3: field larger than field limit ({CSV_LIMIT})",
                 id="csv-error-later-wins"),
    pytest.param(log_text("x,704,576,30,2379").encode() + b"16,\xff,576,30,1\n",
                 InvalidParameterError, "not UTF-8: 'utf-8' codec can't decode byte 0xff in "
                 "position 50: invalid start byte", id="not-utf8-later-wins"),
    pytest.param(log_text("0,704,576,30,2379", "x,704,576,30,2379"), InvalidParameterError,
                 "line 2: q must be a finite real > 0, got 0.0", id="range-before-later-parse"),
    pytest.param(log_text("0,x,576,30,2379"), InvalidParameterError,
                 "line 2: width must be a number, got 'x'", id="parse-before-range-in-row"),
    pytest.param(log_text("1e10,x,576,30,2379", header=QP_HEADER), InvalidParameterError,
                 "line 2: qp 10000000000.0 gives a stepsize beyond the float range",
                 id="qp-before-later-cells"),
    pytest.param(log_text(GOOD_ROW, "16,704,576,30,2380", "16,704,576,0,1"), InvalidParameterError,
                 "line 4: t must be a finite real > 0, got 0.0", id="range-before-duplicates"),
]


@pytest.mark.parametrize("text,error,message", READER_ERRORS)
def test_read_encode_log_errors_pinned(tmp_path, text, error, message):
    path = tmp_path / "log.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(StarqError) as err:
        read_encode_log(path)
    assert (type(err.value), str(err.value)) == (error, f"{path}: {message}")


@pytest.mark.parametrize("qp,q", [("0", 2.0 ** (-4 / 6)), ("-1", 2.0 ** (-5 / 6))])
def test_qp_at_or_below_zero_is_a_stepsize(tmp_path, qp, q):
    path = write(tmp_path, "log.csv", log_text(f"{qp},704,576,30,2379", header=QP_HEADER))
    log, _ = read_encode_log(path)
    assert log.samples[0].star == Star(q, 405504.0, 30.0)


def plain_read(path: Path):
    """read_encode_log by the plain route: every row read by ``csv``, then
    each cell stripped and converted by ``float`` and each sample built by
    the checked constructors, then ``EncodeLog.from_samples``. The header
    must name the columns; errors are raised without the path."""
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        records = [(reader.line_num, row) for row in reader]
    records = [(num, [cell.strip() for cell in row]) for num, row in records if row]
    (header_line, header), *records = records
    width = len(header)
    for num, cells in records:
        if any(cells[width:]):
            raise InvalidParameterError(f"line {num}: non-empty cell past column {width}")
    column = {name: i for i, name in enumerate(header) if name}
    stepsize = "qp" if "qp" in column else "q"
    warnings = ["log has both 'q' and 'qp' columns; using 'qp'"] if len({"q", "qp"} & set(column)) == 2 else []
    samples = []
    for num, cells in records:
        cells += [""] * (width - len(cells))
        try:
            values = []
            for name in (stepsize, "width", "height", "fps", "rate_kbps"):
                try:
                    values.append(float(cells[column[name]]))
                except ValueError:
                    raise InvalidParameterError(
                        f"{name} must be a number, got {cells[column[name]]!r}") from None
                if name == "qp":
                    values[0] = stepsize_from_qp(values[0])
            q, w, h, t, rate = values
            label = cells[column["label"]] if "label" in column else ""
            samples.append(RateSample(Star(q, w * h, t), rate, label))
        except InvalidParameterError as exc:
            raise InvalidParameterError(f"line {num}: {exc}") from None
    if not samples:
        raise InvalidParameterError("no data rows")
    return EncodeLog.from_samples(samples), warnings


# Text around a cell: Unicode whitespace, which both routes strip, and a
# newline, which the writer quotes. ``float`` alone does not strip the ASCII
# separators \x1c-\x1f, so a row padded with one takes the checked route;
# a log draws its pads from one of these sets, so most rows do not.
PADS = ([""], [" ", "\t", "\u00a0"],
        [" ", "\t", "\x0b", "\x1c", "\x1f", "\x85", "\u00a0", "\u2003", "\u2028", "\u3000", "\n", ""])
# Cells in range: signs, underscores, exponents, non-ASCII digits; each pool
# holds two values, some written two ways, so points repeat and rates clash.
# A frame rate and a rate near the float maximum are each in range, but a
# row holding both sums past it.
GOOD = {"q": ["16", "+1_6", "26.0"], "qp": ["28", "2_8.0", "-1"],
        "width": ["704", "٧٠٤", "2.5E2"], "height": ["576", "1"],
        "fps": ["30", "3_0", "7.5e0", "1.5e308"], "rate_kbps": ["2379", "2_379.0", "1e2", "1.5e308"]}
# Cells out of range, and cells that are not numbers (a zero-width space is
# not whitespace).
OUT_OF_RANGE = ["0", "-1", "-0.0", "1e-400", "nan", "inf", "-inf", "1e400", "1e10", "-1e10"]
NOT_NUMBERS = ["", "x", "\u200b16", "1__6", "_16", "16_", "0x10", "1,5", '"7"']


@st.composite
def encode_logs(draw):
    """CSV text of an encode log with a well-formed header and any rows. A
    log may have one faulty column, whose cells may be out of range or not
    numbers, and ragged rows; every other cell is in range. Any cell may have
    whitespace around it."""
    columns = draw(st.sampled_from([["q"], ["qp"], ["q", "qp"]]))
    columns += ["width", "height", "fps", "rate_kbps"]
    columns += draw(st.sampled_from([[], ["label"], ["label", ""], ["x"]]))
    columns = draw(st.permutations(columns))
    # A faulty log has one column whose cell, in any row, may be bad.
    faulty = draw(st.sampled_from([*(name for name in columns if name in GOOD), None]))
    pad = st.sampled_from(draw(st.sampled_from(PADS)))
    bad = st.one_of(st.sampled_from(OUT_OF_RANGE), st.floats().map(repr), st.sampled_from(NOT_NUMBERS))
    rows = [[draw(pad) + name + draw(pad) if name else name for name in columns]]
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 7)) == 7:
            rows.append([])  # a blank line
            continue
        row = []
        for name in columns:
            if name not in GOOD:
                cell = draw(st.text(" \tab,\"-\u3000", max_size=4))
            elif name == faulty and draw(st.booleans()):
                cell = draw(bad)
            else:
                cell = draw(st.sampled_from(GOOD[name]))
            row.append(draw(pad) + cell + draw(pad))
        if faulty and draw(st.integers(0, 7)) == 7:  # short, or cells past the header
            row = row[:draw(st.integers(1, len(row)))]
            row += draw(st.lists(st.sampled_from(["", " ", "\t", "5"]), max_size=2))
        rows.append(row)
    out = io.StringIO()
    csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows(rows)
    head = draw(st.sampled_from(["", "\ufeff"])) + draw(st.sampled_from(["", "\n", "\r\n"]))
    return head + out.getvalue()


def read_outcome(read, path):
    try:
        return read(path)
    except StarqError as exc:
        return type(exc), str(exc).removeprefix(f"{path}: ")


class TestReaderMatchesPlainRoute:
    @settings(max_examples=300, deadline=None)
    @given(text=encode_logs())
    def test_read_encode_log_equals_plain_route(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("log") / "log.csv"
        path.write_text(text, encoding="utf-8", newline="")
        got, want = read_outcome(read_encode_log, path), read_outcome(plain_read, path)
        assert got == want and repr(got) == repr(want)
        if type(got[0]) is type:
            return
        (log, _), (plain, _) = got, want
        assert hash(log) == hash(plain)
        assert type(log) is EncodeLog and type(log.samples) is tuple
        assert [type(v) for v in vars(log.ref).values()] == [float] * 3
        for sample in log.samples:
            assert (type(sample), type(sample.star), type(sample.rate), type(sample.tag)) == (
                RateSample, Star, float, str)
            assert [type(v) for v in vars(sample.star).values()] == [float] * 3


class TestFrameSizes:
    @pytest.mark.parametrize(
        "text,expected",
        [("qcif", QCIF), ("CIF", 352 * 288), ("4cif", CIF4), ("101376", 101376.0), (25344, 25344.0)],
    )
    def test_accepted_forms(self, text, expected):
        assert parse_frame_size(text) == float(expected)

    def test_rejects_unknown(self):
        with pytest.raises(InvalidParameterError):
            parse_frame_size("8k-ish")
        with pytest.raises(InvalidParameterError):
            parse_frame_size(-5)


class TestModelFiles:
    def test_round_trip_preserves_every_digit(self, tmp_path):
        model = ModelFile(
            ref=REF,
            scenario="city",
            rate=rate_params("city"),
            quality=QualityParams(alpha_q=7.25, alpha_s_tilde=3.52, alpha_t=4.10, ref=REF),
            qr=QrModel(kappa=5.058, r_max=2379.0),
        )
        path = tmp_path / "model.json"
        write_model_file(path, model)
        loaded = read_model_file(path)
        assert loaded == model

    def test_round_trip_full_precision_floats(self):
        ugly = ModelFile(
            ref=REF,
            rate=RateParams(
                a=1.0 / 3.0, b=0.1 + 0.2, c=math.pi / 7, r_max=2379.000000001, ref=REF
            ),
        )
        assert model_from_dict(json.loads(json.dumps(model_to_dict(ugly)))) == ugly

    def test_partial_documents(self, tmp_path):
        model = ModelFile(ref=REF, qr=QrModel(kappa=3.0, r_max=100.0))
        path = tmp_path / "qr.json"
        write_model_file(path, model)
        loaded = read_model_file(path)
        assert loaded.rate is None and loaded.quality is None
        assert loaded.qr == model.qr

    def test_malformed_json(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            read_model_file(write(tmp_path, "model.json", "{not json"))

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("rate", "a", "1.5"),
            ("rate", "b", True),
            ("rate", "r_max", 10**400),
            ("quality", "alpha_q", None),
            ("qr", "kappa", [5.0]),
            ("ref", "t_max", "30"),
            ("ref", "s_max", False),
        ],
        ids=["string", "bool", "huge-int", "null", "list", "ref-string", "frame-size-bool"],
    )
    def test_values_must_be_json_numbers(self, tmp_path, section, key, value):
        qr = QrModel(5.0, 2379.0)
        doc = model_to_dict(ModelFile(REF, rate=rate_params("city"), quality=quality_params("city"), qr=qr))
        doc[section][key] = value
        path = write(tmp_path, "model.json", json.dumps(doc))
        with pytest.raises(InvalidParameterError) as err:
            read_model_file(path)
        assert str(err.value).startswith(f"{path}: {section}: ")

    @pytest.mark.parametrize("doc", [[1, 2], None, "model"], ids=["list", "null", "string"])
    def test_document_must_be_an_object(self, doc):
        with pytest.raises(InvalidParameterError, match="expected a JSON object"):
            model_from_dict(doc)

    def test_missing_fields(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            read_model_file(write(tmp_path, "model.json", json.dumps({"rate": {"a": 1.0}})))

    @pytest.mark.parametrize("section", ["rate", "quality"])
    def test_sections_share_the_model_reference(self, section):
        # Written under the model's reference, a section on another one
        # would read back re-referenced.
        other = ResolutionRef(q_min=REF.q_min, s_max=REF.s_max, t_max=60.0)
        params = {
            "rate": RateParams(1.0, 1.0, 1.0, 100.0, ref=other),
            "quality": QualityParams(alpha_q=7.25, alpha_s_tilde=3.52, alpha_t=4.10, ref=other),
        }[section]
        with pytest.raises(InvalidParameterError, match="model's reference"):
            ModelFile(ref=REF, **{section: params})

    def test_scenario_defaults_to_empty(self):
        doc = model_to_dict(ModelFile(ref=REF))
        del doc["scenario"]
        assert model_from_dict(doc).scenario == ""

    @pytest.mark.parametrize("value", [None, 3, [1, 2], {"name": "city"}], ids=["null", "number", "list", "object"])
    def test_scenario_must_be_a_json_string(self, tmp_path, value):
        doc = dict(model_to_dict(ModelFile(ref=REF)), scenario=value)
        path = write(tmp_path, "model.json", json.dumps(doc))
        with pytest.raises(InvalidParameterError) as err:
            read_model_file(path)
        assert str(err.value).startswith(f"{path}: scenario must be a JSON string")


class TestConfigs:
    def test_sets_config_with_names(self, tmp_path):
        path = write(
            tmp_path,
            "sets.json",
            json.dumps(
                {"s_values": ["qcif", "cif", "4cif"], "t_values": [3.75, 7.5, 15, 30], "q_range": [16, 104]}
            ),
        )
        sets = read_sets_config(path)
        assert sets.s_values == (float(QCIF), 352.0 * 288.0, float(CIF4))
        assert sets.q_range == (16.0, 104.0)

    def test_levels_config_preserves_order(self, tmp_path):
        path = write(
            tmp_path,
            "levels.json",
            json.dumps(
                {"s_values": ["qcif", "cif", "4cif"], "t_values": [3.75, 7.5, 15, 30], "q_levels": [64, 40, 26, 16]}
            ),
        )
        s_levels, t_levels, q_levels = read_levels_config(path)
        assert q_levels == (64.0, 40.0, 26.0, 16.0)

    def test_malformed_config(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            read_sets_config(write(tmp_path, "sets.json", json.dumps({"s_values": [1]})))

    @pytest.mark.parametrize(
        "reader,key,value",
        [
            (read_sets_config, "s_values", "4"),
            (read_sets_config, "q_range", "19"),
            (read_sets_config, "q_range", [1, 2, 3]),
            (read_sets_config, "t_values", [True, 30]),
            (read_sets_config, "t_values", [15, [30, 60]]),
            (read_sets_config, "q_range", [16, [20]]),
            (read_levels_config, "t_values", "15"),
            (read_levels_config, "t_values", [30, 15]),
            (read_levels_config, "t_values", [15, "30"]),
            (read_levels_config, "q_levels", MISSING),
            (read_levels_config, "q_levels", [64, [16]]),
        ],
        ids=["sets-string-ladder", "sets-string-range", "sets-long-range", "sets-bool",
             "sets-ragged-ladder", "sets-ragged-range", "levels-string-ladder", "levels-unordered",
             "levels-string-element", "levels-missing", "levels-ragged"],
    )
    def test_errors_start_with_path_and_name_the_key(self, tmp_path, reader, key, value):
        doc = {"s_values": [1, 2], "t_values": [15, 30], "q_range": [16, 104], "q_levels": [64, 16]}
        doc[key] = value
        doc = {k: v for k, v in doc.items() if v is not MISSING}
        path = write(tmp_path, "config.json", json.dumps(doc))
        with pytest.raises(InvalidParameterError) as err:
            reader(path)
        assert str(err.value).startswith(f"{path}: ") and key in str(err.value)


class TestFeatures:
    def test_json_and_csv_records_agree(self, tmp_path):
        record = {"mu_dfd": 8, "sigma_mvm": 4, "sigma_mda": 2.5}
        json_path = write(tmp_path, "f.json", json.dumps(record))
        csv_path = write(tmp_path, "f.csv", "name,mu_dfd,sigma_mvm,sigma_mda\ncity,8,4,2.5\n")
        assert read_features(json_path) == read_features(csv_path) == FeatureVector(8.0, 4.0, 2.5)

    @pytest.mark.parametrize(
        "name,text,message",
        [
            ("f.json", json.dumps({"mu_dfd": "8", "sigma_mvm": 4, "sigma_mda": 2}),
             "mu_dfd must be a finite real >= 0, got '8'"),
            ("f.json", json.dumps({"mu_dfd": 8, "sigma_mvm": 4}), "missing key 'sigma_mda'"),
            ("f.csv", "mu_dfd,sigma_mvm,sigma_mda\n8,x,2\n",
             "line 2: sigma_mvm must be a number, got 'x'"),
            ("f.csv", "mu_dfd,sigma_mvm\n8,4\n", "line 1: missing columns ['sigma_mda']"),
            ("f.csv", "\nmu_dfd\n", "line 2: missing columns ['sigma_mvm', 'sigma_mda']"),
            ("f.csv", "mu_dfd,sigma_mvm,sigma_mda\n", "no feature records"),
            ("f.csv", "", "no feature records"),
        ],
        ids=["json-string", "json-missing", "csv-non-numeric", "csv-missing",
             "csv-missing-header-only", "csv-header-only", "csv-empty"],
    )
    def test_errors_start_with_path(self, tmp_path, name, text, message):
        path = write(tmp_path, name, text)
        with pytest.raises(InvalidParameterError) as err:
            read_features(path)
        assert str(err.value) == f"{path}: {message}"


MODEL_TEXT = json.dumps(model_to_dict(ModelFile(REF, scenario="city", rate=rate_params("city"))))


@pytest.mark.parametrize(
    "reader,name,text,key",
    [
        (read_model_file, "model.json", MODEL_TEXT[:-1] + ', "scenario": "crew"}', "scenario"),
        (read_model_file, "model.json",
         MODEL_TEXT.replace('"r_max": 2379.0', '"r_max": 2379.0, "r_max": 5'), "r_max"),
        (read_sets_config, "sets.json",
         '{"s_values": [1, 2], "t_values": [15, 30], "q_range": [16, 104], "t_values": [30]}',
         "t_values"),
        (read_levels_config, "levels.json",
         '{"s_values": [1, 2], "t_values": [15, 30], "q_levels": [64, 16], "q_levels": [16]}',
         "q_levels"),
        (read_features, "f.json", '{"mu_dfd": 8, "sigma_mvm": 4, "sigma_mda": 2, "mu_dfd": 9}',
         "mu_dfd"),
    ],
    ids=["model", "model-section", "sets", "levels", "features"],
)
def test_json_name_given_twice(tmp_path, reader, name, text, key):
    # json.loads alone keeps the last value of a repeated name.
    path = write(tmp_path, name, text)
    with pytest.raises(InvalidParameterError) as err:
        reader(path)
    assert str(err.value) == f"{path}: invalid JSON: {key!r} is named twice"


@pytest.mark.parametrize(
    "reader,name,text",
    [
        (read_encode_log, "log.csv", "q,width,height,fps,rate_kbps\n16,704,576,30,2379\n"),
        (read_features, "f.csv", "mu_dfd,sigma_mvm,sigma_mda\n8,4,2.5\n"),
        (read_features, "f.json", '{"mu_dfd": 8, "sigma_mvm": 4, "sigma_mda": 2.5}'),
        (read_model_file, "model.json", MODEL_TEXT),
    ],
    ids=["log-csv", "features-csv", "features-json", "model"],
)
def test_utf8_byte_order_mark_accepted(tmp_path, reader, name, text):
    # Excel's "CSV UTF-8" starts its files with one.
    path = tmp_path / f"bom-{name}"
    path.write_bytes(codecs.BOM_UTF8 + text.encode())
    assert reader(path) == reader(write(tmp_path, name, text))


def readme_example(label: str) -> str:
    """The first JSON block after the README paragraph that starts with **label**."""
    match = re.search(rf"\*\*{label}\*\*.*?```json\n(.*?)```", README.read_text(), re.S)
    assert match, f"README has no {label} example"
    return match.group(1)


class TestReadmeFormats:
    """The README's File formats section against the readers and the writer."""

    def test_examples_read(self, tmp_path):
        sets = read_sets_config(write(tmp_path, "sets.json", readme_example("Feasible sets")))
        assert sets.s_values == (float(QCIF), 352.0 * 288.0, float(CIF4))
        s_levels, t_levels, q_levels = read_levels_config(
            write(tmp_path, "levels.json", readme_example("Layer levels"))
        )
        assert s_levels == sets.s_values and q_levels == (64.0, 40.0, 26.0, 16.0)
        read_features(write(tmp_path, "features.json", readme_example("Feature record")))
        model = read_model_file(write(tmp_path, "model.json", readme_example("Model document")))
        assert None not in (model.rate, model.quality, model.qr)

    def test_model_example_has_the_written_keys(self, tmp_path):
        full = ModelFile(
            ref=REF, scenario="city", rate=rate_params("city"),
            quality=quality_params("city"), qr=QrModel(kappa=5.058, r_max=2379.0),
        )
        path = tmp_path / "model.json"
        write_model_file(path, full)
        assert read_model_file(path) == full

        def keys(doc):
            return {k: sorted(v) if isinstance(v, dict) else None for k, v in doc.items()}

        example = json.loads(readme_example("Model document"))
        assert keys(json.loads(path.read_text())) == keys(example)
