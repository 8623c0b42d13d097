from __future__ import annotations

import codecs
import csv
import json
import math
import re
from pathlib import Path

import pytest

from sequences import REF, quality_params, rate_params
from starq import (
    CIF4,
    QCIF,
    FeatureVector,
    InvalidParameterError,
    QrModel,
    QualityParams,
    RateParams,
    ResolutionRef,
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
