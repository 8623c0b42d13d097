from __future__ import annotations

import json
import math

import pytest

from sequences import REF, rate_params
from starq import CIF4, QCIF, InvalidParameterError, QrModel, QualityParams, RateParams
from starq.fileio import (
    ModelFile,
    model_from_dict,
    model_to_dict,
    parse_frame_size,
    read_encode_log,
    read_levels_config,
    read_model_file,
    read_sets_config,
    write_model_file,
)


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

    def test_label_column_kept(self, tmp_path):
        path = write(
            tmp_path,
            "log.csv",
            "q,width,height,fps,rate_kbps,label\n16,704,576,30,2379,city\n",
        )
        log, _ = read_encode_log(path)
        assert log.samples[0].tag == "city"


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

    def test_missing_fields(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            read_model_file(write(tmp_path, "model.json", json.dumps({"rate": {"a": 1.0}})))


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
