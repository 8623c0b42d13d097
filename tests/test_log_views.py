"""What an encode log keeps of its own fits.

A log derives its rate columns, its NRQ, NRT and NRS curves and the protocol
fit's seed on first use and keeps them. Whatever was asked of a log before,
each call must give what the same call gives on a fresh log with the same
samples and reference, warnings and errors included, and the kept views must
not show in the log's fields, ``repr``, ``==``, ``hash``, pickles or the model
files written from its fits. A test that patches a fitting internal must fit
a fresh log, as a log's kept seed skips the protocol fit's internals.
"""

from __future__ import annotations

import dataclasses
import pickle
import sys
from concurrent.futures import ThreadPoolExecutor
from threading import Barrier

import pytest

from sequences import REF, rate_params, synthetic_log, without_anchor
from starq import (
    EncodeLog,
    InsufficientDataError,
    RateParams,
    ResolutionRef,
    StarqError,
    fit_rate_params,
    normalize_nrq,
    normalize_nrs,
    normalize_nrt,
)
from starq.fileio import ModelFile, write_model_file

CITY = rate_params("city")
LOG_DOMAIN = "anchor samples missing; joint fit seeded by log-domain regression"

LOGS = {
    "noisy": lambda: synthetic_log(RateParams(a=1.2, b=0.7, c=0.5, r_max=3000.0, ref=REF), 0.02, 5),
    # The exponent search stops at 4, below the generating a = 5.
    "bound-hit": lambda: synthetic_log(dataclasses.replace(CITY, a=5.0)),
    "anchorless": lambda: without_anchor(synthetic_log(CITY, 0.01, 3)),
}

STEPS = {
    "nrq": normalize_nrq,
    "nrt": normalize_nrt,
    "nrs": normalize_nrs,
    "protocol": lambda log: fit_rate_params(log, mode="protocol"),
    "joint": lambda log: fit_rate_params(log, mode="joint"),
}

ORDERS = [
    ("nrq", "nrt", "nrs", "protocol", "joint"),
    ("joint", "protocol"),
    ("protocol", "joint"),
    ("protocol", "protocol"),
    ("joint", "joint"),
    ("nrs", "nrq", "nrs", "nrt", "nrt", "nrq"),
    ("joint", "nrq", "nrt", "nrs", "joint", "protocol", "protocol"),
]


def fresh(log: EncodeLog) -> EncodeLog:
    return EncodeLog(samples=log.samples, ref=log.ref)


def outcome(step: str, log: EncodeLog):
    # The step's result, or the type and message of the error it raised.
    try:
        return STEPS[step](log)
    except StarqError as error:
        return type(error), str(error)


@pytest.mark.parametrize("order", ORDERS, ids="-".join)
@pytest.mark.parametrize("kind", sorted(LOGS))
def test_any_call_order_gives_fresh_log_results(kind, order):
    log = LOGS[kind]()
    for step in order:
        assert outcome(step, log) == outcome(step, fresh(log))


@pytest.mark.parametrize("order", [("protocol", "joint") * 2, ("joint", "protocol") * 2])
def test_bound_warning_once_per_report(order):
    log = LOGS["bound-hit"]()
    for mode in order:
        warnings = fit_rate_params(log, mode=mode).warnings
        assert [w for w in warnings if "search bound 4" in w] == [
            "stepsize exponent a stopped at the search bound 4; the data may call for a larger value"
        ]
        assert len(warnings) == len(set(warnings))


def test_anchorless_log_raises_the_same_error_each_time():
    log = LOGS["anchorless"]()
    messages = []
    for _ in range(3):
        with pytest.raises(InsufficientDataError) as info:
            fit_rate_params(log, mode="protocol")
        messages.append(str(info.value))
        assert fit_rate_params(log, mode="joint").warnings == (LOG_DOMAIN,)
    assert messages == [messages[0]] * 3
    assert "reference point" in messages[0]


def test_returned_points_are_the_callers_own():
    log = LOGS["noisy"]()
    for normalize in (normalize_nrq, normalize_nrt, normalize_nrs):
        points = normalize(log)
        points[0] = (9.0, 9.0)
        points.append((8.0, 8.0))
        assert normalize(log) == normalize(fresh(log))
    assert fit_rate_params(log) == fit_rate_params(fresh(log))


def used(log: EncodeLog) -> EncodeLog:
    # The log after every view it can derive has been asked for.
    for step in STEPS:
        outcome(step, log)
    return log


@pytest.mark.parametrize("kind", sorted(LOGS))
def test_views_are_not_part_of_the_value(kind, tmp_path):
    log = used(LOGS[kind]())
    other = fresh(log)
    assert [f.name for f in dataclasses.fields(log)] == ["samples", "ref"]
    assert repr(log) == repr(other)
    assert log == other
    assert hash(log) == hash(other)
    assert dataclasses.asdict(log) == dataclasses.asdict(other)
    assert pickle.dumps(log) == pickle.dumps(other)
    copy = pickle.loads(pickle.dumps(log))
    for step in STEPS:
        assert outcome(step, copy) == outcome(step, other)
    mode = "joint" if kind == "anchorless" else "protocol"
    for name, source in (("used", log), ("fresh", other)):
        model = ModelFile(ref=source.ref, rate=fit_rate_params(source, mode=mode).params)
        write_model_file(tmp_path / f"{name}.json", model)
    assert (tmp_path / "used.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()


@pytest.mark.parametrize(
    "ref",
    [
        # The anchor moves to 15 fps, so every curve and the seed change.
        ResolutionRef(q_min=REF.q_min, s_max=REF.s_max, t_max=15.0),
        # No sample sits at this reference point.
        ResolutionRef(q_min=10.0, s_max=REF.s_max, t_max=REF.t_max),
    ],
    ids=["moved", "anchorless"],
)
def test_replaced_log_derives_its_own_views(ref):
    log = used(LOGS["noisy"]())
    moved = dataclasses.replace(log, ref=ref)
    for step in STEPS:
        assert outcome(step, moved) == outcome(step, EncodeLog(samples=log.samples, ref=ref))
    assert outcome("nrt", moved) != outcome("nrt", log)


def test_columns_are_read_only():
    log = LOGS["noisy"]()
    fit_rate_params(log)
    for column in log._columns:
        assert not column.flags.writeable


@pytest.mark.parametrize("kind", sorted(LOGS))
def test_concurrent_fits_of_one_log_agree(kind):
    # Threads switch every microsecond, so several are inside the first
    # derivation of a view at once.
    steps = ("joint", "protocol", "nrq", "nrs", "nrt", "joint", "protocol", "nrq")
    want = {step: outcome(step, LOGS[kind]()) for step in set(steps)}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(10):
                log = LOGS[kind]()
                barrier = Barrier(4, timeout=30)

                def run(step, log=log, barrier=barrier):
                    barrier.wait()
                    return outcome(step, log)

                for order in (steps[:4], steps[4:]):
                    assert list(pool.map(run, order)) == [want[step] for step in order]
    finally:
        sys.setswitchinterval(interval)
