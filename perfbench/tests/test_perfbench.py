"""Tests of the benchmark itself: seeded inputs, failure counting and the
output contract. Run from the repository root with

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def generated(tmp_path: Path, name: str, seed: int):
    workdir = tmp_path / name
    workdir.mkdir()
    objects = {
        "cli": inputs.cli_inputs(seed, workdir),
        "build": inputs.build_inputs(seed, workdir),
        "adapt": list(itertools.islice(inputs.adapt_rounds(seed), 3)),
    }
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    text = json.dumps(objects, sort_keys=True).replace(str(workdir), "<dir>")
    return files, text


def test_same_seed_gives_identical_inputs(tmp_path):
    files_a, objects_a = generated(tmp_path, "a", 7)
    files_b, objects_b = generated(tmp_path, "b", 7)
    files_c, objects_c = generated(tmp_path, "c", 8)
    assert files_a == files_b
    assert objects_a == objects_b
    assert files_a != files_c
    assert objects_a != objects_c


def test_workload_mix_is_fixed_by_construction(tmp_path):
    pool = inputs.build_inputs(3, tmp_path)
    assert sum(not e["anchors"] for e in pool) == len(pool) // 4
    assert {e["noise"] for e in pool} == set(inputs.BUILD_NOISES)
    sessions = next(inputs.adapt_rounds(3))
    assert sorted((s["grid"], s["dyadic"]) for s in sessions) == sorted(
        itertools.product(inputs.ADAPT_GRIDS, (False, True))
    )


def test_rate_above_budget_counts_as_failure(tmp_path, monkeypatch):
    real = run.optimize_continuous

    def over_budget(rp, qp, budget, **kwargs):
        return dataclasses.replace(real(rp, qp, budget, **kwargs), rate=budget * 1.01)

    monkeypatch.setattr(run, "optimize_continuous", over_budget)
    workload = run.AdaptStream()
    workload.setup(1, tmp_path)
    runner = run.Runner(Tracer())
    plain, _, _ = run.timed_loop(workload, runner, 0.2, traced_every=0)
    assert runner.attempted > workload.warmup
    assert len(runner.failures) == runner.attempted
    assert plain == []
    assert "above budget" in runner.failures[0]


def test_normalized_rate_scales_each_slice_by_its_reference():
    nominal = run.NOMINAL_REF_S
    # The second slice ran on a host twice as slow: its time counts half.
    slices = [(1.0, nominal), (2.0, 2 * nominal)]
    assert run.normalized_rate(30, slices) == pytest.approx(15.0)
    assert run.normalized_rate(30, [(3.0, nominal)]) == pytest.approx(10.0)


def test_wrong_cli_value_counts_as_failure():
    with pytest.raises(run.CheckFailed):
        run.check_cli_output("predict-params", 0, "parameter SVC1\na 1.5\n", "", [1.5 * (1 + 1e-5)])
    with pytest.raises(run.CheckFailed):
        run.check_cli_output("predict-params", 2, "", "error: bad input", [1.5])
    run.check_cli_output("predict-params", 0, "parameter SVC1\na 1.5\n", "", [1.5])


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_prints_every_metric(workload, trace):
    command = [sys.executable, *SPEC["command"][1:], "--workload", workload,
               "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_spec_matches_runner():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER_UNITS)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "adapt_stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
