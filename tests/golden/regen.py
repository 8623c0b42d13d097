"""Golden outputs of the ``starq`` command line.

``cli/`` holds, for each case in ``CASES``, the stdout (``<case>.stdout``),
stderr (``<case>.stderr``) and exit code (``<case>.exit``) of one
``starq.cli.main`` call. The first nine cases are the benchmark's one-shot
subcommand variants. The last orders layers under a quality model that is
flat over the whole lattice, so every move scores a zero slope and the
tie-break order alone picks the path. The inputs are written by the
``sequences.py`` helpers into a temporary directory, whose path reads
``<tmp>`` in the stored stderr. ``tests/test_golden.py`` reruns every case
and compares byte for byte.

Rewrite the files, from the root of a checkout, with

    python tests/golden/regen.py

and only for a change that means to alter the output. ``PLATFORM`` names the
machine, Python and numpy the files came from.

The last bits of some numbers follow the SIMD loops numpy dispatches to, so
the files hold one output per dispatch. ``cli/`` holds every case on all the
dispatch targets this machine enables. The script then reruns the cases in a
child process with the highest targets switched off, one more at a time down
to numpy's baseline loops, as a CPU without them would run. Each distinct
output that differs from ``cli/`` goes, for the differing cases only, into
one more set, ``cli-baseline/`` for the baseline loops' own output.
``PLATFORM`` has one ``loops`` line per dispatch: the set it reads, then its
enabled targets. A dispatch with no line reads ``cli/``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
if __name__ == "__main__":
    sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import numpy as np

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as _umath

from sequences import (
    LAYER_Q,
    LAYER_S,
    LAYER_T,
    REF,
    quality_params,
    rate_params,
    synthetic_log,
    write_log_csv,
)
from starq import QualityParams
from starq.cli import main
from starq.fileio import ModelFile, write_model_file

GOLDEN = HERE / "cli"
PLACEHOLDER = "<tmp>"

# Case name -> argv; an argument naming an input file is replaced by its path.
CASES = {
    "fit-protocol": ["fit", "log.csv", "--mode", "protocol"],
    "fit-joint": ["fit", "log.csv", "--mode", "joint"],
    "predict-rate": ["predict-rate", "model.json", "--sweep", "t", "--sweep-from", "1.875",
                     "--sweep-to", "30", "--q", "26.0", "--s", "4cif"],
    "optimize": ["optimize", "model.json", "--budget", "700.0"],
    "optimize-dyadic": ["optimize", "model.json", "--mode", "dyadic", "--sets", "sets.json",
                        "--budget", "1200.0"],
    "budget-sweep": ["optimize", "model.json", "--budget-sweep", "50"],
    "order-forward": ["order", "model.json", "--levels", "levels.json", "--direction", "forward"],
    "order-backward": ["order", "model.json", "--levels", "levels.json", "--direction", "backward"],
    "predict-params": ["predict-params", "--scenario", "SVC1", "--features", "features.json"],
    "order-flat": ["order", "flat.json", "--levels", "levels.json", "--direction", "forward"],
}


def write_inputs(d: Path) -> None:
    """Write every input file of ``CASES`` into the directory ``d``."""
    city = rate_params("city")
    write_log_csv(d / "log.csv", synthetic_log(city, noise=0.01, seed=1))
    write_model_file(
        d / "model.json", ModelFile(ref=REF, scenario="city", rate=city, quality=quality_params("city"))
    )
    # Every quality factor saturates at 1.0 on the layer lattice.
    flat = QualityParams(alpha_q=1000.0, alpha_s_tilde=1000.0, alpha_t=1000.0, ref=REF)
    write_model_file(d / "flat.json", ModelFile(ref=REF, scenario="flat", rate=city, quality=flat))
    ladders = {"s_values": list(LAYER_S), "t_values": list(LAYER_T)}
    (d / "sets.json").write_text(json.dumps({**ladders, "q_range": [16.0, 104.0]}))
    (d / "levels.json").write_text(json.dumps({**ladders, "q_levels": list(LAYER_Q)}))
    (d / "features.json").write_text(json.dumps({"mu_dfd": 6.5, "sigma_mvm": 1.5, "sigma_mda": 0.8}))


def run_case(name: str, d: Path) -> tuple[str, str, str]:
    """Stdout, stderr and exit code (as text) of case ``name`` on the inputs
    in ``d``, with ``d`` replaced by the placeholder."""
    argv = [str(d / a) if (d / a).is_file() else a for a in CASES[name]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return tuple(s.replace(str(d), PLACEHOLDER) for s in (out.getvalue(), err.getvalue(), f"{code}\n"))


STREAMS = ("stdout", "stderr", "exit")


def dispatch() -> list[str]:
    """The SIMD dispatch targets numpy enables in this process, lowest first."""
    return [t for t in _umath.__cpu_dispatch__ if _umath.__cpu_features__.get(t)]


def golden_set(targets: list[str]) -> Path:
    """The directory of the file set recorded for the dispatch ``targets``."""
    for line in (HERE / "PLATFORM").read_text(encoding="utf-8").splitlines():
        key, *words = line.split()
        if key == "loops" and words[1:] == targets:
            return HERE / words[0]
    return GOLDEN


def golden(name: str, files: Path = GOLDEN) -> tuple[str, str, str]:
    """The stored stdout, stderr and exit code of case ``name`` in the set
    ``files``; a case that set does not hold reads ``cli/``."""
    paths = (files / f"{name}.{stream}" for stream in STREAMS)
    return tuple((p if p.is_file() else GOLDEN / p.name).read_text(encoding="utf-8") for p in paths)


def all_outputs() -> dict[str, tuple[str, str, str]]:
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        write_inputs(d)
        return {name: run_case(name, d) for name in CASES}


def outputs_without(targets: list[str]) -> dict[str, list[str]]:
    """Every case's output in a child process with ``targets`` switched off."""
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets))
    child = subprocess.run([sys.executable, __file__, "--print"], env=env, check=True,
                           capture_output=True, text=True)
    return json.loads(child.stdout)


def write_set(files: Path, outputs) -> None:
    files.mkdir(exist_ok=True)
    for name, texts in outputs.items():
        for stream, text in zip(STREAMS, texts):
            (files / f"{name}.{stream}").write_text(text, encoding="utf-8")


def regenerate() -> None:
    outputs, targets = all_outputs(), dispatch()
    write_set(GOLDEN, outputs)
    # From the baseline loops up: the set each dispatch reads, and each
    # distinct set's differing cases.
    loops, sets = [], {}
    for n in range(len(targets)):
        differ = {name: out for name, out in outputs_without(targets[n:]).items()
                  if tuple(out) != outputs[name]}
        label = "-".join(targets[:n]).lower() or "baseline"
        key = json.dumps(differ, sort_keys=True)
        name = sets.setdefault(key, f"cli-{label}") if differ else "cli"
        loops.append(" ".join(["loops", name, *targets[:n]]))
    loops.append(" ".join(["loops", "cli", *targets]))
    for stale in HERE.glob("cli-*"):
        shutil.rmtree(stale)
    for key, name in sets.items():
        write_set(HERE / name, json.loads(key))
    (HERE / "PLATFORM").write_text(
        f"machine {platform.machine()}\n"
        f"system {platform.platform()}\n"
        f"python {platform.python_version()}\n"
        f"numpy {np.__version__}\n"
        + "".join(f"{line}\n" for line in reversed(loops)),
        encoding="utf-8",
    )


if __name__ == "__main__":
    if sys.argv[1:] == ["--print"]:
        print(json.dumps(all_outputs()))
    else:
        regenerate()
