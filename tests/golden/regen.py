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
machine, Python and numpy the files came from: the last bits of some numbers
follow the SIMD loops numpy dispatches to.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
if __name__ == "__main__":
    sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import numpy as np

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


def golden(name: str) -> tuple[str, str, str]:
    """The stored stdout, stderr and exit code of case ``name``."""
    return tuple(
        (GOLDEN / f"{name}.{stream}").read_text(encoding="utf-8")
        for stream in ("stdout", "stderr", "exit")
    )


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        write_inputs(d)
        for name in CASES:
            for stream, text in zip(("stdout", "stderr", "exit"), run_case(name, d)):
                (GOLDEN / f"{name}.{stream}").write_text(text, encoding="utf-8")
    (HERE / "PLATFORM").write_text(
        f"machine {platform.machine()}\n"
        f"system {platform.platform()}\n"
        f"python {platform.python_version()}\n"
        f"numpy {np.__version__}\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    regenerate()
