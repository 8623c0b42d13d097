"""Golden outputs of the ``starq`` command line and of the model-build chain.

``cli/`` holds, for each case in ``CASES``, the stdout (``<case>.stdout``),
stderr (``<case>.stderr``) and exit code (``<case>.exit``) of one
``starq.cli.main`` call. The first nine cases are the benchmark's one-shot
subcommand variants. The last orders layers under a quality model that is
flat over the whole lattice, so every move scores a zero slope and the
tie-break order alone picks the path. The inputs are written by the
``sequences.py`` helpers into a temporary directory, whose path reads
``<tmp>`` in the stored stderr. ``tests/test_golden.py`` reruns every case
and compares byte for byte.

``lib/`` holds, for each case in ``LIB_CASES``, one ``<case>.txt`` of
``repr`` lines from the library calls that build a model: a CSV encode log
read by ``read_encode_log``, its three normalized curves, their exponent fits
and the protocol and joint ``FitReport`` (per scenario and sequence, for a
noiseless log, a log with 1% noise and that noisy log without its anchor
sample); the rate and quality tables of ``build_layer_grid`` and both
orderings (per sequence, on the 3x4x4 ladder and on an 8x8x8 lattice);
``optimal_quality_curve`` with its ``fit_qr`` (per sequence); and the budget
decisions (per sequence): ``optimize_continuous`` at grids 2, 32, 64 and 128
and ``optimize_discrete`` on the dyadic 3x4 ladder, at 40 geometric budgets
from 0.005 to 1.5 ``r_max``, which reach infeasible and ``q_min``-clamped
points. An error is recorded as its type and message. The ``csv-*`` cases
hold the warnings and the ``repr`` of the log that ``read_encode_log`` reads
from the command line's log written in each form of ``CSV_FORMS``: both
stepsize columns, a label column, a byte-order mark, blank lines, whitespace
around names and cells, short rows padded and empty cells past the header.

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
one more set, ``cli-baseline/`` for the baseline loops' own output, and
likewise ``lib-*`` sets beside ``lib/``. ``PLATFORM`` has one ``loops`` line
per kind of file set and dispatch: the set it reads, then its enabled
targets. A dispatch with no line reads ``cli/`` or ``lib/``.

    python tests/golden/regen.py --levels

prints one line per dispatch level, from all the targets this machine
enables down to numpy's baseline loops: the ``cli`` and ``lib`` sets that
level reads, then the targets to switch off (``NPY_DISABLE_CPU_FEATURES``)
to run it. CI runs the tests once per line. ``-h`` or ``--help`` prints the
usage; any other argument prints it to stderr and exits 2. Neither writes a
file.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
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
    DYADIC,
    LAYER_Q,
    LAYER_S,
    LAYER_T,
    QCIF,
    RATE_TABLES,
    REF,
    SEQUENCES,
    quality_params,
    rate_params,
    synthetic_log,
    without_anchor,
    write_log_csv,
)
from starq import (
    QualityParams,
    build_layer_grid,
    fit_power_exponent,
    fit_qr,
    fit_rate_params,
    normalize_nrq,
    normalize_nrs,
    normalize_nrt,
    optimal_quality_curve,
    optimize_continuous,
    optimize_discrete,
    order_backward,
    order_forward,
)
from starq.cli import main as cli_main
from starq.errors import StarqError
from starq.fileio import ModelFile, read_encode_log, write_model_file

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


def in_dir(d: Path, argv) -> list[str]:
    """``argv`` with every name of a file in ``d`` replaced by its path."""
    return [str(d / a) if (d / a).is_file() else a for a in argv]


def run_case(name: str, d: Path) -> tuple[str, str, str]:
    """Stdout, stderr and exit code (as text) of case ``name`` on the inputs
    in ``d``, with ``d`` replaced by the placeholder."""
    argv = in_dir(d, CASES[name])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return tuple(s.replace(str(d), PLACEHOLDER) for s in (out.getvalue(), err.getvalue(), f"{code}\n"))


# An 8x8x8 layer lattice inside the reference: frame sizes 1 to 16 QCIF.
FINE = (
    tuple(QCIF * k for k in (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0)),
    (1.875, 2.5, 3.75, 5.0, 7.5, 10.0, 15.0, 30.0),
    (64.0, 52.0, 40.0, 32.0, 26.0, 22.0, 19.0, 16.0),
)
LATTICES = {"ladder": (LAYER_S, LAYER_T, LAYER_Q), "fine": FINE}
# The log of the CSV forms: the command line's noisy city log.
CSV_LOG = synthetic_log(rate_params("city"), noise=0.01, seed=1)
# Budgets as fractions of r_max, geometric from 0.005 to 1.5, in Python floats.
BUDGET_FRACS = [0.005 * 300.0 ** (k / 39) for k in range(40)]



# The encode-log forms besides the plain one ``write_log_csv`` writes, by
# header line; ``csv_form`` writes their rows.
CSV_FORMS = {
    "q-and-qp": "q,qp,width,height,fps,rate_kbps",
    "label": "label,q,width,height,fps,rate_kbps",
    "bom": "\ufeffq,width,height,fps,rate_kbps",
    "blank-lines": "\n\r\nq,width,height,fps,rate_kbps",
    "whitespace": " q ,\twidth, height\u00a0,fps\u3000, rate_kbps ",
    "short-rows": "q,width,height,fps,rate_kbps,label,",
    "empty-past-header": "q,width,height,fps,rate_kbps",
}


def csv_form(form: str, samples) -> str:
    """The CSV text of ``samples`` in the encode-log form ``form``."""
    lines = [CSV_FORMS[form]]
    for k, x in enumerate(samples):
        cells = [repr(x.star.q), repr(x.star.s), "1", repr(x.star.t), repr(x.rate)]
        if form == "q-and-qp":  # the reader takes qp, with a warning
            cells[:1] = ["999", repr(6.0 * math.log2(x.star.q) + 4.0)]
        elif form == "label":
            cells.insert(0, f" city {k} " if k % 2 else f"city-{k}")
        elif form == "whitespace":
            cells = [f" {c}\t" if i % 2 else f"\u00a0{c}\u3000" for i, c in enumerate(cells)]
        elif form == "short-rows":  # padding reaches only the label and the nameless column
            cells += ["tag", "x"][: k % 3]
        elif form == "empty-past-header":
            cells += ["", " ", "\t"][: k % 4]
        lines.append(",".join(cells) + ("\n" * (k % 3) if form == "blank-lines" else ""))
    return "\n".join(lines) + "\n"


LIB_CASES = (
    [f"fit-{scenario}-{sequence}" for scenario in RATE_TABLES for sequence in SEQUENCES]
    + [f"order-{lattice}-{sequence}" for lattice in LATTICES for sequence in SEQUENCES]
    + [f"qr-{sequence}" for sequence in SEQUENCES]
    + [f"opt-{sequence}" for sequence in SEQUENCES]
    + [f"csv-{form}" for form in CSV_FORMS]
)


def _outcome(call, *args, **kwargs) -> str:
    # The repr of a call's result, or its error's type and message.
    try:
        return repr(call(*args, **kwargs))
    except StarqError as exc:
        return f"{type(exc).__name__}: {exc}"


def _fit_lines(path: Path) -> list[str]:
    # Every step of a build's fits from the CSV encode log at ``path``.
    log, warnings = read_encode_log(path)
    lines = [f"warnings {warnings!r}", f"ref {log.ref!r}"]
    for curve, direction in ((normalize_nrq, "decreasing"), (normalize_nrt, "increasing"),
                             (normalize_nrs, "increasing")):
        lines.append(f"{curve.__name__} {_outcome(curve, log)}")
        lines.append(f"exponent {_outcome(lambda: fit_power_exponent(curve(log), direction))}")
    return lines + [f"{mode} {_outcome(fit_rate_params, log, mode=mode)}"
                    for mode in ("protocol", "joint")]


def lib_case(name: str, d: Path) -> tuple[str]:
    """The text of library case ``name``, using the directory ``d`` for files."""
    kind, *key = name.split("-")
    lines = []
    if kind == "csv":
        path = d / f"{name}.csv"
        path.write_text(csv_form("-".join(key), CSV_LOG.samples), encoding="utf-8", newline="")
        log, warnings = read_encode_log(path)
        lines += [f"warnings {warnings!r}", f"log {log!r}"]
    elif kind == "fit":
        scenario, sequence = key
        noisy = synthetic_log(rate_params(sequence, scenario), noise=0.01, seed=1)
        logs = {"noiseless": synthetic_log(rate_params(sequence, scenario)),
                "noise 0.01": noisy, "noise 0.01 without anchor": without_anchor(noisy)}
        for label, log in logs.items():
            lines += [f"[{label}]", *_fit_lines(write_log_csv(d / f"{name}.csv", log))]
    else:
        rp, qp = rate_params(key[-1]), quality_params(key[-1])
        if kind == "order":
            grid = build_layer_grid(rp, qp, *LATTICES[key[0]])
            lines += [f"rate {grid.rate.tolist()!r}", f"quality {grid.quality.tolist()!r}",
                      f"forward {order_forward(grid)!r}", f"backward {order_backward(grid)!r}"]
        elif kind == "opt":
            for budget in (rp.r_max * frac for frac in BUDGET_FRACS):
                lines.append(f"budget {budget!r}")
                lines += [f"grid {n} {_outcome(optimize_continuous, rp, qp, budget, grid=n)}"
                          for n in (2, 32, 64, 128)]
                lines.append(f"dyadic {_outcome(optimize_discrete, rp, qp, DYADIC, budget)}")
        else:
            curve = optimal_quality_curve(rp, qp)
            lines += [f"curve {curve!r}", f"fit_qr {_outcome(fit_qr, curve, rp.r_max)}"]
    return ("".join(f"{line}\n" for line in lines),)


# The file streams of each kind of set: a CLI case's three, a library case's one.
STREAMS = {"cli": ("stdout", "stderr", "exit"), "lib": ("txt",)}


def dispatch() -> list[str]:
    """The SIMD dispatch targets numpy enables in this process, lowest first."""
    return [t for t in _umath.__cpu_dispatch__ if _umath.__cpu_features__.get(t)]


def loops() -> list[tuple[str, list[str]]]:
    """``PLATFORM``'s ``loops`` lines: the set a dispatch reads and its enabled targets."""
    lines = (HERE / "PLATFORM").read_text(encoding="utf-8").splitlines()
    return [(words[1], words[2:]) for words in map(str.split, lines) if words[0] == "loops"]


def golden_set(targets: list[str], kind: str = "cli") -> Path:
    """The directory of the ``kind`` file set recorded for the dispatch ``targets``."""
    for name, enabled in loops():
        if name.split("-")[0] == kind and enabled == targets:
            return HERE / name
    return HERE / kind


def golden(name: str, files: Path = GOLDEN) -> tuple[str, ...]:
    """The stored streams of case ``name`` in the set ``files``: stdout,
    stderr and exit code for a CLI case, the text for a library case. A case
    that set does not hold reads ``cli/`` or ``lib/``."""
    kind = files.name.split("-")[0]
    paths = (files / f"{name}.{stream}" for stream in STREAMS[kind])
    return tuple((p if p.is_file() else HERE / kind / p.name).read_text(encoding="utf-8")
                 for p in paths)


def all_outputs() -> dict[str, dict[str, tuple[str, ...]]]:
    """Every case's output, by kind of set."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        write_inputs(d)
        return {"cli": {name: run_case(name, d) for name in CASES},
                "lib": {name: lib_case(name, d) for name in LIB_CASES}}


def outputs_without(targets: list[str]) -> dict[str, dict[str, list[str]]]:
    """Every case's output in a child process with ``targets`` switched off."""
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets))
    child = subprocess.run([sys.executable, __file__, "--print"], env=env, check=True,
                           capture_output=True, text=True)
    return json.loads(child.stdout)


def write_set(files: Path, outputs) -> None:
    files.mkdir(exist_ok=True)
    for name, texts in outputs.items():
        for stream, text in zip(STREAMS[files.name.split("-")[0]], texts):
            (files / f"{name}.{stream}").write_text(text, encoding="utf-8")


def regenerate() -> None:
    outputs, targets = all_outputs(), dispatch()
    below = [outputs_without(targets[n:]) for n in range(len(targets))]
    loops = []
    for kind, ours in outputs.items():
        write_set(HERE / kind, ours)
        # From the baseline loops up: the set each dispatch reads, and each
        # distinct set's differing cases.
        kind_loops, sets = [], {}
        for n, theirs in enumerate(below):
            differ = {name: out for name, out in theirs[kind].items() if tuple(out) != ours[name]}
            label = "-".join(targets[:n]).lower() or "baseline"
            key = json.dumps(differ, sort_keys=True)
            name = sets.setdefault(key, f"{kind}-{label}") if differ else kind
            kind_loops.append(" ".join(["loops", name, *targets[:n]]))
        kind_loops.append(" ".join(["loops", kind, *targets]))
        loops += reversed(kind_loops)
        for stale in HERE.glob(f"{kind}-*"):
            shutil.rmtree(stale)
        for key, name in sets.items():
            write_set(HERE / name, json.loads(key))
    (HERE / "PLATFORM").write_text(
        f"machine {platform.machine()}\n"
        f"system {platform.platform()}\n"
        f"python {platform.python_version()}\n"
        f"numpy {np.__version__}\n"
        + "".join(f"{line}\n" for line in loops),
        encoding="utf-8",
    )


USAGE = """\
usage: python tests/golden/regen.py [-h | --print | --levels]

With no argument, rewrite every golden file set and PLATFORM.
  --print    print every case's output as JSON, on the dispatch this process runs
  --levels   print one line per dispatch level: the cli and lib sets it reads,
             then the targets to switch off to run it"""


def main(argv: list[str]) -> int:
    """Run the script on the arguments ``argv``; returns the exit code."""
    if argv == ["--print"]:
        print(json.dumps(all_outputs()))
    elif argv == ["--levels"]:
        targets = dispatch()
        for n in reversed(range(len(targets) + 1)):
            print(golden_set(targets[:n]).name, golden_set(targets[:n], "lib").name, *targets[n:])
    elif argv in (["-h"], ["--help"]):
        print(USAGE)
    elif argv:
        print(USAGE, file=sys.stderr)
        return 2
    else:
        regenerate()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
