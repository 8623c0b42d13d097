"""The CLI exit-code contract holds for any argv and any input file.

Every run ends with 0 (success), 2 (input error), 3 (insufficient data) or
4 (infeasible), never with an uncaught exception. Integer options that size
an allocation (--grid, --points, --budget-sweep) are drawn from a small range
or from above their caps, which the commands reject before allocating
anything; values just below a cap are valid requests for a large allocation.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sequences import LAYER_Q, LAYER_S, LAYER_T
import starq
from golden.regen import CASES, in_dir, write_inputs
from starq.cli import MAX_SWEEP, main

CONTRACT = {0, 2, 3, 4}
# The child process imports the same starq as this test.
SRC = Path(starq.__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    # The golden cases' inputs, then malformed files and a features CSV.
    d = tmp_path_factory.mktemp("fuzz")
    write_inputs(d)
    model = json.loads((d / "model.json").read_text())
    model["rate"].update(a="1.5", b=True)
    (d / "strmodel.json").write_text(json.dumps(model))
    model["rate"].update(a=10**400, b=0.5)
    (d / "hugeint.json").write_text(json.dumps(model))
    (d / "deep.json").write_text("[" * 100_000)
    (d / "strsets.json").write_text(
        json.dumps({"s_values": "4", "t_values": list(LAYER_T), "q_range": "19"})
    )
    (d / "strlevels.json").write_text(
        json.dumps({"s_values": list(LAYER_S), "t_values": "15", "q_levels": list(LAYER_Q)})
    )
    (d / "raggedsets.json").write_text(
        json.dumps({"s_values": list(LAYER_S), "t_values": [15, [30, 60]], "q_range": [16, [20]]})
    )
    (d / "raggedlevels.json").write_text(
        json.dumps({"s_values": list(LAYER_S), "t_values": list(LAYER_T), "q_levels": [64, [16]]})
    )
    (d / "features.csv").write_text("mu_dfd,sigma_mvm,sigma_mda\n8,4,2\n")
    binary = bytes(range(256)) * 4
    for name in ("binary.csv", "binary.json"):
        (d / name).write_bytes(binary)
    (d / "empty.csv").write_text("")
    (d / "empty.json").write_text("")
    (d / "list.json").write_text("[1, 2]")
    (d / "broken.json").write_text("{broken")
    (d / "longfield.csv").write_text("q,width,height,fps,rate_kbps\n" + "1" * 200_000 + "\n")
    (d / "nul.csv").write_text("q,width,height,fps,rate_kbps\n16,\x00,1,30,100\n")
    (d / "dir").mkdir()
    return d


def resolve(files: Path, argv) -> list[str]:
    """argv with every fixture file name replaced by its path."""
    names = set(FILE_NAMES) | {"out.json"}
    return [str(files / a) if a in names else a for a in argv]


def run_main(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


BAD_FILE_CASES = [
    ["fit", "binary.csv"],
    ["predict-rate", "binary.json", "--q", "16", "--s", "cif", "--t", "30"],
    ["predict-params", "--scenario", "SVC1", "--features", "binary.csv"],
    ["predict-params", "--scenario", "SVC1", "--features", "binary.json"],
    ["predict-rate", "model.json", "--log", "binary.csv"],
    ["optimize", "model.json", "--budget", "500", "--mode", "dyadic", "--sets", "binary.json"],
    ["order", "model.json", "--levels", "binary.json"],
    ["fit", "longfield.csv"],
    ["predict-params", "--scenario", "SL2", "--features", "longfield.csv"],
    ["predict-rate", "strmodel.json", "--q", "16", "--s", "cif", "--t", "30"],
    ["predict-rate", "hugeint.json", "--q", "16", "--s", "cif", "--t", "30"],
    ["predict-rate", "deep.json", "--q", "16", "--s", "cif", "--t", "30"],
    ["optimize", "model.json", "--budget", "500", "--mode", "dyadic", "--sets", "strsets.json"],
    ["order", "model.json", "--levels", "strlevels.json"],
    ["optimize", "model.json", "--budget", "500", "--mode", "dyadic", "--sets", "raggedsets.json"],
    ["order", "model.json", "--levels", "raggedlevels.json"],
]


@pytest.mark.parametrize("template", BAD_FILE_CASES, ids=lambda a: " ".join(a))
def test_unreadable_file_is_input_error(files, template):
    argv = resolve(files, template)
    proc = subprocess.run(
        [sys.executable, "-m", "starq.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: {files}")
    assert proc.stdout == ""


# Values follow their option as the next word, so the negative ones written
# with an exponent, as infinity or with digit groups must read as values.
NUMBERS = st.sampled_from(
    ["0", "-1", "1", "1.875", "16", "30", "500", "2379", "1e-300", "1e300", "-1e-05",
     "-1e+300", "-1E3", "-1_000", "nan", "-nan", "inf", "-inf", "abc", "", "qcif", "cif", "4cif"]
) | st.floats(allow_nan=True, allow_infinity=True).map(repr)


def sizes(cap: int):
    # Integer option values: small ones, ones above the option's cap, and two
    # negative words, one that int() reads and one that it does not.
    ints = st.integers(min_value=-3, max_value=40) | st.integers(min_value=cap + 1)
    return ints.map(str) | st.sampled_from(["-1_000", "-1e3"])


FILE_NAMES = (
    "model.json", "log.csv", "sets.json", "levels.json", "features.json", "features.csv",
    "binary.csv", "binary.json", "empty.csv", "empty.json", "list.json", "broken.json",
    "longfield.csv", "nul.csv", "dir", "missing.json", "strmodel.json", "hugeint.json",
    "deep.json", "strsets.json", "strlevels.json", "raggedsets.json", "raggedlevels.json",
)
FILES = st.sampled_from(FILE_NAMES)

OPTIONS = {
    "fit": {"--mode": st.sampled_from(["protocol", "joint", "x"]), "--out": st.just("out.json")},
    "predict-rate": {
        "--q": NUMBERS, "--s": NUMBERS, "--t": NUMBERS,
        "--sweep": st.sampled_from(["q", "s", "t", "x"]),
        "--sweep-from": NUMBERS, "--sweep-to": NUMBERS, "--log": FILES,
        "--points": sizes(MAX_SWEEP),
    },
    "optimize": {
        "--quality-model": FILES, "--budget": NUMBERS, "--budget-sweep": sizes(MAX_SWEEP),
        "--mode": st.sampled_from(["continuous", "dyadic", "x"]), "--sets": FILES,
        "--grid": sizes(4096),  # optimize_continuous's grid cap
    },
    "order": {
        "--quality-model": FILES, "--levels": FILES,
        "--direction": st.sampled_from(["forward", "backward", "x"]),
    },
    "predict-params": {
        "--scenario": st.sampled_from(["SVC1", "sl2", "SL#2", "x"]), "--features": FILES,
        "--mu-dfd": NUMBERS, "--sigma-mvm": NUMBERS, "--sigma-mda": NUMBERS,
        "--q-min": NUMBERS, "--s-max": NUMBERS, "--t-max": NUMBERS, "--out": st.just("out.json"),
    },
}


# The modes of each command (README "Command line"): the options a mode
# needs, then the others it reads. An "--option=value" word selects the mode
# and is given as it is. A draw gives its mode's needed options and then up
# to four more, from that mode's list or from all of the command's, so most
# draws pass the option rule and reach the file readers and the arithmetic,
# and the rest break it.
MODES = {
    "fit": [([], ["--mode", "--out"])],
    "predict-rate": [
        (["--q", "--s", "--t"], ["--q", "--s", "--t"]),
        (["--log"], ["--log"]),
        *(([f"--sweep={axis}", "--sweep-from", "--sweep-to", *fixed], ["--points", *fixed])
          for axis, fixed in (("q", ["--s", "--t"]), ("s", ["--q", "--t"]), ("t", ["--q", "--s"]))),
    ],
    "optimize": [
        (["--budget"], ["--quality-model", "--mode=continuous", "--grid"]),
        (["--budget-sweep"], ["--quality-model", "--mode=continuous", "--grid"]),
        (["--mode=dyadic", "--sets", "--budget"], ["--quality-model"]),
        (["--mode=dyadic", "--sets", "--budget-sweep"], ["--quality-model"]),
    ],
    "order": [(["--levels"], ["--quality-model", "--direction"])],
    "predict-params": [
        (["--scenario", "--features"], ["--q-min", "--s-max", "--t-max", "--out"]),
        (["--scenario", "--mu-dfd", "--sigma-mvm", "--sigma-mda"],
         ["--q-min", "--s-max", "--t-max", "--out"]),
    ],
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    if command != "predict-params":
        argv.append(draw(st.sampled_from(["model.json", "log.csv"]) | FILES))
    options = OPTIONS[command]
    needed, reads = draw(st.sampled_from(MODES[command]))
    extras = draw(st.sampled_from([reads, sorted(options)]))
    for name in needed + draw(st.lists(st.sampled_from(extras), max_size=4)):
        argv += [name] if "=" in name else [name, draw(options[name])]
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=argvs())
def test_any_argv_keeps_exit_contract(files, argv):
    argv = resolve(files, argv)
    code, _, err = run_main(argv)
    assert code in CONTRACT, (argv, code, err)
    assert "Traceback" not in err


# The option rule: a subcommand accepts exactly the options its chosen mode
# reads. For each golden case, the options of its subcommand that its mode
# does not read, with values their types accept and their checks pass; the
# fit and order cases read every option of their subcommand. Appending one
# of them makes that option (or, for --budget-sweep, which selects the sweep
# mode, the --budget it replaces) the argv's only fault.
FLOATS = st.floats(allow_nan=True, allow_infinity=True).map(repr)
UNREAD = {
    "predict-rate": {"--t": FLOATS, "--log": FILES},
    "optimize": {"--sets": FILES, "--budget-sweep": st.integers(1, MAX_SWEEP).map(str)},
    "optimize-dyadic": {"--grid": st.integers().map(str),
                        "--budget-sweep": st.integers(1, MAX_SWEEP).map(str)},
    "budget-sweep": {"--budget": FLOATS, "--sets": FILES},
    "predict-params": {"--mu-dfd": FLOATS, "--sigma-mvm": FLOATS, "--sigma-mda": FLOATS},
}
NOT_APPLIED = re.compile(r"error: (--[a-z-]+) does not apply to [^\n]+\n")


def test_unread_options_cover_the_golden_cases():
    assert set(UNREAD) | {"fit-protocol", "fit-joint", "order-forward", "order-backward",
                          "order-flat"} == set(CASES)


@st.composite
def with_unread_option(draw):
    name = draw(st.sampled_from(sorted(UNREAD)))
    option = draw(st.sampled_from(sorted(UNREAD[name])))
    # "--opt=value" keeps a value such as "-1e-05" from reading as an option.
    return [*CASES[name], f"{option}={draw(UNREAD[name][option])}"]


@settings(max_examples=100, deadline=None)
@given(argv=with_unread_option())
def test_option_outside_its_mode_is_input_error(files, argv):
    code, out, err = run_main(in_dir(files, argv))
    assert (code, out) == (2, ""), err
    named = NOT_APPLIED.fullmatch(err)
    assert named and any(a.split("=")[0] == named[1] for a in argv), err


# The argv that ignored an option before the rule, and the message each
# gets now. Every input file name in them is replaced by a fixture path.
IGNORED_BEFORE = [
    (["predict-rate", "model.json", "--log", "log.csv", "--q", "9999", "--s", "1", "--t", "1"],
     "--q does not apply to predict-rate --log"),
    (["optimize", "model.json", "--mode", "dyadic", "--sets", "sets.json", "--budget", "700",
      "--grid", "3"], "--grid does not apply to optimize --mode dyadic"),
    (["optimize", "model.json", "--budget", "700", "--sets", "nonexistent.json"],
     "--sets does not apply to optimize --mode continuous"),
    (["predict-params", "--scenario", "SVC1", "--features", "features.json", "--mu-dfd", "3"],
     "--mu-dfd does not apply to predict-params --features"),
    (["predict-rate", "model.json", "--sweep", "t", "--sweep-from", "1.875", "--sweep-to", "30",
      "--q", "26", "--s", "4cif", "--t", "5"], "--t does not apply to predict-rate --sweep t"),
]
IGNORED_IDS = ["log-with-point", "dyadic-with-grid", "continuous-with-sets", "features-with-values",
               "sweep-with-swept-axis"]


@pytest.mark.parametrize("argv, message", IGNORED_BEFORE, ids=IGNORED_IDS)
def test_formerly_ignored_option_is_input_error(files, argv, message):
    assert run_main(in_dir(files, argv)) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", IGNORED_BEFORE, ids=IGNORED_IDS)
def test_option_error_comes_before_any_file_is_opened(tmp_path, argv, message):
    # Every input file is missing, and the option error is reported, not the file error.
    argv = [str(tmp_path / a) if a.endswith((".json", ".csv")) else a for a in argv]
    assert run_main(argv) == (2, "", f"error: {message}\n")
