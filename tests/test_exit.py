"""The process exit path of a ``starq`` command.

``starq.cli.run`` is the process entry, behind both the ``starq`` console
script and ``python -m starq.cli``: it runs ``main`` on the command line and
then freezes the objects the cyclic collector tracks, so the interpreter's
exit-time collections skip them. ``main(argv)`` is the in-process API and
never freezes. Output that cannot be written, into a pipe whose reader is
gone or to a closed fd 1, is an input error: exit 2 and one ``error:`` line,
whether or not ``PYTHONUNBUFFERED`` is set. When stderr goes into the same
closed pipe, the line is lost and the exit code is still 2.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

import starq
from golden.regen import CASES, in_dir, write_inputs
from starq import cli

SRC = str(Path(starq.__file__).resolve().parent.parent)
CLI = [sys.executable, "-m", "starq.cli"]
BROKEN_PIPE = "error: [Errno 32] Broken pipe\n"
# One JSON line, which stays in a buffered stdout until it is flushed, and a
# CSV larger than any buffer, which fails at a write. argparse writes the help
# text itself and exits from parse_args.
ONE = ["optimize", "model.json", "--budget", "1000"]
SWEEP = ["optimize", "model.json", "--budget-sweep", "5000"]
HELP = ["optimize", "--help"]
MODES = pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("exit")
    write_inputs(d)
    return d


def child(command, unbuffered: bool, **kwargs) -> subprocess.CompletedProcess:
    """``command`` run to its end with stderr captured as text, in an
    environment that sets ``PYTHONUNBUFFERED`` only if ``unbuffered``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=SRC, COLUMNS="80")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run(command, stdin=subprocess.DEVNULL, env=env, text=True, timeout=60,
                          **kwargs)


def closed_pipe(command, unbuffered: bool, both: bool = False) -> subprocess.CompletedProcess:
    """``command`` run with stdout, and stderr too if ``both``, into a pipe
    whose reader is gone before the child starts."""
    r, w = os.pipe()
    os.close(r)
    try:
        return child(command, unbuffered, stdout=w, stderr=w if both else subprocess.PIPE)
    finally:
        os.close(w)


@MODES
@pytest.mark.parametrize("template", [ONE, SWEEP, HELP], ids=" ".join)
def test_closed_pipe_is_input_error(files, template, unbuffered):
    proc = closed_pipe([*CLI, *in_dir(files, template)], unbuffered)
    assert (proc.returncode, proc.stderr) == (2, BROKEN_PIPE)


@MODES
@pytest.mark.parametrize("argv", [
    ["optimize", "missing.json", "--budget", "1000"],  # an input error
    ["predict-params", "--scenario", "SVC1", "--mu-dfd", "1", "--sigma-mvm", "1",
     "--sigma-mda", "1"],  # a success whose output cannot be written
    ["optimize", "--nope"],  # argparse's usage error
    HELP,
], ids=["missing-file", "success", "usage", "help"])
def test_closed_stderr_too_is_input_error(files, argv, unbuffered):
    # The error line cannot be written either; the exit code still says it.
    assert closed_pipe([*CLI, *in_dir(files, argv)], unbuffered, both=True).returncode == 2


def closed_stdout(argv, unbuffered: bool) -> subprocess.CompletedProcess:
    # The shell closes fd 1 before the interpreter starts, so sys.stdout is None.
    return child(["sh", "-c", 'exec "$@" >&-', "sh", *CLI, *argv], unbuffered)


@MODES
def test_closed_stdout_is_input_error(files, unbuffered):
    proc = closed_stdout(in_dir(files, ONE), unbuffered)
    assert (proc.returncode, proc.stderr) == (2, "error: stdout is closed\n")


def test_help_on_closed_stdout_goes_to_stderr():
    # argparse writes help meant for a missing stdout to stderr.
    proc = closed_stdout(["--help"], False)
    assert proc.returncode == 0 and proc.stderr.startswith("usage: starq ")


def test_closed_stdout_stops_before_any_file_is_opened(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", None)
    assert cli.main(["optimize", str(tmp_path / "missing.json"), "--budget", "1000"]) == 2
    assert capsys.readouterr().err == "error: stdout is closed\n"


@pytest.fixture
def thaw():
    # run() freezes this process's objects; the session ends as it began.
    assert gc.get_freeze_count() == 0
    yield
    gc.unfreeze()


@pytest.mark.parametrize("template,code", [(CASES["optimize"], 0), (["--help"], 0),
                                           (["optimize"], 2)], ids=["optimize", "help", "usage"])
def test_entry_freezes_and_main_does_not(files, template, code, monkeypatch, thaw):
    argv = in_dir(files, template)
    try:
        main_code = cli.main(argv)
    except SystemExit as exc:  # --help and argparse's own errors
        main_code = exc.code
    assert main_code == code and gc.get_freeze_count() == 0
    monkeypatch.setattr(sys, "argv", ["starq", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == code and gc.get_freeze_count() > 0
