"""The command line's stdout, stderr and exit code, and the model-build chain's
library results, against the golden files, byte for byte: ``golden/cli`` and
``golden/lib`` and, where numpy's SIMD dispatch in this process changes the
last bits of an output, the set ``golden/PLATFORM`` names for that dispatch.
``golden/regen.py`` lists the cases and rewrites the files."""

from __future__ import annotations

import pytest

from golden import regen
from golden.regen import (
    CASES, HERE, LIB_CASES, USAGE, dispatch, golden, golden_set, lib_case, loops, main, run_case,
    write_inputs,
)
from test_parity import STALL_SSE


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    write_inputs(d)
    return d


@pytest.mark.parametrize("name", CASES)
def test_output_matches_golden(inputs, name):
    assert run_case(name, inputs) == golden(name, golden_set(dispatch()))


@pytest.mark.parametrize("name", LIB_CASES)
def test_library_matches_golden(tmp_path, name):
    assert lib_case(name, tmp_path) == golden(name, golden_set(dispatch(), "lib"))


def test_platform_names_exactly_the_set_directories():
    # Every set PLATFORM names is a directory, every further set directory is
    # named, and the stall pin of test_parity.py has one entry per library set.
    named = {name for name, _ in loops()}
    assert {name for name in named if not (HERE / name).is_dir()} == set()
    assert {p.name for kind in ("cli", "lib") for p in HERE.glob(f"{kind}-*")} <= named
    assert set(STALL_SSE) == {name for name in named if name.split("-")[0] == "lib"}


@pytest.fixture
def no_regenerate(monkeypatch):
    def refuse():
        raise AssertionError("regenerate() called")

    monkeypatch.setattr(regen, "regenerate", refuse)


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_regen_help_prints_usage(no_regenerate, capsys, flag):
    assert main([flag]) == 0
    assert capsys.readouterr() == (USAGE + "\n", "")


@pytest.mark.parametrize(
    "argv", [["--level"], ["--print", "--levels"], ["--levels", "x"], ["print"], [""]]
)
def test_regen_unknown_arguments_rejected(no_regenerate, capsys, argv):
    # A mistyped option writes nothing: regenerate is never reached.
    assert main(argv) == 2
    assert capsys.readouterr() == ("", USAGE + "\n")
