"""The command line's stdout, stderr and exit code, and the model-build chain's
library results, against the golden files, byte for byte: ``golden/cli`` and
``golden/lib`` and, where numpy's SIMD dispatch in this process changes the
last bits of an output, the set ``golden/PLATFORM`` names for that dispatch.
``golden/regen.py`` lists the cases and rewrites the files."""

from __future__ import annotations

import pytest

from golden.regen import (
    CASES, LIB_CASES, dispatch, golden, golden_set, lib_case, run_case, write_inputs,
)


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
