"""Start-up: the lazy ``starq`` namespace and the modules each command loads.

``import starq`` loads no submodule; a public name imports its home module
on first access. The command-line front end imports the engine module of a
subcommand only when that subcommand runs, so a fresh ``starq`` process
loads the file readers and the model surfaces plus at most one engine.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import starq
from golden.regen import CASES, in_dir, write_inputs
from starq.cli import main

# The public names of each home module, as the eager package exported them.
HOMES = {
    "errors": "DegenerateDataError InfeasibleError InsufficientDataError InvalidParameterError "
              "OutOfRangeError StarqError",
    "features": "BUILTIN_PREDICTORS SL2 SVC1 FeatureVector ParamPrediction PredictorMatrix "
                "predict_params",
    "fitting": "EncodeLog FitReport QrFit RateSample fit_power_exponent fit_qr fit_rate_params "
               "normalize_nrq normalize_nrs normalize_nrt pearson",
    "models": "CIF CIF4 QCIF QrModel QualityParams RateParams ResolutionRef Star evaluate_qr "
              "evaluate_quality evaluate_rate qp_from_stepsize qr_surface quality_surface "
              "rate_surface stepsize_from_qp",
    "optimizer": "FeasibleSets OptimizationResult feasible_q optimal_quality_curve "
                 "optimize_continuous optimize_discrete",
    "ordering": "LayerGrid OrderedPath PathStep build_layer_grid max_rate_gap order_backward "
                "order_forward path_quality_loss",
}
HOME = {name: module for module, names in HOMES.items() for name in names.split()}

SRC = str(Path(starq.__file__).resolve().parent.parent)
# argparse wraps help text to COLUMNS; both sides of a comparison use the same.
ENV = dict(
    os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]), COLUMNS="80"
)


class TestNamespace:
    def test_exports_the_eager_names(self):
        assert starq.__all__ == sorted(HOME)
        assert len(starq.__all__) == 54

    @pytest.mark.parametrize("name", sorted(HOME))
    def test_name_is_its_home_module_object(self, name):
        home = importlib.import_module(f"starq.{HOME[name]}")
        value = getattr(starq, name)
        assert value is getattr(home, name)
        if hasattr(value, "__module__"):
            assert value.__module__ == home.__name__

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from starq import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == starq.__all__
        assert all(value is getattr(starq, name) for name, value in namespace.items())

    def test_dir_lists_public_names_and_submodules(self):
        assert set(starq.__all__) | set(HOMES) <= set(dir(starq))

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="module 'starq' has no attribute 'no_such_name'"):
            starq.no_such_name
        with pytest.raises(ImportError, match="no_such_name"):
            from starq import no_such_name  # noqa: F401


def loaded_by(code: str) -> list[str]:
    # The starq modules a fresh interpreter holds after running ``code``.
    code += "; import sys; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'starq'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=ENV, capture_output=True, text=True, check=True
    )
    return out.stdout.split()


BASE = ["starq", "starq.errors", "starq.fileio", "starq.models"]


def test_import_starq_loads_no_submodule():
    assert loaded_by("import starq") == ["starq"]


def test_import_cli_loads_readers_and_models_only():
    assert loaded_by("import starq.cli") == sorted([*BASE, "starq.cli"])


@pytest.mark.parametrize("name", ["order_forward", "ordering"])
def test_first_access_imports_the_home_module_and_caches_it(name):
    code = (
        f"import starq; assert {name!r} not in vars(starq); "
        f"value = starq.{name}; assert vars(starq)[{name!r}] is value"
    )
    assert loaded_by(code) == ["starq", "starq.errors", "starq.models", "starq.ordering"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("startup")
    write_inputs(d)
    return d


FIT = ["starq._solve", "starq.fitting"]
# The engine modules each subcommand loads beyond BASE; predict-rate --log
# also loads FIT, to fit its log.
ENGINES = {"--help": [], "fit": FIT, "predict-rate": [], "optimize": ["starq.optimizer"],
           "order": ["starq.ordering"], "predict-params": ["starq.features"]}
# The golden cases (the benchmark's nine one-shot variants and a flat
# ordering), plus --help and predict-rate --log.
COMMANDS = [["--help"], *CASES.values(), ["predict-rate", "model.json", "--log", "log.csv"]]


@pytest.mark.parametrize("template", COMMANDS, ids=" ".join)
def test_command_loads_only_its_modules(files, template, capsys, monkeypatch):
    argv = in_dir(files, template)
    engine = ENGINES[template[0]] + (FIT if "--log" in template else [])
    # ``-X importtime`` reports each module on its first import, on stderr.
    # ``-m`` runs the CLI module as ``__main__``, so ``starq.cli`` is not listed.
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "starq.cli", *argv],
        env=ENV, capture_output=True, text=True, timeout=60,
    )
    lines = proc.stderr.splitlines(keepends=True)
    imported = [line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")]
    assert sorted(m for m in imported if m.split(".")[0] == "starq") == sorted([*BASE, *engine])
    stderr = "".join(line for line in lines if not line.startswith("import time:"))

    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(argv)
    except SystemExit as exc:  # --help
        code = exc.code
    out, err = capsys.readouterr()
    assert (proc.stdout, stderr, proc.returncode) == (out, err, code)
    assert code == 0 and out
