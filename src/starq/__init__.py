"""Bit rate and perceptual quality of compressed video as analytic functions
of quantization stepsize, frame size and frame rate, plus the workflows they
enable: parameter fitting from encode logs, parameter prediction from content
features, rate-constrained operating-point selection and scalable-layer
ordering.

Importing the package is lazy: ``import starq`` loads no submodule, and each
public name (or submodule) is imported from its home module on first access,
so a process loads only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# The home module of every public name.
_HOMES = {
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
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # Called only for names not yet in the package globals (PEP 562).
    if name in _HOMES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_HOMES})
