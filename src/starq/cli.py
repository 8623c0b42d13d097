"""Command-line front end.

Subcommands cover the full workflow: fit rate parameters from an encode log,
predict rates from a model file, predict parameters from content features,
solve rate-constrained operating-point selection, and order scalable layers.
Machine-readable output goes to stdout; warnings and summaries go to stderr.

Exit codes: 0 success, 2 input error, 3 insufficient data, 4 infeasible.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import InfeasibleError, InsufficientDataError, StarqError
from .features import BUILTIN_PREDICTORS, FeatureVector, predict_params
from .fileio import (
    ModelFile,
    _read_config,
    _read_csv,
    parse_frame_size,
    read_encode_log,
    read_levels_config,
    read_model_file,
    read_sets_config,
    write_model_file,
)
from .fitting import fit_rate_params
from .models import ResolutionRef, Star, _check, evaluate_rate
from .optimizer import optimize_continuous, optimize_discrete
from .ordering import build_layer_grid, max_rate_gap, order_backward, order_forward

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INSUFFICIENT = 3
EXIT_INFEASIBLE = 4


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _print_param_table(label: str, params, rrmse: float | None, pc: float | None) -> None:
    print(f"{'parameter':<10}{label}")
    for name, value in (("a", params.a), ("b", params.b), ("c", params.c), ("R_max", params.r_max)):
        print(f"{name:<10}{_fmt(value)}")
    if rrmse is not None:
        print(f"{'RRMSE':<10}{_fmt(100.0 * rrmse)}%")
    if pc is not None:
        print(f"{'PC':<10}{_fmt(pc)}")


def cmd_fit(args) -> int:
    log, warnings = read_encode_log(args.log)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    report = fit_rate_params(log, mode=args.mode)
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    _print_param_table(Path(args.log).stem, report.params, report.rrmse, report.pc)
    if args.out:
        model = ModelFile(ref=report.params.ref, scenario=Path(args.log).stem, rate=report.params)
        write_model_file(args.out, model)
    return EXIT_OK


def _print_csv(header: str, rows) -> None:
    # Rows are all computed first: a run that fails part way prints nothing.
    rows = list(rows)
    print(header)
    for row in rows:
        print(",".join(_fmt(x) for x in row))


def _require_rate(model: ModelFile, path) -> None:
    if model.rate is None:
        raise StarqError(f"{path}: model document has no rate parameters")


def cmd_predict_rate(args) -> int:
    model = read_model_file(args.model)
    _require_rate(model, args.model)
    rp = model.rate

    if args.sweep:
        ends = (args.sweep_from, args.sweep_to)
        lo, hi = (_check("--sweep-from and --sweep-to", v) for v in ends)
        fixed = {"q": args.q, "s": args.s, "t": args.t}
        for axis, value in fixed.items():
            if axis != args.sweep and value is None:
                raise StarqError(f"sweeping {args.sweep} requires a fixed --{axis}")
        if args.points < 1:
            raise StarqError(f"--points must be at least 1, got {args.points}")
        stars = (Star(**{**fixed, args.sweep: float(v)}) for v in np.geomspace(lo, hi, args.points))
        _print_csv("q,s,t,rate_kbps", ((x.q, x.s, x.t, evaluate_rate(rp, x)) for x in stars))
        return EXIT_OK

    if args.log:
        log, warnings = read_encode_log(args.log)
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        _print_csv("q,s,t,measured_kbps,predicted_kbps", (
            (x.star.q, x.star.s, x.star.t, x.rate, evaluate_rate(rp, x.star)) for x in log.samples
        ))
        return EXIT_OK

    if args.q is None or args.s is None or args.t is None:
        raise StarqError("need --q, --s and --t (or --sweep / --log)")
    print(_fmt(evaluate_rate(rp, Star(q=args.q, s=args.s, t=args.t))))
    return EXIT_OK


def _load_rate_and_quality(args) -> tuple:
    model = read_model_file(args.model)
    _require_rate(model, args.model)
    quality_path = args.quality_model or args.model
    quality_doc = read_model_file(quality_path)
    if quality_doc.quality is None:
        raise StarqError(f"{quality_path}: model document has no quality parameters")
    return model.rate, quality_doc.quality


def _result_doc(result, mode: str, budget: float) -> dict:
    return {
        "mode": mode,
        "budget_kbps": budget,
        "q": result.star.q,
        "s": result.star.s,
        "t": result.star.t,
        "rate_kbps": result.rate,
        "quality": result.quality,
        "feasible": True,
    }


def cmd_optimize(args) -> int:
    rp, qp = _load_rate_and_quality(args)
    if args.mode == "dyadic":
        if not args.sets:
            raise StarqError("dyadic mode requires --sets")
        sets = read_sets_config(args.sets)
        solve = lambda budget: optimize_discrete(rp, qp, sets, budget)
    else:
        solve = lambda budget: optimize_continuous(rp, qp, budget, grid=args.grid)

    if args.budget_sweep is not None:
        if args.budget_sweep < 1:
            raise StarqError(f"--budget-sweep must be at least 1, got {args.budget_sweep}")
        budgets = np.geomspace(0.01 * rp.r_max, rp.r_max, args.budget_sweep)
        results = ((b, solve(float(b))) for b in budgets)
        _print_csv("budget_kbps,q,s,t,rate_kbps,quality",
                   ((b, r.star.q, r.star.s, r.star.t, r.rate, r.quality) for b, r in results))
        return EXIT_OK

    if args.budget is None:
        raise StarqError("need --budget (or --budget-sweep)")
    result = solve(args.budget)
    print(json.dumps(_result_doc(result, args.mode, args.budget), sort_keys=True))
    return EXIT_OK


def cmd_order(args) -> int:
    rp, qp = _load_rate_and_quality(args)
    s_levels, t_levels, q_levels = read_levels_config(args.levels)
    grid = build_layer_grid(rp, qp, s_levels, t_levels, q_levels)
    path = order_forward(grid) if args.direction == "forward" else order_backward(grid)

    steps = []
    prev = None
    for step in path.steps:
        record = {
            "l": step.l, "m": step.m, "n": step.n,
            "s": step.s, "t": step.t, "q": step.q,
            "rate_kbps": step.rate, "quality": step.quality,
        }
        if prev is not None:
            record["dq_dr"] = (step.quality - prev.quality) / (step.rate - prev.rate)
        steps.append(record)
        prev = step
    gap = max_rate_gap(path)
    top_rate = path.steps[-1].rate
    doc = {
        "direction": path.direction,
        "steps": steps,
        "max_rate_gap_kbps": gap,
        "max_rate_gap_fraction": gap / top_rate,
        "flagged_steps": list(path.nonpositive_gain_steps),
    }
    print(json.dumps(doc, sort_keys=True))
    print(
        f"{path.direction} path: {len(path.steps)} layers, "
        f"max rate gap {gap:.6g} kbps ({100 * gap / top_rate:.6g}% of top rate)",
        file=sys.stderr,
    )
    return EXIT_OK


def _read_features(path) -> FeatureVector:
    """Feature record from a JSON object or a one-record CSV."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        _, rows = _read_csv(path)
        if not rows:
            raise StarqError(f"{path}: no feature records")
        doc = rows[0][1]
    else:
        doc = _read_config(path)
    try:
        return FeatureVector(
            mu_dfd=float(doc["mu_dfd"]),
            sigma_mvm=float(doc["sigma_mvm"]),
            sigma_mda=float(doc["sigma_mda"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StarqError(f"{path}: malformed feature record: {exc}") from None


def cmd_predict_params(args) -> int:
    scenario = args.scenario.upper().replace("#", "")
    if scenario not in BUILTIN_PREDICTORS:
        raise StarqError(
            f"unknown scenario {args.scenario!r}; choose from {sorted(BUILTIN_PREDICTORS)}"
        )
    if args.features:
        features = _read_features(args.features)
    else:
        if args.mu_dfd is None or args.sigma_mvm is None or args.sigma_mda is None:
            raise StarqError("need --features or all of --mu-dfd --sigma-mvm --sigma-mda")
        features = FeatureVector(
            mu_dfd=args.mu_dfd, sigma_mvm=args.sigma_mvm, sigma_mda=args.sigma_mda
        )
    ref = ResolutionRef(
        q_min=args.q_min, s_max=parse_frame_size(args.s_max), t_max=args.t_max
    )
    prediction = predict_params(BUILTIN_PREDICTORS[scenario], features, ref)
    if prediction.out_of_domain:
        print(
            "warning: prediction out of domain, clamped: "
            + ", ".join(prediction.clamped_fields),
            file=sys.stderr,
        )
    _print_param_table(scenario, prediction.params, None, None)
    if args.out:
        model = ModelFile(ref=ref, scenario=scenario, rate=prediction.params)
        write_model_file(args.out, model)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starq",
        description="Rate and quality modeling of compressed video over "
        "stepsize, frame size and frame rate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit rate parameters from a CSV encode log")
    p.add_argument("log", type=Path)
    p.add_argument("--mode", choices=("protocol", "joint"), default="protocol")
    p.add_argument("--out", type=Path, help="write the fitted model JSON here")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict-rate", help="evaluate a fitted rate model")
    p.add_argument("model", type=Path)
    p.add_argument("--q", type=float)
    p.add_argument("--s", type=parse_frame_size)
    p.add_argument("--t", type=float)
    p.add_argument("--sweep", choices=("q", "s", "t"))
    p.add_argument("--sweep-from", type=float)
    p.add_argument("--sweep-to", type=float)
    p.add_argument("--points", type=int, default=25)
    p.add_argument("--log", type=Path, help="also print measured vs predicted for this log")
    p.set_defaults(func=cmd_predict_rate)

    p = sub.add_parser("optimize", help="pick the best operating point under a budget")
    p.add_argument("model", type=Path)
    p.add_argument("--quality-model", type=Path, help="defaults to the rate model file")
    p.add_argument("--budget", type=float, help="rate budget in kbps")
    p.add_argument("--budget-sweep", type=int, metavar="N", help="emit a CSV over N budgets")
    p.add_argument("--mode", choices=("continuous", "dyadic"), default="continuous")
    p.add_argument("--sets", type=Path, help="feasible-sets JSON (dyadic mode)")
    p.add_argument("--grid", type=int, default=64, help="search resolution (continuous mode)")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("order", help="order scalable layers into a monotone path")
    p.add_argument("model", type=Path)
    p.add_argument("--quality-model", type=Path)
    p.add_argument("--levels", type=Path, required=True, help="layer-levels JSON")
    p.add_argument("--direction", choices=("forward", "backward"), default="forward")
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("predict-params", help="predict rate parameters from content features")
    p.add_argument("--scenario", required=True, help="SVC1 or SL2")
    p.add_argument("--features", type=Path, help="JSON with mu_dfd, sigma_mvm, sigma_mda")
    p.add_argument("--mu-dfd", type=float)
    p.add_argument("--sigma-mvm", type=float)
    p.add_argument("--sigma-mda", type=float)
    p.add_argument("--q-min", type=float, default=16.0)
    p.add_argument("--s-max", default="4cif")
    p.add_argument("--t-max", type=float, default=30.0)
    p.add_argument("--out", type=Path)
    p.set_defaults(func=cmd_predict_params)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Results are checked and reported as errors, so numpy warnings add nothing.
        with np.errstate(all="ignore"):
            return args.func(args)
    except InsufficientDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (StarqError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
