"""Command-line front end.

Subcommands cover the full workflow: fit rate parameters from an encode log,
predict rates from a model file, predict parameters from content features,
solve rate-constrained operating-point selection, and order scalable layers.
Machine-readable output goes to stdout; warnings and summaries go to stderr.

Exit codes: 0 success, 2 input error, 3 insufficient data, 4 infeasible.
Output that cannot be written, to a closed pipe or a closed fd 1, is an
input error, also when stderr cannot take the error line. A subcommand
accepts exactly the options its chosen mode reads: any other given option,
or a missing one the mode needs, is an input error raised before any file is
opened.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys
from pathlib import Path

import numpy as np

# Each command imports the engine module it runs, so a call loads no other engine.
from .errors import InfeasibleError, InsufficientDataError, OutOfRangeError, StarqError
from .fileio import (
    ModelFile,
    parse_frame_size,
    read_encode_log,
    read_features,
    read_levels_config,
    read_model_file,
    read_sets_config,
    write_model_file,
)
from .models import ResolutionRef, Star, _check, evaluate_rate

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INSUFFICIENT = 3
EXIT_INFEASIBLE = 4

# Most rows a sweep (--points, --budget-sweep) may print: every row is
# computed before the first is printed.
MAX_SWEEP = 100_000


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


class _Given:
    """The options given to one subcommand. Its command takes each option the
    chosen mode reads (required unless ``take`` has a default), then ``done``
    rejects the rest: the reading code alone says where an option applies."""

    def __init__(self, given: dict) -> None:
        self.mode, self.left = given.pop("command"), given

    def take(self, name: str, default=...):
        if default is ... and name not in self.left:
            raise StarqError(f"{self.mode} needs --{name.replace('_', '-')}")
        return self.left.pop(name, default)

    def done(self) -> None:
        for name in self.left:
            raise StarqError(f"--{name.replace('_', '-')} does not apply to {self.mode}")


def cmd_fit(opts: _Given) -> int:
    from .fitting import fit_rate_params

    path, mode, out = opts.take("log"), opts.take("mode", "protocol"), opts.take("out", None)
    opts.done()
    log, warnings = read_encode_log(path)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    report = fit_rate_params(log, mode=mode)
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    _print_param_table(Path(path).stem, report.params, report.rrmse, report.pc)
    if out:
        model = ModelFile(ref=report.params.ref, scenario=Path(path).stem, rate=report.params)
        write_model_file(out, model)
    return EXIT_OK


def _print_csv(header: str, rows) -> None:
    # Rows are all computed first: a run that fails part way prints nothing.
    rows = list(rows)
    print(header)
    for row in rows:
        print(",".join(_fmt(x) for x in row))


def _part(model: ModelFile, path, part: str):
    # One parameter set ("rate" or "quality") of the model document read from
    # ``path``, which must hold it.
    params = getattr(model, part)
    if params is None:
        raise StarqError(f"{path}: model document has no {part} parameters")
    return params


def cmd_predict_rate(opts: _Given) -> int:
    path, axis = opts.take("model"), opts.take("sweep", None)
    log_path = None if axis else opts.take("log", None)
    mode = f"--sweep {axis}" if axis else "--log" if log_path else "at one point"
    opts.mode = f"predict-rate {mode}"
    if axis:
        ends = (opts.take("sweep_from"), opts.take("sweep_to"))
        lo, hi = (_check("--sweep-from and --sweep-to", v) for v in ends)
        points = opts.take("points", 25)
        if not 1 <= points <= MAX_SWEEP:
            raise StarqError(f"--points must be in [1, {MAX_SWEEP}], got {points}")
    fixed = {} if log_path else {a: opts.take(a) for a in "qst" if a != axis}
    if "s" in fixed:
        fixed["s"] = parse_frame_size(fixed["s"])
    opts.done()
    rp = _part(read_model_file(path), path, "rate")

    if axis:
        stars = (Star(**{**fixed, axis: float(v)}) for v in np.geomspace(lo, hi, points))
        _print_csv("q,s,t,rate_kbps", ((x.q, x.s, x.t, evaluate_rate(rp, x)) for x in stars))
    elif log_path:
        log, warnings = read_encode_log(log_path)
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        _print_csv("q,s,t,measured_kbps,predicted_kbps", (
            (x.star.q, x.star.s, x.star.t, x.rate, evaluate_rate(rp, x.star)) for x in log.samples
        ))
    else:
        print(_fmt(evaluate_rate(rp, Star(**fixed))))
    return EXIT_OK


def _load_rate_and_quality(path, quality_path) -> tuple:
    # Each model document is read once, also when it holds both parameter sets.
    model = read_model_file(path)
    rp = _part(model, path, "rate")
    if quality_path:
        model = read_model_file(quality_path)
    return rp, _part(model, quality_path or path, "quality")


def cmd_optimize(opts: _Given) -> int:
    from .optimizer import optimize_continuous, optimize_discrete

    mode, n = opts.take("mode", "continuous"), opts.take("budget_sweep", None)
    opts.mode = f"optimize --mode {mode}" + " --budget-sweep" * (n is not None)
    if n is not None and not 1 <= n <= MAX_SWEEP:
        raise StarqError(f"--budget-sweep must be in [1, {MAX_SWEEP}], got {n}")
    budget = opts.take("budget") if n is None else None
    sets_path = opts.take("sets") if mode == "dyadic" else None
    grid = opts.take("grid", 64) if mode == "continuous" else None
    paths = opts.take("model"), opts.take("quality_model", None)
    opts.done()
    rp, qp = _load_rate_and_quality(*paths)
    if mode == "dyadic":
        sets = read_sets_config(sets_path)
        solve = lambda b: optimize_discrete(rp, qp, sets, b)
    else:
        solve = lambda b: optimize_continuous(rp, qp, b, grid=grid)

    if n is not None:
        if not 0.01 * rp.r_max:
            raise OutOfRangeError(f"--budget-sweep: 0.01 * R_max rounds to 0 at R_max {rp.r_max!r}")
        budgets = np.geomspace(0.01 * rp.r_max, rp.r_max, n)
        results = ((b, solve(float(b))) for b in budgets)
        _print_csv("budget_kbps,q,s,t,rate_kbps,quality",
                   ((b, r.star.q, r.star.s, r.star.t, r.rate, r.quality) for b, r in results))
        return EXIT_OK

    r = solve(budget)
    doc = {"mode": mode, "budget_kbps": budget, "q": r.star.q, "s": r.star.s, "t": r.star.t,
           "rate_kbps": r.rate, "quality": r.quality, "feasible": True}
    print(json.dumps(doc, sort_keys=True))
    return EXIT_OK


def cmd_order(opts: _Given) -> int:
    from .ordering import build_layer_grid, max_rate_gap, order_backward, order_forward

    paths = opts.take("model"), opts.take("quality_model", None)
    levels, direction = opts.take("levels"), opts.take("direction", "forward")
    opts.done()
    rp, qp = _load_rate_and_quality(*paths)
    s_levels, t_levels, q_levels = read_levels_config(levels)
    grid = build_layer_grid(rp, qp, s_levels, t_levels, q_levels)
    path = order_forward(grid) if direction == "forward" else order_backward(grid)

    steps = []
    for i, step in enumerate(path.steps):
        record = step._asdict()
        record["rate_kbps"] = record.pop("rate")
        if i:
            record["dq_dr"] = path.slopes[i - 1]
        steps.append(record)
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
    summary = f"max rate gap {gap:.6g} kbps ({100 * gap / top_rate:.6g}% of top rate)"
    print(f"{path.direction} path: {len(path.steps)} layers, {summary}", file=sys.stderr)
    return EXIT_OK


def cmd_predict_params(opts: _Given) -> int:
    from .features import BUILTIN_PREDICTORS, FeatureVector, predict_params

    name = opts.take("scenario")
    scenario = name.upper().replace("#", "")
    if scenario not in BUILTIN_PREDICTORS:
        raise StarqError(f"unknown scenario {name!r}; choose from {sorted(BUILTIN_PREDICTORS)}")
    path = opts.take("features", None)
    opts.mode = "predict-params " + ("--features" if path else "without --features")
    values = {} if path else {k: opts.take(k) for k in ("mu_dfd", "sigma_mvm", "sigma_mda")}
    q_min, s_max = opts.take("q_min", 16.0), opts.take("s_max", "4cif")
    t_max, out = opts.take("t_max", 30.0), opts.take("out", None)
    opts.done()
    features = read_features(path) if path else FeatureVector(**values)
    ref = ResolutionRef(q_min=q_min, s_max=parse_frame_size(s_max), t_max=t_max)
    prediction = predict_params(BUILTIN_PREDICTORS[scenario], features, ref)
    if prediction.out_of_domain:
        fields = ", ".join(prediction.clamped_fields)
        print(f"warning: prediction out of domain, clamped: {fields}", file=sys.stderr)
    _print_param_table(scenario, prediction.params, None, None)
    if out:
        model = ModelFile(ref=ref, scenario=scenario, rate=prediction.params)
        write_model_file(out, model)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads any word ``float`` accepts, such as
    ``-1e-05`` or ``-inf``, as a value and never as an option name, and whose
    help and usage text that cannot be written raises, where argparse's own
    writer ignores the failure; its subcommand parsers are of this class too."""

    def _print_message(self, message, file=None):
        stream = file or sys.stderr  # help meant for a closed fd 1 goes to stderr
        if message and stream is not None:
            _write(stream, message)

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="starq",
        description="Rate and quality modeling of compressed video over "
        "stepsize, frame size and frame rate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help: str) -> argparse.ArgumentParser:
        # Only the options given on the command line reach the namespace.
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        p.set_defaults(func=func)
        return p

    p = add("fit", cmd_fit, "fit rate parameters from a CSV encode log")
    p.add_argument("log", type=Path)
    p.add_argument("--mode", choices=("protocol", "joint"), help="default protocol")
    p.add_argument("--out", type=Path, help="write the fitted model JSON here")

    p = add("predict-rate", cmd_predict_rate, "evaluate a fitted rate model")
    p.add_argument("model", type=Path)
    g = p.add_argument_group("one point, or the two fixed axes of --sweep")
    g.add_argument("--q", type=float)
    g.add_argument("--s")
    g.add_argument("--t", type=float)
    g = p.add_argument_group("--sweep mode")
    g.add_argument("--sweep", choices=("q", "s", "t"), help="the axis to sweep")
    g.add_argument("--sweep-from", type=float)
    g.add_argument("--sweep-to", type=float)
    g.add_argument("--points", type=int, help="number of rows (default 25)")
    g = p.add_argument_group("--log mode")
    g.add_argument("--log", type=Path, help="print measured vs predicted rates for this log")

    p = add("optimize", cmd_optimize, "pick the best operating point under a budget")
    p.add_argument("model", type=Path)
    p.add_argument("--quality-model", type=Path, help="defaults to the rate model file")
    p.add_argument("--budget", type=float, help="rate budget in kbps (without --budget-sweep)")
    p.add_argument("--budget-sweep", type=int, metavar="N", help="emit a CSV over N budgets")
    p.add_argument("--mode", choices=("continuous", "dyadic"), help="default continuous")
    g = p.add_argument_group("dyadic mode")
    g.add_argument("--sets", type=Path, help="feasible-sets JSON (required)")
    g = p.add_argument_group("continuous mode")
    g.add_argument("--grid", type=int, help="search resolution (default 64)")

    p = add("order", cmd_order, "order scalable layers into a monotone path")
    p.add_argument("model", type=Path)
    p.add_argument("--quality-model", type=Path, help="defaults to the rate model file")
    p.add_argument("--levels", type=Path, required=True, help="layer-levels JSON")
    p.add_argument("--direction", choices=("forward", "backward"), help="default forward")

    p = add("predict-params", cmd_predict_params, "predict rate parameters from content features")
    p.add_argument("--scenario", required=True, help="SVC1 or SL2")
    p.add_argument("--q-min", type=float, help="default 16")
    p.add_argument("--s-max", help="default 4cif")
    p.add_argument("--t-max", type=float, help="default 30")
    p.add_argument("--out", type=Path)
    g = p.add_argument_group("--features mode")
    g.add_argument("--features", type=Path, help="JSON or CSV with mu_dfd, sigma_mvm, sigma_mda")
    g = p.add_argument_group("without --features (all three required)")
    g.add_argument("--mu-dfd", type=float)
    g.add_argument("--sigma-mvm", type=float)
    g.add_argument("--sigma-mda", type=float)

    return parser


def main(argv=None) -> int:
    """Run the command line ``argv`` (``sys.argv[1:]`` if None) in this
    process and return its exit code; argparse exits itself on ``--help`` and
    on usage errors, once their text is written."""
    try:
        given = vars(build_parser().parse_args(argv))
        func = given.pop("func")
        if sys.stdout is None:  # fd 1 was closed: every print would be dropped
            raise StarqError("stdout is closed")
        # Results are checked and reported as errors, so numpy warnings add nothing.
        with np.errstate(all="ignore"):
            code = func(_Given(given))
        _write(sys.stdout)
        return code
    except (StarqError, OSError) as exc:
        _report(f"error: {exc}\n")
        if isinstance(exc, InsufficientDataError):
            return EXIT_INSUFFICIENT
        return EXIT_INFEASIBLE if isinstance(exc, InfeasibleError) else EXIT_INPUT


def _write(stream, text: str = "") -> None:
    # ``text`` written to ``stream`` and everything buffered flushed. Output
    # still buffered at the interpreter's exit flush would meet a closed pipe
    # there, which reports it as an ignored exception and exits 120. Here the
    # failure is the caller's; the stream's fd then points at the null
    # device, as Python's notes on SIGPIPE advise, so the exit flush of the
    # bytes left cannot fail again.
    try:
        stream.write(text)
        stream.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        raise


def _report(text: str) -> None:
    # ``text`` on stderr, or where print sends it when fd 2 was closed. Output
    # that cannot take it, such as a closed pipe, leaves the exit code to tell.
    stream = sys.stderr or sys.stdout
    if stream is not None:
        with contextlib.suppress(OSError):
            _write(stream, text)


def run() -> None:
    """The process entry of the ``starq`` command: :func:`main` on
    ``sys.argv``, then exit with its code.

    Before the exit, ``gc.freeze()`` moves every object the cyclic collector
    tracks to its permanent generation, which no later collection scans, so
    the full collections of interpreter finalization skip the objects numpy
    and starq leave behind. Exit handlers, stream flushing and module teardown
    still run. :func:`main` never freezes: a process that calls it lives on.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
