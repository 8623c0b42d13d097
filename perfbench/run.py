#!/usr/bin/env python3
"""starq benchmark: end-to-end metrics per workload and a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {cli_oneshot,adapt_stream,model_build} \
        --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` of the checkout; the run stops with a
non-zero exit and prints no result when those sources are missing. Every
workload is a closed loop with one client on one thread: the next operation
starts when the previous one has returned (for ``cli_oneshot``, when the
child process has been reaped), so nothing queues.

Workloads, and why each was chosen:

- ``cli_oneshot``: one fresh ``python -m starq.cli`` process per operation,
  cycling through fit (protocol and joint), predict-rate --sweep t,
  optimize --budget, optimize --mode dyadic, optimize --budget-sweep 50,
  order in both directions and predict-params. Interpreter start and
  ``import starq`` (scipy.optimize above all) are nearly all of a call, so
  this workload shows import and dependency work and no change from faster
  arithmetic.
- ``adapt_stream``: an in-process stream adapter serving six streams, one
  per grid in {32, 64, 128} with and without the dyadic ladder. Each stream
  runs sessions that draw a sequence and scenario and follow a seeded
  log-random-walk budget. One operation is one tick: a decision per stream
  (``optimize_continuous``, ``optimize_discrete`` for the dyadic half,
  ``evaluate_rate`` and ``evaluate_quality`` at the chosen point). The
  optimizer and the models do nearly all the work; fitting, ordering, file
  I/O and import do none, so changes to those should leave this workload
  unchanged. It also carries the per-call cost of scalar validation.
- ``model_build``: an offline build of one model from one CSV log: read,
  normalize and fit each axis, protocol and joint fits, parameter
  prediction, ordering on the 3x4x4 ladder and on a finer lattice, and the
  50-budget optimal quality curve with its Q(R) fit and path losses. Fitting,
  the solvers, ordering and the batch use of the optimizer dominate, so a
  gain for batch optimization that costs the per-decision use in
  ``adapt_stream`` shows up as a change on both.

End-to-end metrics (``--trace 0``), the same names for every workload; one
operation is a CLI call, an adapter tick or a model build:

- ``setup_s``: median over several fresh runner processes, started at even
  intervals through the run, of the wall time from process start to the end
  of set-up (imports and inputs), when the first operation could start,
  scaled to a host of fixed speed like ``ops_per_s_norm`` below, with
  ``host_reference`` timed just before and after each process.
- ``ops_per_s_norm``: operations completed per second of operation time at
  the fixed input sizes above, scaled to a host of fixed speed. The timed
  loop runs in slices of about ``SLICE_S``; after each slice it times a fixed
  reference kernel (``host_reference``: interpreter loop, small numpy arrays,
  dict building; no starq code). Each slice's operation time is multiplied by
  ``NOMINAL_REF_S`` over that reference time, so the value is the rate on a
  host where the kernel takes ``NOMINAL_REF_S``. A shared host's speed can
  drift by up to 40% for tens of seconds at a time, which the raw rate
  follows and a 30-s run cannot average out; the scaled rate moved a third
  as much between runs. A change to the program moves it as it moves the raw
  rate, which the results file keeps under the workload's own name
  (``build_models_per_s`` and so on), with ``setup_s_raw`` and the reference
  times.
- ``peak_rss_mb``: peak resident memory; for ``cli_oneshot`` the peak over
  the child processes.

The table printed before the summary line and the results file also give
each workload's latency median and tail (the highest percentile that keeps
at least ten samples beyond it: p70 for ``cli_oneshot``, p99 for the others)
under workload-specific names, with sample counts. They are not summary
metrics: they follow the host's speed like the raw rate and moved by more
than 25% between runs of the same code.

Failed or wrong operations are counted in ``failed`` and never timed. The
per-layer metrics (``--trace 1``) come from spans the benchmark records
around its own calls into each module; see ``PER_LAYER_UNITS``. Full results
(environment, workload-specific metric names with sample counts, ratio
bases, failures) and the span log go to ``.perfbench_out/``. The last line
of standard output is the JSON summary.
"""

from __future__ import annotations

import os

# Single-threaded numeric libraries for this process and every child.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import inspect
import io
import json
import math
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

if not (SRC / "starq" / "__init__.py").is_file():
    sys.exit(f"perfbench: no starq sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np

import inputs
from spans import Tracer
from starq import (
    BUILTIN_PREDICTORS,
    FeasibleSets,
    FeatureVector,
    InfeasibleError,
    OrderedPath,
    QualityParams,
    RateParams,
    ResolutionRef,
    Star,
    build_layer_grid,
    evaluate_quality,
    evaluate_rate,
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
    path_quality_loss,
    predict_params,
    quality_surface,
    rate_surface,
)
from starq.cli import main as cli_main
from starq.fileio import read_encode_log, read_levels_config, read_model_file, read_sets_config
from starq.fitting import EncodeLog, RateSample

SETUP_PROBES = 5
SLICE_S = 0.5
NOMINAL_REF_S = 0.015
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 60.0
BRUTE_FORCE_EVERY = 50
CENSUS_OPS = 3
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s_norm": "1/s",
    "peak_rss_mb": "MB",
}

IMPORT_PROBES = {
    "import.bare_python_s": "pass",
    "import.numpy_s": "import numpy",
    "import.scipy_optimize_s": "import scipy.optimize",
    "import.starq_s": "import starq",
}
LAYER_FUNCTIONS = (
    "cli.main",
    "fileio.read_encode_log",
    "fileio.read_model_file",
    "fileio.read_sets_config",
    "fileio.read_levels_config",
    "fitting.normalize_nrq",
    "fitting.normalize_nrt",
    "fitting.normalize_nrs",
    "fitting.fit_power_exponent",
    "fitting.fit_rate_params.protocol",
    "fitting.fit_rate_params.joint",
    "features.predict_params",
    "models.evaluate_rate",
    "models.evaluate_quality",
    "optimizer.optimize_continuous",
    "optimizer.optimize_discrete",
    "optimizer.optimal_quality_curve",
    "optimizer.fit_qr",
    "ordering.build_layer_grid",
    "ordering.order_forward",
    "ordering.order_backward",
    "ordering.path_quality_loss",
)
# ratio name -> (numerator counter, base counter)
RATIOS = {
    "fitting.joint_fallback_ratio": ("fitting.joint_fallback", "fitting.joint_fits"),
    "fitting.loglinear_seed_ratio": ("fitting.loglinear_seed", "fitting.joint_fits"),
    "optimizer.q_clamped_ratio": ("optimizer.q_clamped", "optimizer.results"),
    "optimizer.infeasible_ratio": ("optimizer.infeasible", "optimizer.discrete_calls"),
}
PER_LAYER_UNITS = {
    **{name: "s" for name in IMPORT_PROBES},
    **{
        f"{fn}.{stat}": unit
        for fn in LAYER_FUNCTIONS
        for stat, unit in (("calls", "count"), ("busy_s", "s"), ("p50_us", "us"))
    },
    **{name: "ratio" for name in RATIOS},
    "ordering.flagged_steps": "count",
    "glue.busy_s": "s",
    "trace_overhead_frac": "ratio",
}


class CheckFailed(Exception):
    """An operation returned a result that fails its correctness check."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(x: float, y: float, rel: float) -> bool:
    return math.isclose(x, y, rel_tol=rel, abs_tol=1e-12)


REF = ResolutionRef(*inputs.REF)
DYADIC = FeasibleSets(
    s_values=inputs.LAYER_S, t_values=inputs.LAYER_T, q_range=inputs.DYADIC_Q_RANGE
)
LADDER = (inputs.LAYER_S, inputs.LAYER_T, inputs.LAYER_Q)


def rate_params(sequence: str, scenario: str) -> RateParams:
    a, b, c, r_max = inputs.RATE_TABLES[scenario][sequence]
    return RateParams(a=a, b=b, c=c, r_max=r_max, ref=REF)


def quality_params(sequence: str) -> QualityParams:
    return QualityParams(*inputs.QUALITY_TABLE[sequence], ref=REF)


def read_sets(path) -> FeasibleSets:
    # The reference argument is unused and slated for removal; pass it only
    # while the signature still takes it.
    if len(inspect.signature(read_sets_config).parameters) > 1:
        return read_sets_config(path, REF)
    return read_sets_config(path)


def run_child(argv, stem: Path) -> tuple[float, int, int]:
    """Run one child to completion. Returns (wall seconds from spawn to reap,
    exit code, peak RSS in KiB); stdout and stderr go to ``stem``.out/.err."""
    with open(f"{stem}.out", "wb") as out, open(f"{stem}.err", "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT, env=CHILD_ENV
        )
        # A pidfd wakes select() at exit, so the wait has a timeout without
        # polling, and wait4() then reports the child's own peak RSS.
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited, _, _ = select.select([pidfd], [], [], CHILD_TIMEOUT_S)
        finally:
            os.close(pidfd)
        if not exited:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if not exited:
        raise CheckFailed(f"{argv[1:4]} did not finish within {CHILD_TIMEOUT_S} s")
    return elapsed, proc.returncode, usage.ru_maxrss


# --------------------------------------------------------------------------
# cli_oneshot


CLI_VARIANTS = (
    "fit-protocol",
    "fit-joint",
    "predict-rate",
    "optimize",
    "optimize-dyadic",
    "budget-sweep",
    "order-forward",
    "order-backward",
    "predict-params",
)
OPTIMIZE_KEYS = ("budget_kbps", "q", "s", "t", "rate_kbps", "quality")


def cli_argv(variant: str, inst: dict) -> list[str]:
    p = inst["paths"]
    if variant.startswith("fit-"):
        return ["fit", p["log.csv"], "--mode", variant[4:]]
    if variant == "predict-rate":
        return ["predict-rate", p["model.json"], "--sweep", "t", "--sweep-from", "1.875",
                "--sweep-to", "30", "--q", repr(inst["sweep_q"]), "--s", "4cif"]
    if variant == "optimize":
        return ["optimize", p["model.json"], "--budget", repr(inst["budget"])]
    if variant == "optimize-dyadic":
        return ["optimize", p["model.json"], "--mode", "dyadic", "--sets", p["sets.json"],
                "--budget", repr(inst["dyadic_budget"])]
    if variant == "budget-sweep":
        return ["optimize", p["model.json"], "--budget-sweep", "50"]
    if variant.startswith("order-"):
        return ["order", p["model.json"], "--levels", p["levels.json"], "--direction", variant[6:]]
    return ["predict-params", "--scenario", inst["predictor"], "--features", p["features.json"]]


def cli_expected(variant: str, inst: dict) -> list[float]:
    """The numbers the subcommand should print, from direct library calls on
    the generated objects."""
    rp = rate_params(inst["sequence"], inst["scenario"])
    qp = quality_params(inst["sequence"])
    if variant.startswith("fit-"):
        log = EncodeLog.from_samples(
            RateSample(star=Star(q=q, s=s, t=t), rate=rate) for q, s, t, rate in inst["rows"]
        )
        report = fit_rate_params(log, mode=variant[4:])
        p = report.params
        return [p.a, p.b, p.c, p.r_max, 100.0 * report.rrmse, report.pc]
    if variant == "predict-rate":
        stars = [Star(q=inst["sweep_q"], s=inputs.CIF4, t=float(t))
                 for t in np.geomspace(1.875, 30.0, 25)]
        return [v for x in stars for v in (x.q, x.s, x.t, evaluate_rate(rp, x))]
    if variant in ("optimize", "optimize-dyadic", "budget-sweep"):
        if variant == "optimize-dyadic":
            budgets = [inst["dyadic_budget"]]
            results = [optimize_discrete(rp, qp, DYADIC, budgets[0])]
        else:
            budgets = ([inst["budget"]] if variant == "optimize"
                       else [float(b) for b in np.geomspace(0.01 * rp.r_max, rp.r_max, 50)])
            results = [optimize_continuous(rp, qp, b, grid=64) for b in budgets]
        return [v for b, r in zip(budgets, results)
                for v in (b, r.star.q, r.star.s, r.star.t, r.rate, r.quality)]
    if variant.startswith("order-"):
        grid = build_layer_grid(rp, qp, *LADDER)
        path = order_forward(grid) if variant == "order-forward" else order_backward(grid)
        steps = [v for st in path.steps for v in (st.l, st.m, st.n, st.rate, st.quality)]
        gaps = [b.rate - a.rate for a, b in zip(path.steps, path.steps[1:])]
        return steps + [max(gaps)]
    features = FeatureVector(**inst["features"])
    p = predict_params(BUILTIN_PREDICTORS[inst["predictor"]], features, REF).params
    return [p.a, p.b, p.c, p.r_max]


def cli_numbers(variant: str, stdout: str) -> list[float]:
    """The numbers a subcommand printed, in the order of cli_expected."""
    lines = stdout.splitlines()
    if variant.startswith("fit-") or variant == "predict-params":
        return [float(line.split()[1].rstrip("%")) for line in lines[1:]]
    if variant in ("predict-rate", "budget-sweep"):
        return [float(v) for line in lines[1:] for v in line.split(",")]
    doc = json.loads(stdout)
    if variant.startswith("order-"):
        steps = [st[k] for st in doc["steps"] for k in ("l", "m", "n", "rate_kbps", "quality")]
        return steps + [doc["max_rate_gap_kbps"]]
    return [doc[k] for k in OPTIMIZE_KEYS]


def check_cli_output(variant: str, code: int, stdout: str, stderr: str, expected) -> None:
    check(code == 0, f"{variant}: exit code {code}: {stderr.strip()[-200:]}")
    check("Traceback" not in stderr, f"{variant}: traceback on stderr")
    try:
        got = cli_numbers(variant, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise CheckFailed(f"{variant}: unparsable stdout: {exc}") from None
    check(len(got) == len(expected), f"{variant}: {len(got)} values, expected {len(expected)}")
    for g, e in zip(got, expected):
        check(close(g, e, 1e-6), f"{variant}: printed {g!r}, library gives {e!r}")


class Workload:
    """A workload sets up its inputs, then runs numbered operations; ``op``
    returns the operation's wall time and raises on a wrong result."""

    def begin_timing(self) -> None:
        """Called between warm-up and the timed operations."""

    def extra_metrics(self, total_s: float) -> dict:
        """Workload-specific metrics for the results file."""
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class CliOneshot(Workload):
    name = "cli_oneshot"
    tail_pct = 70
    warmup = 1
    human = ("cli_call_s", "s", 1.0, "cli_calls_per_s")

    def setup(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.instances = inputs.cli_inputs(seed, workdir)
        self.expected = {
            (variant, k): cli_expected(variant, inst)
            for k, inst in enumerate(self.instances)
            for variant in CLI_VARIANTS
        }
        self.peak_rss_kib = 0

    def op(self, i: int, tr: Tracer) -> float:
        variant = CLI_VARIANTS[i % len(CLI_VARIANTS)]
        k = (i // len(CLI_VARIANTS)) % len(self.instances)
        argv = [sys.executable, "-m", "starq.cli", *cli_argv(variant, self.instances[k])]
        stem = self.workdir / "child"
        start = perf_counter()
        with tr.span(tr.root):
            with tr.span("cli.process"):
                _, code, rss_kib = run_child(argv, stem)
        elapsed = perf_counter() - start
        self.peak_rss_kib = max(self.peak_rss_kib, rss_kib)
        check_cli_output(
            variant,
            code,
            Path(f"{stem}.out").read_text(),
            Path(f"{stem}.err").read_text(),
            self.expected[variant, k],
        )
        return elapsed

    def census(self, tr: Tracer) -> None:
        """Each subcommand once through ``cli.main`` in this process, after a
        warm import, with the files it reads also read through fileio."""
        inst = self.instances[0]
        p = inst["paths"]
        for variant in CLI_VARIANTS:
            reads = []
            if variant.startswith("fit-"):
                reads.append(("fileio.read_encode_log", read_encode_log, p["log.csv"]))
            elif variant != "predict-params":
                reads.append(("fileio.read_model_file", read_model_file, p["model.json"]))
            if variant == "optimize-dyadic":
                reads.append(("fileio.read_sets_config", read_sets, p["sets.json"]))
            if variant.startswith("order-"):
                reads.append(("fileio.read_levels_config", read_levels_config, p["levels.json"]))
            out, err = io.StringIO(), io.StringIO()
            with tr.span(tr.root):
                for span_name, reader, path in reads:
                    with tr.span(span_name):
                        reader(path)
                with tr.span("cli.main"):
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli_main(cli_argv(variant, inst))
            check_cli_output(variant, code, out.getvalue(), err.getvalue(), self.expected[variant, 0])

    def peak_rss_mb(self) -> float:
        return self.peak_rss_kib * 1024 / 1e6


# --------------------------------------------------------------------------
# adapt_stream


def brute_force_discrete(rp: RateParams, qp: QualityParams, sets: FeasibleSets, budget: float):
    """Best quality over every ladder pair and 400 stepsizes in the range
    whose rate fits the budget, or None when no such point exists."""
    s = np.asarray(sets.s_values)[:, None, None]
    t = np.asarray(sets.t_values)[None, :, None]
    q = np.geomspace(*sets.q_range, 400)[None, None, :]
    feasible = rate_surface(rp, q, s, t) <= budget
    if not feasible.any():
        return None
    return float(quality_surface(qp, q, s, t)[feasible].max())


class AdaptStream(Workload):
    """One operation is one adapter tick: a decision for every stream."""

    name = "adapt_stream"
    tail_pct = 99
    warmup = 5
    human = ("adapt_tick_ms", "ms", 1e3, "adapt_ticks_per_s")

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.rate = {
            (seq, scen): rate_params(seq, scen)
            for scen in inputs.SCENARIOS
            for seq in inputs.SEQUENCES
        }
        self.quality = {seq: quality_params(seq) for seq in inputs.SEQUENCES}
        self.rounds = inputs.adapt_rounds(seed)
        self.sessions = None
        self.discrete_calls = 0
        self.decision_times: list[float] = []

    def begin_timing(self) -> None:
        self.decision_times = []

    def op(self, i: int, tr: Tracer) -> float:
        tick = i % inputs.ADAPT_TICKS
        if tick == 0 or self.sessions is None:
            self.sessions = next(self.rounds)
        return self.tick(self.sessions, tick, tr)

    def tick(self, sessions, tick: int, tr: Tracer) -> float:
        start = perf_counter()
        with tr.span(tr.root):
            decisions = [self.decide(s, s["budgets"][tick], tr) for s in sessions]
        elapsed = perf_counter() - start
        self.decision_times += [d[0] for d in decisions]
        for session, decision in zip(sessions, decisions):
            self.check_decision(session, session["budgets"][tick], *decision[1:], tr)
        return elapsed

    def decide(self, session: dict, budget: float, tr: Tracer):
        rp = self.rate[session["sequence"], session["scenario"]]
        qp = self.quality[session["sequence"]]
        disc = None
        start = perf_counter()
        with tr.span("optimizer.optimize_continuous"):
            cont = optimize_continuous(rp, qp, budget, grid=session["grid"])
        if session["dyadic"]:
            with tr.span("optimizer.optimize_discrete"):
                try:
                    disc = optimize_discrete(rp, qp, DYADIC, budget)
                except InfeasibleError:
                    pass
        chosen = cont if disc is None else disc
        with tr.span("models.evaluate_rate"):
            rate = evaluate_rate(rp, chosen.star)
        with tr.span("models.evaluate_quality"):
            quality = evaluate_quality(qp, chosen.star)
        return perf_counter() - start, cont, disc, rate, quality

    def check_decision(self, session, budget, cont, disc, rate, quality, tr: Tracer) -> None:
        chosen = cont if disc is None else disc
        for result in (cont, disc):
            if result is None:
                continue
            tr.count("optimizer.results")
            if result.star.q <= REF.q_min * (1 + 1e-12) and result.rate < budget * (1 - 1e-9):
                tr.count("optimizer.q_clamped")
            check(result.rate <= budget * (1 + 1e-9), f"rate {result.rate} above budget {budget}")
        check(rate <= budget * (1 + 1e-9), f"evaluate_rate {rate} above budget {budget}")
        check(abs(chosen.quality - quality) <= 1e-12,
              f"quality {chosen.quality} but evaluate_quality gives {quality}")
        check(0.0 <= quality <= 1.0, f"quality {quality} outside [0, 1]")
        if not session["dyadic"]:
            return
        tr.count("optimizer.discrete_calls")
        tr.count("optimizer.infeasible", disc is None)
        self.discrete_calls += 1
        if self.discrete_calls % BRUTE_FORCE_EVERY == 1:
            rp = self.rate[session["sequence"], session["scenario"]]
            best = brute_force_discrete(rp, self.quality[session["sequence"]], DYADIC, budget)
            if disc is None:
                check(best is None, f"discrete infeasible at {budget} but brute force finds {best}")
            else:
                check(best is None or disc.quality >= best - 1e-12,
                      f"discrete quality {disc.quality} below brute force {best}")

    def census(self, tr: Tracer) -> None:
        sessions = next(inputs.adapt_rounds(self.seed))
        for tick in range(CENSUS_OPS):
            self.tick(sessions, tick, tr)

    def extra_metrics(self, total_s: float) -> dict:
        times = self.decision_times
        n = len(times)
        return {
            "adapt_decisions_per_s": {"value": n / total_s, "unit": "1/s", "n": n},
            "adapt_decision_us_p50": {"value": percentile(times, 50) * 1e6, "unit": "us", "n": n},
            "adapt_decision_us_p99": {"value": percentile(times, 99) * 1e6, "unit": "us", "n": n,
                                      "samples_beyond": n / 100},
        }


# --------------------------------------------------------------------------
# model_build


def check_path(path: OrderedPath, shape) -> None:
    # Rebuilding the path reruns OrderedPath's own validation.
    OrderedPath(steps=path.steps, direction=path.direction,
                nonpositive_gain_steps=path.nonpositive_gain_steps)
    first, last = path.steps[0], path.steps[-1]
    check(len(path.steps) == sum(shape) - 2, f"{path.direction} path has {len(path.steps)} steps")
    check((first.l, first.m, first.n) == (0, 0, 0), "path does not start at the base layer")
    check((last.l, last.m, last.n) == tuple(n - 1 for n in shape), "path does not end at the top")


class ModelBuild(Workload):
    name = "model_build"
    tail_pct = 99
    warmup = 4
    human = ("build_model_ms", "ms", 1e3, "build_models_per_s")

    def setup(self, seed: int, workdir: Path) -> None:
        self.pool = inputs.build_inputs(seed, workdir)
        for entry in self.pool:
            entry["fine"] = inputs.fine_lattice(entry["fine_shape"])
        self.quality = {seq: quality_params(seq) for seq in inputs.SEQUENCES}

    def op(self, i: int, tr: Tracer) -> float:
        return self.build(self.pool[i % len(self.pool)], tr)

    def build(self, entry: dict, tr: Tracer) -> float:
        qp = self.quality[entry["sequence"]]
        exponents = []
        protocol = None
        paths = []
        losses = []
        start = perf_counter()
        with tr.span(tr.root):
            with tr.span("fileio.read_encode_log"):
                log, _ = read_encode_log(entry["path"])
            if entry["anchors"]:
                with tr.span("fitting.normalize_nrq"):
                    nrq = normalize_nrq(log)
                with tr.span("fitting.normalize_nrt"):
                    nrt = normalize_nrt(log)
                with tr.span("fitting.normalize_nrs"):
                    nrs = normalize_nrs(log)
                for points, direction in ((nrq, "decreasing"), (nrt, "increasing"), (nrs, "increasing")):
                    with tr.span("fitting.fit_power_exponent"):
                        exponents.append(fit_power_exponent(points, direction))
                with tr.span("fitting.fit_rate_params.protocol"):
                    protocol = fit_rate_params(log, mode="protocol")
            with tr.span("fitting.fit_rate_params.joint"):
                joint = fit_rate_params(log, mode="joint")
            features = FeatureVector(**entry["features"])
            with tr.span("features.predict_params"):
                prediction = predict_params(BUILTIN_PREDICTORS[entry["predictor"]], features, log.ref)
            rp = joint.params
            for levels in (LADDER, entry["fine"]):
                with tr.span("ordering.build_layer_grid"):
                    grid = build_layer_grid(rp, qp, *levels)
                with tr.span("ordering.order_forward"):
                    paths.append((order_forward(grid), grid.shape))
                with tr.span("ordering.order_backward"):
                    paths.append((order_backward(grid), grid.shape))
            with tr.span("optimizer.optimal_quality_curve"):
                curve = optimal_quality_curve(rp, qp)
            with tr.span("optimizer.fit_qr"):
                qr = fit_qr(curve, rp.r_max)
            for path, _ in paths:
                with tr.span("ordering.path_quality_loss"):
                    losses.append(path_quality_loss(path, qr.model))
        elapsed = perf_counter() - start

        tr.count("fitting.joint_fits")
        tr.count("fitting.joint_fallback", any("kept the seed fit" in w for w in joint.warnings))
        tr.count("fitting.loglinear_seed", any("log-domain regression" in w for w in joint.warnings))
        truth = inputs.RATE_TABLES[entry["scenario"]][entry["sequence"]]
        for report in (protocol, joint):
            if report is None:
                continue
            p = report.params
            if entry["noise"] == 0:
                for got, want in zip((p.a, p.b, p.c, p.r_max), truth):
                    check(close(got, want, 1e-6), f"noiseless fit gives {got}, generated {want}")
            else:
                check(report.pc >= 0.99, f"fit PC {report.pc} below 0.99")
        if entry["noise"] == 0:
            for got, want in zip(exponents, truth):
                check(close(got, want, 1e-6), f"noiseless exponent {got}, generated {want}")

        h = BUILTIN_PREDICTORS[entry["predictor"]].as_array()
        raw = h @ np.array([1.0, features.mu_dfd, features.sigma_mvm, features.sigma_mda])
        check(all(close(g, w, 1e-9) for g, w in zip(prediction.raw, raw)), "predictor output differs")
        pp = prediction.params
        check((pp.a, pp.b, pp.c) == tuple(max(float(v), 0.0) for v in prediction.raw[:3]),
              "predicted exponents not clamped at 0 as reported")

        for path, shape in paths:
            check_path(path, shape)
            tr.count("ordering.flagged_steps", len(path.nonpositive_gain_steps))
        budgets = [b for b, _ in curve]
        qualities = [q for _, q in curve]
        check(len(curve) == 50, f"curve has {len(curve)} points")
        check(all(b0 < b1 for b0, b1 in zip(budgets, budgets[1:])), "curve budgets not increasing")
        check(all(0.0 <= q <= 1.0 for q in qualities), "curve quality outside [0, 1]")
        check(all(q1 >= q0 - 1e-12 for q0, q1 in zip(qualities, qualities[1:])),
              "optimal quality falls as the budget grows")
        check(math.isfinite(qr.rmse) and qr.model.kappa > 0, f"bad Q(R) fit {qr}")
        check(all(math.isfinite(v) for v in losses), "path quality loss not finite")
        return elapsed

    def census(self, tr: Tracer) -> None:
        anchored = [entry for entry in self.pool if entry["anchors"]]
        for entry in anchored[:CENSUS_OPS]:
            self.build(entry, tr)


WORKLOADS = {w.name: w for w in (CliOneshot, AdaptStream, ModelBuild)}


# --------------------------------------------------------------------------
# measurement and reporting


class Runner:
    """Runs operations and counts attempts and failures."""

    def __init__(self, tr: Tracer) -> None:
        self.tr = tr
        self.attempted = 0
        self.failures: list[str] = []

    def attempt(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # every failure is counted, the run goes on
            self.failures.append(f"{type(exc).__name__}: {exc}"[:300])
            return None


def setup_probe(args, k: int) -> float:
    """Wall time of a fresh runner process from spawn to the end of set-up."""
    workdir = OUT / f"probe-{args.workload}-{k}"
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
            "--setup-probe", str(workdir)]
    start = perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, cwd=ROOT)
    with proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return elapsed


def import_times(workdir: Path) -> dict[str, float]:
    """Median fresh-process wall time of each import probe."""
    result = {}
    for name, code in IMPORT_PROBES.items():
        times = []
        for _ in range(IMPORT_REPEATS):
            elapsed, status, _ = run_child([sys.executable, "-c", code], workdir / "import")
            if status != 0:
                raise RuntimeError(f"`{code}` exited with {status}")
            times.append(elapsed)
        result[name] = statistics.median(times)
    return result


def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    from importlib.metadata import PackageNotFoundError, version

    def package_version(name):
        try:
            return version(name)
        except PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = git.stdout.strip() or None
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": package_version("numpy"),
        "scipy": package_version("scipy"),
        "git_commit": commit,
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
    }


def percentile(samples, pct: float) -> float:
    return float(np.percentile(samples, pct))


_REF_ARRAY = np.linspace(0.1, 1.0, 64)


def host_reference() -> float:
    """Wall time of a fixed kernel that stands for the host's current speed:
    an interpreter loop, small numpy array operations and dict building, the
    kinds of work the workloads do. It calls no starq code, so a change to
    the program leaves it alone."""
    start = perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i
    x = _REF_ARRAY
    for _ in range(1_500):
        x = np.sqrt(x * x + 1.0) - 0.5
    _ = {str(i): i for i in range(30_000)}
    return perf_counter() - start


def timed_loop(workload, runner: Runner, seconds: float, traced_every: int,
               interlude=None, chunks: int = 1):
    """Run operations for ``seconds`` of wall time, split into ``chunks``
    equal parts with ``interlude`` run untimed before each. Within a chunk,
    operations run in slices of at least ``SLICE_S``, each followed by
    ``host_reference``. With ``traced_every`` = 2, odd operations are traced
    and even ones are not. Returns the untraced and traced operation times
    and, per slice, (untraced operation time, reference time)."""
    tr = runner.tr
    tr.enabled = False
    for i in range(workload.warmup):
        runner.attempt(workload.op, i, tr)
    host_reference()
    workload.begin_timing()
    plain, traced, slices = [], [], []
    i = workload.warmup
    for _ in range(chunks):
        if interlude is not None:
            interlude()
        deadline = perf_counter() + seconds / chunks
        while perf_counter() < deadline:
            slice_end = min(perf_counter() + SLICE_S, deadline)
            busy = 0.0
            while perf_counter() < slice_end:
                tr.enabled = traced_every > 0 and i % traced_every == 1
                elapsed = runner.attempt(workload.op, i, tr)
                if elapsed is not None:
                    (traced if tr.enabled else plain).append(elapsed)
                    if not tr.enabled:
                        busy += elapsed
                i += 1
            tr.enabled = False
            slices.append((busy, host_reference()))
    tr.enabled = False
    return plain, traced, slices


def normalized_rate(n: int, slices) -> float:
    """``n`` operations over the slices' operation time, each slice's time
    scaled to a host where ``host_reference`` takes ``NOMINAL_REF_S``."""
    return n / math.fsum(busy * NOMINAL_REF_S / ref for busy, ref in slices)


def end_to_end(workload, samples, slices, setup_runs) -> tuple[dict, dict]:
    """Generic metrics for the summary line and workload-named ones for the
    results file, each with its sample count."""
    if not samples:
        raise RuntimeError("no operation completed")
    n = len(samples)
    p50 = percentile(samples, 50)
    tail = percentile(samples, workload.tail_pct)
    total = math.fsum(samples)
    rate = n / total
    norm = normalized_rate(n, slices)
    refs = [ref for _, ref in slices]
    rss = workload.peak_rss_mb()
    setup = statistics.median(elapsed * NOMINAL_REF_S / ref for elapsed, ref in setup_runs)
    setup_raw = statistics.median(elapsed for elapsed, _ in setup_runs)
    generic = {
        "setup_s": setup,
        "ops_per_s_norm": norm,
        "peak_rss_mb": rss,
    }
    label, unit, scale, rate_name = workload.human
    beyond = n * (100 - workload.tail_pct) / 100
    named = {
        "setup_s": {"value": setup, "unit": "s", "n": len(setup_runs)},
        "setup_s_raw": {"value": setup_raw, "unit": "s", "n": len(setup_runs)},
        f"{label}_p50": {"value": p50 * scale, "unit": unit, "n": n},
        f"{label}_p{workload.tail_pct}": {"value": tail * scale, "unit": unit, "n": n,
                                          "samples_beyond": beyond},
        rate_name: {"value": rate, "unit": "1/s", "n": n},
        "ops_per_s_norm": {"value": norm, "unit": "1/s", "n": n},
        "host_ref_ms_p50": {"value": percentile(refs, 50) * 1e3, "unit": "ms", "n": len(refs)},
        "host_ref_ms_iqr": {"value": (percentile(refs, 75) - percentile(refs, 25)) * 1e3,
                            "unit": "ms", "n": len(refs)},
        "peak_rss_mb": {"value": rss, "unit": "MB", "n": 1},
        **workload.extra_metrics(total),
    }
    return generic, named


def per_layer(workload, tr: Tracer, imports, plain, traced) -> tuple[dict, dict]:
    stats = tr.stats()
    metrics = dict(imports)
    for fn in LAYER_FUNCTIONS:
        s = stats.get(fn, {"calls": 0, "busy_s": 0.0, "p50_us": 0.0})
        for stat in ("calls", "busy_s", "p50_us"):
            metrics[f"{fn}.{stat}"] = s[stat]
    bases = {}
    for name, (num, base) in RATIOS.items():
        metrics[name] = tr.counts[num] / tr.counts[base] if tr.counts[base] else 0.0
        bases[name] = {"numerator": tr.counts[num], "base": tr.counts[base]}
    metrics["ordering.flagged_steps"] = tr.counts["ordering.flagged_steps"]
    metrics["glue.busy_s"] = stats.get(workload.name, {"busy_s": 0.0})["busy_s"]
    # Extra operation time under tracing: untraced ops/s over traced ops/s, minus 1.
    metrics["trace_overhead_frac"] = (
        statistics.fmean(traced) / statistics.fmean(plain) - 1.0 if plain and traced else 0.0
    )
    return metrics, {"ratio_bases": bases, "all_spans": stats,
                     "ops": {"untraced": len(plain), "traced": len(traced)}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe is not None:
        args.setup_probe.mkdir(parents=True, exist_ok=True)
        WORKLOADS[args.workload]().setup(args.seed, args.setup_probe)
        print("ready", flush=True)
        return 0

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    tr = Tracer()
    runner = Runner(tr)
    workload = WORKLOADS[args.workload]()
    tr.root = workload.name
    results = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "closed_loop_clients": 1}

    if args.trace == 0:
        workload.setup(args.seed, workdir)
        # Set-up probes run at even intervals through the run, so their
        # median spans the host's fast and slow spells like the operations.
        setup_runs: list[tuple[float, float]] = []  # (wall time, reference time)

        def probe() -> None:
            before = host_reference()
            elapsed = setup_probe(args, len(setup_runs))
            setup_runs.append((elapsed, (before + host_reference()) / 2))

        plain, _, slices = timed_loop(
            workload, runner, args.seconds, traced_every=0,
            interlude=probe,
            chunks=SETUP_PROBES,
        )
        metrics, named = end_to_end(workload, plain, slices, setup_runs)
        units = END_TO_END_UNITS
        results["metrics"] = named
    else:
        # Every workload's census runs too, so each per-layer metric is
        # measured in every traced run; the census is its own root span.
        everything = [workload if name == args.workload else cls()
                      for name, cls in WORKLOADS.items()]
        for w in everything:
            w.setup(args.seed, workdir)
        imports = import_times(workdir)
        tr.enabled = True
        tr.root = "census"
        for w in everything:
            runner.attempt(w.census, tr)
        tr.root = workload.name
        plain, traced, _ = timed_loop(workload, runner, args.seconds, traced_every=2)
        metrics, extra = per_layer(workload, tr, imports, plain, traced)
        units = PER_LAYER_UNITS
        results.update(extra)
        tr.write(workdir / "spans.jsonl")

    failed = len(runner.failures)
    summary = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    results.update({
        "environment": environment(),
        "attempted": runner.attempted,
        "failed": failed,
        "fail_frac": failed / max(runner.attempted, 1),
        "failures": runner.failures[:20],
        "summary": summary,
    })
    (OUT / f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(results, indent=1, sort_keys=True) + "\n"
    )

    for name, m in results.get("metrics", summary).items():
        print(f"{name:<40} {m['value']:<22.10g} {m['unit']:<5} n={m.get('n', '')}")
    print(f"{'fail_frac':<40} {results['fail_frac']:<22.10g}       "
          f"n={runner.attempted} failed={failed}")
    for message in runner.failures[:5]:
        print(f"failure: {message}")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
                      "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
