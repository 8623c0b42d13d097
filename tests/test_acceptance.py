"""Acceptance suite.

Each test prints one pass/fail line, so ``pytest tests/test_acceptance.py -v -s``
doubles as the release checklist. Tolerances are fixed here and nowhere else.
"""

from __future__ import annotations

import numpy as np
import pytest

from sequences import (
    DYADIC,
    LAYER_Q,
    LAYER_S,
    LAYER_T,
    QR_KAPPA,
    REF,
    SEQUENCES,
    enumerate_discrete,
    quality_params,
    rate_params,
    synthetic_log,
)
from starq import (
    SL2,
    SVC1,
    FeatureVector,
    InfeasibleError,
    RateParams,
    ResolutionRef,
    Star,
    build_layer_grid,
    evaluate_rate,
    feasible_q,
    fit_qr,
    fit_rate_params,
    max_rate_gap,
    optimal_quality_curve,
    optimize_continuous,
    optimize_discrete,
    order_backward,
    order_forward,
    predict_params,
)


def report(number: int, description: str, passed: bool, detail: str = "") -> None:
    line = f"[criterion {number}] {'PASS' if passed else 'FAIL'}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def test_criterion_1_model_self_consistency():
    worst = 0.0
    for sequence in SEQUENCES:
        params = rate_params(sequence)
        at_ref = evaluate_rate(params, Star(REF.q_min, REF.s_max, REF.t_max))
        worst = max(worst, abs(at_ref - params.r_max) / params.r_max)
    report(1, "rate at the reference point equals r_max", worst <= 1e-12, f"worst rel err {worst:.2e}")


def test_criterion_2_fit_round_trip():
    worst_noiseless = 0.0
    worst_pc = 1.0
    for sequence in SEQUENCES:
        params = rate_params(sequence)
        fit = fit_rate_params(synthetic_log(params), mode="protocol")
        for name in ("a", "b", "c", "r_max"):
            rel = abs(getattr(fit.params, name) - getattr(params, name)) / abs(getattr(params, name))
            worst_noiseless = max(worst_noiseless, rel)
        worst_pc = min(worst_pc, fit.pc)
    noiseless_ok = worst_noiseless <= 1e-6 and worst_pc >= 0.999999

    worst_p95 = 0.0
    worst_noisy_pc = 1.0
    for sequence in SEQUENCES:
        params = rate_params(sequence)
        errors = []
        for seed in range(20):
            fit = fit_rate_params(synthetic_log(params, noise=0.01, seed=seed), mode="protocol")
            errors.append(
                max(
                    abs(getattr(fit.params, name) - getattr(params, name))
                    / abs(getattr(params, name))
                    for name in ("a", "b", "c", "r_max")
                )
            )
            worst_noisy_pc = min(worst_noisy_pc, fit.pc)
        worst_p95 = max(worst_p95, float(np.quantile(errors, 0.95)))
    noisy_ok = worst_p95 <= 0.05 and worst_noisy_pc >= 0.999

    report(
        2,
        "refit recovers parameters (noiseless 1e-6; 1% noise p95 <= 5%, PC >= 0.999)",
        noiseless_ok and noisy_ok,
        f"noiseless worst {worst_noiseless:.2e}, noisy p95 {worst_p95:.3%}, PC {worst_noisy_pc:.6f}",
    )


def test_criterion_3_quality_rate_summary_reproduction():
    details = []
    passed = True
    for sequence in SEQUENCES:
        rp, qp = rate_params(sequence), quality_params(sequence)
        fit = fit_qr(optimal_quality_curve(rp, qp), rp.r_max)
        target = QR_KAPPA[sequence]
        rel = fit.model.kappa / target - 1.0
        ok = abs(rel) <= 0.10 and fit.rmse <= 0.015
        passed = passed and ok
        details.append(f"{sequence} k={fit.model.kappa:.3f} ({rel:+.1%}, rmse {fit.rmse:.2%})")
    report(3, "summary-curve coefficients within 10% and fit RMSE <= 1.5%", passed, "; ".join(details))


def test_criterion_4_budget_equation_round_trip():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(1000):
        ref = ResolutionRef(
            q_min=float(rng.uniform(8.0, 32.0)),
            s_max=float(rng.uniform(1e5, 2e6)),
            t_max=float(rng.uniform(24.0, 60.0)),
        )
        params = RateParams(
            a=float(rng.uniform(0.3, 2.5)),
            b=float(rng.uniform(0.05, 1.5)),
            c=float(rng.uniform(0.05, 1.5)),
            r_max=float(rng.uniform(50.0, 10000.0)),
            ref=ref,
        )
        s = float(rng.uniform(0.01, 1.0)) * ref.s_max
        t = float(rng.uniform(0.01, 1.0)) * ref.t_max
        budget = float(rng.uniform(1e-3, 2.0)) * params.r_max
        q = feasible_q(params, s, t, budget)
        achieved = evaluate_rate(params, Star(q, s, t))
        worst = max(worst, abs(achieved - budget) / budget)
    report(4, "budget-exact stepsize reproduces the budget on 1000 random tuples", worst <= 1e-9, f"worst rel err {worst:.2e}")


def test_criterion_5_discrete_oracle_equivalence():
    mismatches = 0
    for sequence in SEQUENCES:
        rp, qp = rate_params(sequence), quality_params(sequence)
        for budget in np.geomspace(0.01 * rp.r_max, rp.r_max, 50):
            got = optimize_discrete(rp, qp, DYADIC, float(budget)).star
            want = enumerate_discrete(rp, qp, DYADIC, float(budget))
            if got != want:
                mismatches += 1
    report(5, "discrete optimizer matches brute-force enumeration exactly", mismatches == 0, f"{mismatches} mismatches over 250 runs")


def test_criterion_6_qualitative_behaviors():
    # (a) stepsize not monotone in budget under the dyadic regime for city
    city, city_q = rate_params("city"), quality_params("city")
    q_opt = []
    for budget in np.geomspace(0.01 * city.r_max, city.r_max, 200):
        try:
            q_opt.append(optimize_discrete(city, city_q, DYADIC, float(budget)).star.q)
        except InfeasibleError:
            continue
    a_ok = any(y > x + 1e-9 for x, y in zip(q_opt, q_opt[1:]))

    # (b) optimal quality non-decreasing in budget, both regimes
    b_ok = True
    for sequence in SEQUENCES:
        rp, qp = rate_params(sequence), quality_params(sequence)
        budgets = np.geomspace(0.01 * rp.r_max, rp.r_max, 50)
        cont = [optimize_continuous(rp, qp, float(r)).quality for r in budgets]
        disc = [optimize_discrete(rp, qp, DYADIC, float(r)).quality for r in budgets]
        b_ok = b_ok and all(x <= y + 1e-12 for x, y in zip(cont, cont[1:]))
        b_ok = b_ok and all(x <= y + 1e-12 for x, y in zip(disc, disc[1:]))

    # (c) both orderings produce monotone paths of the exact length
    # (d) backward spreads rates at least as evenly as forward
    c_ok = True
    d_ok = True
    expected_len = (len(LAYER_S) - 1) + (len(LAYER_T) - 1) + (len(LAYER_Q) - 1) + 1
    for sequence in SEQUENCES:
        grid = build_layer_grid(
            rate_params(sequence), quality_params(sequence), LAYER_S, LAYER_T, LAYER_Q
        )
        forward, backward = order_forward(grid), order_backward(grid)
        for path in (forward, backward):
            c_ok = c_ok and len(path.steps) == expected_len
            c_ok = c_ok and all(
                x.s <= y.s and x.t <= y.t and x.q >= y.q and x.rate < y.rate
                for x, y in zip(path.steps, path.steps[1:])
            )
        top = forward.steps[-1].rate
        d_ok = d_ok and max_rate_gap(backward) / top <= max_rate_gap(forward) / top + 1e-12

    report(
        6,
        "qualitative behaviors (non-monotone q_opt; monotone quality; path shape; gap ordering)",
        a_ok and b_ok and c_ok and d_ok,
        f"a={a_ok} b={b_ok} c={c_ok} d={d_ok}",
    )


def test_criterion_7_predictor_fixtures():
    zero = FeatureVector(0.0, 0.0, 0.0)
    svc1 = predict_params(SVC1, zero, REF)
    sl2 = predict_params(SL2, zero, REF)
    ok = svc1.raw == (1.374, 0.226, 1.507, -7262.0) and sl2.raw == (1.538, -0.241, 1.420, -4598.0)
    report(7, "zero-feature predictions reproduce the constant predictor columns exactly", ok)
