from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sequences import (
    DYADIC,
    LAYER_S,
    LAYER_T,
    REF,
    SEQUENCES,
    enumerate_discrete,
    quality_params,
    rate_params,
)
from starq import (
    CIF4,
    QCIF,
    DegenerateDataError,
    FeasibleSets,
    InfeasibleError,
    InsufficientDataError,
    InvalidParameterError,
    OutOfRangeError,
    QrModel,
    QualityParams,
    RateParams,
    ResolutionRef,
    Star,
    evaluate_qr,
    evaluate_rate,
    feasible_q,
    fit_qr,
    optimize_continuous,
    optimize_discrete,
)
from starq.optimizer import _grid_size

CITY = rate_params("city")
CITY_Q = quality_params("city")


def oracle_quality(qp, q, s, t):
    """Independent elementwise evaluation of the quality surface."""
    qp_of = np.maximum(4.0 + 6.0 * np.log2(q), 28.0)
    alpha_s = qp.alpha_s_tilde * (-0.037 * qp_of + 2.25)
    alpha_ref = qp.alpha_s_tilde * (-0.037 * 28.0 + 2.25)
    f_q = (1.0 - np.exp(-qp.alpha_q * (qp.ref.q_min / q))) / (1.0 - np.exp(-qp.alpha_q))
    f_s = (1.0 - np.exp(-alpha_s * (s / qp.ref.s_max) ** 0.74)) / (1.0 - np.exp(-alpha_ref))
    f_t = (1.0 - np.exp(-qp.alpha_t * (t / qp.ref.t_max) ** 0.63)) / (1.0 - np.exp(-qp.alpha_t))
    return f_q * f_s * f_t


def oracle_best(rp, qp, budget, n, span=16.0):
    """Brute-force grid maximizer written directly from the formulas."""
    s = np.geomspace(rp.ref.s_max / span, rp.ref.s_max, n)[:, None]
    t = np.geomspace(rp.ref.t_max / span, rp.ref.t_max, n)[None, :]
    q = rp.ref.q_min * (
        (rp.r_max / budget) * (s / rp.ref.s_max) ** rp.c * (t / rp.ref.t_max) ** rp.b
    ) ** (1.0 / rp.a)
    q = np.maximum(q, rp.ref.q_min)
    quality = oracle_quality(qp, q, s, t)
    i, j = np.unravel_index(int(np.argmax(quality)), quality.shape)
    return float(quality[i, j]), float(s[i, 0]), float(t[0, j])


class TestFeasibleQ:
    def test_full_budget_gives_reference_stepsize(self):
        assert feasible_q(CITY, REF.s_max, REF.t_max, CITY.r_max) == pytest.approx(16.0, rel=1e-12)

    def test_half_budget(self):
        got = feasible_q(CITY, REF.s_max, REF.t_max, CITY.r_max / 2)
        assert got == pytest.approx(16.0 * 2.0 ** (1.0 / 1.394), rel=1e-12)
        assert got == pytest.approx(26.3, abs=0.05)
        star = Star(got, REF.s_max, REF.t_max)
        assert evaluate_rate(CITY, star) == pytest.approx(CITY.r_max / 2, rel=1e-9)

    def test_generous_budget_returned_unclamped(self):
        got = feasible_q(CITY, REF.s_max, REF.t_max, CITY.r_max * 4)
        assert got < REF.q_min

    def test_zero_stepsize_exponent_rejected(self):
        flat = RateParams(a=0.0, b=0.5, c=0.5, r_max=1000.0, ref=REF)
        with pytest.raises(InvalidParameterError):
            feasible_q(flat, REF.s_max, REF.t_max, 500.0)

    @given(
        a=st.floats(min_value=0.3, max_value=2.5),
        b=st.floats(min_value=0.1, max_value=1.5),
        c=st.floats(min_value=0.1, max_value=1.5),
        s_frac=st.floats(min_value=0.01, max_value=1.0),
        t_frac=st.floats(min_value=0.01, max_value=1.0),
        budget_frac=st.floats(min_value=1e-3, max_value=2.0),
    )
    def test_round_trip_property(self, a, b, c, s_frac, t_frac, budget_frac):
        p = RateParams(a=a, b=b, c=c, r_max=3000.0, ref=REF)
        s, t = s_frac * REF.s_max, t_frac * REF.t_max
        budget = budget_frac * p.r_max
        q = feasible_q(p, s, t, budget)
        assert evaluate_rate(p, Star(q, s, t)) == pytest.approx(budget, rel=1e-9)


class TestContinuous:
    def test_full_budget_hits_reference_corner(self):
        result = optimize_continuous(CITY, CITY_Q, CITY.r_max)
        assert result.star == Star(16.0, REF.s_max, REF.t_max)
        assert result.quality == 1.0
        assert result.rate == pytest.approx(CITY.r_max, rel=1e-12)

    def test_budget_respected(self):
        for frac in (0.02, 0.1, 0.5, 1.0):
            result = optimize_continuous(CITY, CITY_Q, frac * CITY.r_max)
            assert result.rate <= frac * CITY.r_max * (1 + 1e-9)
            assert result.star.q >= REF.q_min * (1 - 1e-12)

    def test_monotone_trends_over_budget_sweep(self):
        budgets = np.geomspace(0.01 * CITY.r_max, CITY.r_max, 50)
        results = [optimize_continuous(CITY, CITY_Q, float(b)) for b in budgets]
        qualities = [r.quality for r in results]
        assert all(x < y for x, y in zip(qualities, qualities[1:]))
        sizes = [r.star.s for r in results]
        rates = [r.star.t for r in results]
        assert all(x <= y * (1 + 1e-12) for x, y in zip(sizes, sizes[1:]))
        assert all(x <= y * (1 + 1e-12) for x, y in zip(rates, rates[1:]))

    @pytest.mark.parametrize("sequence", SEQUENCES)
    def test_low_budget_backs_off_both_axes(self, sequence):
        rp, qp = rate_params(sequence), quality_params(sequence)
        result = optimize_continuous(rp, qp, rp.r_max / 100)
        assert result.star.s < REF.s_max
        assert result.star.t < REF.t_max
        # brute force confirms the optimum lies strictly inside
        _, s_best, t_best = oracle_best(rp, qp, rp.r_max / 100, n=200)
        assert s_best < REF.s_max
        assert t_best < REF.t_max

    @pytest.mark.parametrize("frac", [0.02, 0.08, 0.35, 0.9])
    def test_dominates_finer_verification_grid(self, frac):
        budget = frac * CITY.r_max
        result = optimize_continuous(CITY, CITY_Q, budget)
        best, _, _ = oracle_best(CITY, CITY_Q, budget, n=128)
        assert result.quality >= best - 1e-3

    def test_deterministic(self):
        a = optimize_continuous(CITY, CITY_Q, 500.0)
        b = optimize_continuous(CITY, CITY_Q, 500.0)
        assert a == b

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            optimize_continuous(CITY, CITY_Q, 0.0)
        with pytest.raises(InvalidParameterError):
            optimize_continuous(CITY, CITY_Q, 500.0, grid=1)
        mismatched = QualityParams(
            alpha_q=7.25,
            alpha_s_tilde=3.52,
            alpha_t=4.10,
            ref=ResolutionRef(q_min=8.0, s_max=REF.s_max, t_max=REF.t_max),
        )
        with pytest.raises(InvalidParameterError):
            optimize_continuous(CITY, mismatched, 500.0)

    def test_grid_is_an_integer_of_at_least_two(self):
        for bad in ("64", (3, 64.9), (3, 64), (3,), 64.0, None, 4097, np.int64(10**9)):
            with pytest.raises(InvalidParameterError):
                optimize_continuous(CITY, CITY_Q, 500.0, grid=bad)
        default = optimize_continuous(CITY, CITY_Q, 500.0)
        assert optimize_continuous(CITY, CITY_Q, 500.0, grid=np.int64(64)) == default

    def test_grid_bounds(self):
        # The smallest grid runs; the largest is pinned through the size rule
        # alone, since a 4096 x 4096 search takes most of a second and
        # hundreds of MB.
        assert optimize_continuous(CITY, CITY_Q, 500.0, grid=2).rate <= 500.0
        assert _grid_size(4096) == 4096
        for bad in (1, 4097):
            with pytest.raises(InvalidParameterError, match=r"must be an integer in \[2, 4096\]"):
                optimize_continuous(CITY, CITY_Q, 500.0, grid=bad)


class TestDiscrete:
    def test_full_budget_hits_coarsest_reference_corner(self):
        result = optimize_discrete(CITY, CITY_Q, DYADIC, CITY.r_max)
        assert result.star == Star(16.0, REF.s_max, REF.t_max)
        sets_hi = FeasibleSets(LAYER_S, LAYER_T, q_range=(20.0, 104.0))
        pinned = optimize_discrete(CITY, CITY_Q, sets_hi, CITY.r_max)
        assert pinned.star == Star(20.0, REF.s_max, REF.t_max)

    def test_budget_admitting_only_smallest_size(self):
        # Below the cheapest rate of every larger frame size within the
        # stepsize cap, the optimizer must land on the smallest size.
        cheapest_cif = evaluate_rate(CITY, Star(104.0, float(CIF4) / 4, 3.75))
        budget = 6.0
        assert budget < cheapest_cif
        result = optimize_discrete(CITY, CITY_Q, DYADIC, budget)
        assert result.star.s == float(QCIF)
        assert result.star == enumerate_discrete(CITY, CITY_Q, DYADIC, budget)

    def test_infeasible_budget(self):
        floor = evaluate_rate(CITY, Star(104.0, float(QCIF), 3.75))
        with pytest.raises(InfeasibleError):
            optimize_discrete(CITY, CITY_Q, DYADIC, floor * 0.5)

    @pytest.mark.parametrize("sequence", SEQUENCES)
    def test_matches_enumeration_on_budget_sweep(self, sequence):
        rp, qp = rate_params(sequence), quality_params(sequence)
        for budget in np.geomspace(0.01 * rp.r_max, rp.r_max, 20):
            result = optimize_discrete(rp, qp, DYADIC, float(budget))
            assert result.star == enumerate_discrete(rp, qp, DYADIC, float(budget))

    def test_ties_go_to_smaller_stepsize_then_larger_rate_then_larger_size(self):
        # Every quality factor saturates at 1.0 on the ladder, so every
        # feasible pair ties on quality and the tie-break alone decides.
        flat = QualityParams(alpha_q=1000.0, alpha_s_tilde=1000.0, alpha_t=1000.0, ref=REF)
        for budget in np.geomspace(0.01 * CITY.r_max, CITY.r_max, 20).tolist():
            result = optimize_discrete(CITY, flat, DYADIC, budget)
            assert result.quality == 1.0
            assert result.star == enumerate_discrete(CITY, flat, DYADIC, budget)

    def test_stepsize_a_rounding_above_the_cap_is_feasible(self):
        # At the rate of the cheapest pair at the stepsize cap, the budget
        # equation returns a stepsize a rounding above the cap; the
        # reference tolerance keeps that pair.
        rp = rate_params("city", "svc2")
        floor = evaluate_rate(rp, Star(104.0, float(QCIF), 3.75))
        assert feasible_q(rp, float(QCIF), 3.75, floor) > 104.0
        result = optimize_discrete(rp, CITY_Q, DYADIC, floor)
        assert (result.star.s, result.star.t) == (float(QCIF), 3.75)
        assert result.star.q == pytest.approx(104.0, rel=1e-12)

    def test_sets_validation(self):
        with pytest.raises(InvalidParameterError):
            FeasibleSets((), LAYER_T, (16.0, 104.0))
        with pytest.raises(InvalidParameterError):
            FeasibleSets((2.0, 1.0), LAYER_T, (16.0, 104.0))
        with pytest.raises(InvalidParameterError):
            FeasibleSets(LAYER_S, LAYER_T, (104.0, 16.0))
        below_ref = FeasibleSets(LAYER_S, LAYER_T, (8.0, 104.0))
        with pytest.raises(InvalidParameterError):
            optimize_discrete(CITY, CITY_Q, below_ref, 500.0)
        short_s = FeasibleSets((float(QCIF), float(CIF4) / 4), LAYER_T, (16.0, 104.0))
        with pytest.raises(InvalidParameterError):
            optimize_discrete(CITY, CITY_Q, short_s, 500.0)
        short_t = FeasibleSets(LAYER_S, LAYER_T[:-1], (16.0, 104.0))
        with pytest.raises(InvalidParameterError, match="largest frame rate"):
            optimize_discrete(CITY, CITY_Q, short_t, 500.0)


# Both optimizers, called with a budget of 500 kbps in some form.
OPTIMIZERS = {
    "continuous": lambda budget: optimize_continuous(CITY, CITY_Q, budget),
    "discrete": lambda budget: optimize_discrete(CITY, CITY_Q, DYADIC, budget),
}


class TestBudgetInput:
    @pytest.mark.parametrize("optimizer", OPTIMIZERS)
    @pytest.mark.parametrize("budget", [500, np.float64(500.0), np.int64(500)])
    def test_real_numbers_read_as_the_float(self, optimizer, budget):
        assert OPTIMIZERS[optimizer](budget) == OPTIMIZERS[optimizer](500.0)

    @pytest.mark.parametrize("optimizer", OPTIMIZERS)
    @pytest.mark.parametrize(
        "budget, shown",
        [(True, "True"), (float("nan"), "nan"), (float("inf"), "inf"), (-1.0, "-1.0"),
         ("500", "'500'"), (np.array(500.0), "array(500.)")],
    )
    def test_anything_else_is_rejected(self, optimizer, budget, shown):
        message = f"budget must be a finite real > 0, got {shown}"
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            OPTIMIZERS[optimizer](budget)


class TestFitQr:
    def test_noiseless_self_recovery(self):
        model = QrModel(kappa=3.0, r_max=1000.0)
        rates = np.linspace(50.0, 1000.0, 25)
        curve = [(float(r), evaluate_qr(model, float(r))) for r in rates]
        fit = fit_qr(curve, 1000.0)
        assert fit.model.kappa == pytest.approx(3.0, abs=1e-8)
        assert fit.rmse < 1e-9

    def test_needs_three_points(self):
        with pytest.raises(InsufficientDataError):
            fit_qr([(100.0, 0.5), (200.0, 0.7)], 1000.0)

    def test_rates_must_stay_in_range(self):
        with pytest.raises(OutOfRangeError):
            fit_qr([(100.0, 0.5), (200.0, 0.7), (1100.0, 1.0)], 1000.0)

    def test_rates_within_tolerance_of_r_max_count_as_r_max(self):
        curve = [(100.0, 0.5), (500.0, 0.8), (1000.0, 1.0)]
        nudged = curve[:2] + [(1000.0 * (1 + 1e-10), 1.0)]
        assert fit_qr(nudged, 1000.0) == fit_qr(curve, 1000.0)

    @pytest.mark.parametrize("r_max", [-5, 0.0, True, float("nan"), "1000"])
    def test_r_max_checked(self, r_max):
        with pytest.raises(InvalidParameterError, match="r_max"):
            fit_qr([(100.0, 0.5), (200.0, 0.7), (300.0, 0.9)], r_max)

    @pytest.mark.parametrize(
        "curve",
        [
            [(100.0, 0.5, 99), (500.0, 0.8, "x"), (1000.0, 1.0, None)],
            [(100.0, 0.5), (500.0, 0.8, 1.0), (1000.0, 1.0)],
            [(100.0, 0.5), (500.0,), (1000.0, 1.0)],
            [100.0, 500.0, 1000.0],
            [(100.0, 0.5), 500.0, (1000.0, 1.0)],
            [(100.0, 0.5), "ab", (1000.0, 1.0)],
        ],
        ids=["triples", "one-triple", "one-single", "scalars", "one-scalar", "string"],
    )
    def test_points_must_be_pairs(self, curve):
        with pytest.raises(InvalidParameterError, match="pairs"):
            fit_qr(curve, 1000.0)

    def test_curve_may_be_a_generator_or_an_array(self):
        curve = [(100.0, 0.5), (500.0, 0.8), (1000.0, 1.0)]
        fit = fit_qr(curve, 1000.0)
        assert fit_qr((p for p in curve), 1000.0) == fit
        assert fit_qr(np.array(curve), 1000.0) == fit

    def test_flat_curve_degenerate(self):
        with pytest.raises(DegenerateDataError):
            fit_qr([(100.0, 0.5), (200.0, 0.5), (300.0, 0.5)], 1000.0)


def test_readme_library_example_runs():
    """The README's Library example runs as written, so API drift fails here."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    example = re.search(r"```python\n(.*?)```", readme.read_text(), re.S).group(1)
    names: dict = {}
    exec(example, names)
    assert names["best"].rate <= 500.0 * (1 + 1e-9)
    assert names["summary"].model.r_max == names["rate"].r_max
