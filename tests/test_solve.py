from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import starq
from starq import _solve
from starq._solve import least_squares_box, minimize_bounded


class TestMinimizeBounded:
    def test_parabola_minimum(self):
        result = minimize_bounded(lambda x: (x - 1.234) ** 2 + 3.0, 0.0, 4.0)
        assert abs(result.x - 1.234) <= 1e-9
        assert result.fun == pytest.approx(3.0, abs=1e-15)
        assert result.status == "converged"
        assert result.at_bound is None

    def test_decreasing_function_reports_upper_bound(self):
        result = minimize_bounded(lambda x: -x, 0.0, 4.0)
        assert result.at_bound == 4.0
        assert 4.0 - result.x <= 1e-6

    def test_increasing_function_reports_lower_bound(self):
        result = minimize_bounded(lambda x: math.exp(x), 0.0, 4.0)
        assert result.at_bound == 0.0
        assert result.x <= 1e-6

    def test_evaluation_cap(self, monkeypatch):
        monkeypatch.setattr(_solve, "_MAX_EVALUATIONS", 3)
        result = minimize_bounded(lambda x: math.cos(3.0 * x), 0.0, 4.0)
        assert result.status == "max_evaluations"
        assert result.nfev == 3

    def test_nan_status(self):
        assert minimize_bounded(lambda x: math.nan, 0.0, 1.0).status == "nan"

    @pytest.mark.parametrize(
        "f, lo, hi",
        [
            (lambda x: (x - 1.234) ** 2, 0.0, 4.0),
            (lambda x: -x, 0.0, 4.0),
            (lambda x: math.cos(3.0 * x) + 0.1 * x, 0.0, 4.0),
            (lambda x: abs(x - 0.3) ** 1.5 + math.sin(7.0 * x), -1.0, 2.0),
            (lambda x: (math.expm1(-x * 0.7) / math.expm1(-x) - 0.6) ** 2, 1e-6, 50.0),
        ],
    )
    def test_matches_scipy_bounded_brent(self, f, lo, hi):
        optimize = pytest.importorskip("scipy.optimize")
        ref = optimize.minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": 1e-10})
        got = minimize_bounded(f, lo, hi)
        assert got.x == float(ref.x)
        assert got.fun == float(ref.fun)
        assert got.nfev == ref.nfev


def _exp_model(lt, ls, measured):
    # [J | r] of r_max * exp(b*lt + c*ls) - measured, with x = (b, c, r_max)
    def jac_resid(x):
        b, c, r_max = x
        unit = np.exp(b * lt + c * ls)
        model = r_max * unit
        return np.column_stack((lt * model, ls * model, unit, model - measured))

    return jac_resid


def _sse(jac_resid, x):
    r = jac_resid(np.asarray(x, dtype=float))[:, -1]
    return float(r @ r)


class TestLeastSquaresBox:
    lt = np.log(np.repeat([0.125, 0.25, 0.5, 1.0], 3))
    ls = np.log(np.tile([0.0625, 0.25, 1.0], 4))

    def test_recovers_unconstrained_optimum(self):
        measured = 800.0 * np.exp(0.6 * self.lt + 0.9 * self.ls)
        result = least_squares_box(_exp_model(self.lt, self.ls, measured), [1.0, 1.0, 500.0], [0.0, 0.0, 1e-9])
        assert result.status == "converged"
        np.testing.assert_allclose(result.x, [0.6, 0.9, 800.0], rtol=1e-9)

    def test_active_lower_bound(self):
        # Data fall with frame size, so the best non-negative c is exactly 0.
        measured = 800.0 * np.exp(0.6 * self.lt - 0.3 * self.ls)
        resid_jac = _exp_model(self.lt, self.ls, measured)
        result = least_squares_box(resid_jac, [0.5, 0.5, 700.0], [0.0, 0.0, 1e-9])
        b, c, r_max = result.x
        assert c == 0.0
        assert b > 0.0
        # Stationary in the free variables and pushing outward on the bound.
        stacked = resid_jac(result.x)
        residual, jac = stacked[:, -1], stacked[:, :-1]
        grad = jac.T @ residual
        scale = np.linalg.norm(jac, axis=0) * math.sqrt(result.sse)
        assert abs(grad[0]) <= 1e-7 * scale[0]
        assert abs(grad[2]) <= 1e-7 * scale[2]
        assert grad[1] > 0.0
        # Nearby feasible points score no better.
        for delta in ([1e-4, 0, 0], [-1e-4, 0, 0], [0, 1e-4, 0], [0, 0, 0.1], [0, 0, -0.1]):
            assert _sse(resid_jac, result.x + np.array(delta)) >= result.sse

    @pytest.mark.parametrize("seed", range(5))
    def test_never_worse_than_start(self, seed):
        rng = np.random.default_rng(seed)
        measured = 800.0 * np.exp(0.6 * self.lt + 0.9 * self.ls) * (1 + 0.05 * rng.standard_normal(12))
        resid_jac = _exp_model(self.lt, self.ls, measured)
        x0 = [rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(100, 2000)]
        result = least_squares_box(resid_jac, x0, [0.0, 0.0, 1e-9])
        assert result.sse <= _sse(resid_jac, x0)
        assert np.all(result.x >= [0.0, 0.0, 1e-9])

    def test_start_at_optimum_stays(self):
        measured = 800.0 * np.exp(0.6 * self.lt + 0.9 * self.ls)
        resid_jac = _exp_model(self.lt, self.ls, measured)
        x0 = np.array([0.6, 0.9, 800.0])
        result = least_squares_box(resid_jac, x0, [0.0, 0.0, 1e-9])
        assert result.sse <= _sse(resid_jac, x0)
        np.testing.assert_allclose(result.x, x0, rtol=1e-12)

    def test_start_below_bound_is_projected(self):
        measured = 800.0 * np.exp(0.6 * self.lt + 0.9 * self.ls)
        result = least_squares_box(_exp_model(self.lt, self.ls, measured), [-1.0, 1.0, 500.0], [0.0, 0.0, 1e-9])
        np.testing.assert_allclose(result.x, [0.6, 0.9, 800.0], rtol=1e-9)

    def test_ends_at_start_when_accepted_steps_raise_the_sum(self):
        # Steps within rounding of the sum that lower the gradient are taken,
        # so the loop can end a few ulps above its start; it returns the start.
        calls = []

        def jac_resid(x):
            calls.append(x)
            rows = ([1.0, 1.0], [0.5, 1.0 + 1e-15], [0.0, 1.0 + 1e-15])
            return np.array([rows[min(len(calls), 3) - 1]])

        result = least_squares_box(jac_resid, [1.0], [0.0])
        assert result.x.tolist() == [1.0]
        assert (result.sse, result.nit, result.status) == (1.0, 2, "converged")
        assert calls[-1] == [0.0]

    def test_stalls_at_start_when_no_pivot_is_positive(self):
        result = least_squares_box(lambda x: np.array([[math.nan, 1.0], [1.0, 2.0]]), [1.0], [0.0])
        assert result.x.tolist() == [1.0]
        assert (result.sse, result.nit, result.status) == (5.0, 0, "stalled")


@pytest.mark.parametrize("pivot", [-1.0, math.nan])
def test_damped_solve_rejects_a_non_positive_pivot(pivot):
    assert _solve._damped_solve([[pivot]], 1e-3, [1.0]) is None


def test_import_loads_no_scipy():
    src = str(Path(starq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import starq, starq.cli, sys; "
        "print(','.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""
