from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sequences import LAYER_Q, LAYER_S, LAYER_T, REF, SEQUENCES, quality_params, rate_params
from test_parity import outcome
from starq import (
    InvalidParameterError,
    LayerGrid,
    OrderedPath,
    OutOfRangeError,
    PathStep,
    QrModel,
    QualityParams,
    RateParams,
    ResolutionRef,
    Star,
    build_layer_grid,
    evaluate_quality,
    evaluate_rate,
    max_rate_gap,
    order_backward,
    order_forward,
    path_quality_loss,
    quality_surface,
    qr_surface,
    rate_surface,
)

CITY = rate_params("city")
CITY_Q = quality_params("city")
QCIF_S = LAYER_S[0]


def city_grid():
    return build_layer_grid(CITY, CITY_Q, LAYER_S, LAYER_T, LAYER_Q)


def hand_grid():
    """2x2x2 lattice with hand-picked tables; both greedy traversals were
    traced by hand against these numbers."""
    rate = np.empty((2, 2, 2))
    quality = np.empty((2, 2, 2))
    rate[0, 0, 0], quality[0, 0, 0] = 10.0, 0.20
    rate[1, 0, 0], quality[1, 0, 0] = 30.0, 0.50
    rate[0, 1, 0], quality[0, 1, 0] = 20.0, 0.35
    rate[0, 0, 1], quality[0, 0, 1] = 15.0, 0.30
    rate[1, 1, 0], quality[1, 1, 0] = 60.0, 0.70
    rate[1, 0, 1], quality[1, 0, 1] = 45.0, 0.65
    rate[0, 1, 1], quality[0, 1, 1] = 35.0, 0.55
    rate[1, 1, 1], quality[1, 1, 1] = 100.0, 1.00
    return LayerGrid(
        s_levels=(1.0, 2.0),
        t_levels=(1.0, 2.0),
        q_levels=(4.0, 2.0),
        rate=rate,
        quality=quality,
    )


# A path whose quality stays flat on step 1 and falls on step 2.
FLAT_THEN_FALLING = (
    PathStep(0, 0, 0, 1.0, 1.0, 4.0, 10.0, 0.5),
    PathStep(0, 0, 1, 1.0, 1.0, 2.0, 20.0, 0.5),
    PathStep(0, 1, 1, 1.0, 2.0, 2.0, 30.0, 0.4),
)


NAN = float("nan")
LEVELS = (list(LAYER_S), list(LAYER_T), list(LAYER_Q))
AXES = ("s", "t", "q")


def with_level(axis: int, values) -> tuple:
    """The 3x4x4 ladder's levels with axis ``axis`` replaced by ``values``."""
    levels = list(LEVELS)
    levels[axis] = values
    return tuple(levels)


def ladder_message(axis: int) -> str:
    direction = "decreasing" if axis == 2 else "increasing"
    return f"{AXES[axis]}_levels must be a non-empty, strictly {direction} sequence"


# (id, rate params, quality params, levels, error type, full message) of every
# rule build_layer_grid applies; where two rules fail, the one that decides.
BUILD_ERRORS = [
    *((f"{kind}-{AXES[axis]}", CITY, CITY_Q, with_level(axis, bad), InvalidParameterError,
       f"{AXES[axis]} must hold finite reals > 0")
      for axis in range(3) for kind, bad in (("negative", [-1.0]), ("nan", [NAN]))),
    *((f"empty-{AXES[axis]}", CITY, CITY_Q, with_level(axis, []), InvalidParameterError,
       ladder_message(axis)) for axis in range(3)),
    *((f"non-monotone-{AXES[axis]}", CITY, CITY_Q, with_level(axis, LEVELS[axis][::-1]),
       InvalidParameterError, ladder_message(axis)) for axis in range(3)),
    *((f"2d-{AXES[axis]}", CITY, CITY_Q, with_level(axis, [LEVELS[axis]]), InvalidParameterError,
       ladder_message(axis)) for axis in range(3)),
    # A bool among the levels, in a list or a tuple, and a ragged ladder get
    # rate_surface's error.
    ("bool-s", CITY, CITY_Q, with_level(0, [QCIF_S, True]), InvalidParameterError,
     "s must hold finite reals > 0"),
    ("bool-t", CITY, CITY_Q, with_level(1, (LAYER_T[0], True)), InvalidParameterError,
     "t must hold finite reals > 0"),
    ("bool-q", CITY, CITY_Q, with_level(2, [*LAYER_Q[:-1], True]), InvalidParameterError,
     "q must hold finite reals > 0"),
    ("bool-only-s", CITY, CITY_Q, with_level(0, [True]), InvalidParameterError,
     "s must hold finite reals > 0"),
    ("ragged-s", CITY, CITY_Q, with_level(0, [[QCIF_S], [LAYER_S[1], LAYER_S[2]]]),
     InvalidParameterError, "s must hold finite reals > 0"),
    ("q-at-limit", CITY, CITY_Q, with_level(2, [QualityParams.q_limit]), OutOfRangeError,
     f"stepsize {QualityParams.q_limit:.6g} is not below the quality model's limit "
     f"{QualityParams.q_limit:.6g}"),
    ("flat-along-q", RateParams(a=0.0, b=1.0, c=1.0, r_max=100.0, ref=REF), CITY_Q, LEVELS,
     InvalidParameterError, "rate must increase strictly along every axis"),
    ("mismatched-refs", RateParams(a=1.0, b=1.0, c=1.0, r_max=100.0,
                                   ref=ResolutionRef(10.0, REF.s_max, REF.t_max)),
     CITY_Q, LEVELS, InvalidParameterError, "rate and quality parameters use different references"),
    ("overflowing-rate", RateParams(a=1.0, b=1.0, c=1.0, r_max=1e308, ref=REF), CITY_Q,
     with_level(2, [1e-5]), OutOfRangeError, "rate must hold finite reals > 0"),
    # Where two rules fail, the earlier one's error.
    ("nan-q-before-negative-t", CITY, CITY_Q, (LEVELS[0], [-1.0], [NAN]), InvalidParameterError,
     "q must hold finite reals > 0"),
    ("q-limit-before-ladder", CITY, CITY_Q, (LEVELS[0][::-1], LEVELS[1],
                                            [QualityParams.q_limit]), OutOfRangeError,
     f"stepsize {QualityParams.q_limit:.6g} is not below the quality model's limit "
     f"{QualityParams.q_limit:.6g}"),
    ("bool-s-before-overflowing-rate", RateParams(a=1.0, b=1.0, c=1.0, r_max=1e308, ref=REF),
     CITY_Q, ([QCIF_S, True], LEVELS[1], [1e-5]), InvalidParameterError,
     "s must hold finite reals > 0"),
    ("bool-t-before-q-limit", CITY, CITY_Q, (LEVELS[0], (True, 30.0), [QualityParams.q_limit]),
     InvalidParameterError, "t must hold finite reals > 0"),
    ("ladder-t-before-ladder-q", CITY, CITY_Q, (LEVELS[0], LEVELS[1][::-1], LEVELS[2][::-1]),
     InvalidParameterError, ladder_message(1)),
    ("ladder-before-flat-rate", RateParams(a=0.0, b=1.0, c=1.0, r_max=100.0, ref=REF), CITY_Q,
     with_level(0, LEVELS[0][::-1]), InvalidParameterError, ladder_message(0)),
]


@pytest.mark.parametrize("rp,qp,levels,error,message", [case[1:] for case in BUILD_ERRORS],
                         ids=[case[0] for case in BUILD_ERRORS])
def test_build_layer_grid_errors_pinned(rp, qp, levels, error, message):
    # Each rule's exact error type and full message, and no numpy warning.
    with pytest.raises(error) as caught:
        build_layer_grid(rp, qp, *levels)
    assert type(caught.value) is error and str(caught.value) == message


class TestBuildLayerGrid:
    def test_single_cell_matches_model(self):
        grid = build_layer_grid(CITY, CITY_Q, [float(REF.s_max)], [30.0], [26.0])
        star = Star(26.0, REF.s_max, 30.0)
        assert grid.rate[0, 0, 0] == evaluate_rate(CITY, star)
        assert grid.quality[0, 0, 0] == evaluate_quality(CITY_Q, star)

    def test_corner_cell_is_r_max(self):
        grid = city_grid()
        assert grid.rate[-1, -1, -1] == pytest.approx(CITY.r_max, rel=1e-12)
        assert grid.quality[-1, -1, -1] == 1.0

    @pytest.mark.parametrize("sequence", SEQUENCES)
    def test_tables_monotone_along_every_axis(self, sequence):
        grid = build_layer_grid(
            rate_params(sequence), quality_params(sequence), LAYER_S, LAYER_T, LAYER_Q
        )
        for axis in range(3):
            assert np.all(np.diff(grid.rate, axis=axis) > 0)
            assert np.all(np.diff(grid.quality, axis=axis) >= 0)

    def test_level_ordering_enforced(self):
        with pytest.raises(InvalidParameterError):
            build_layer_grid(CITY, CITY_Q, list(reversed(LAYER_S)), LAYER_T, LAYER_Q)
        with pytest.raises(InvalidParameterError):
            build_layer_grid(CITY, CITY_Q, LAYER_S, LAYER_T, [16.0, 26.0, 40.0, 64.0])

    def test_levels_must_be_numbers(self):
        with pytest.raises(InvalidParameterError):
            build_layer_grid(CITY, CITY_Q, ["101376", "405504"], ["15", "30"], ["32", "16"])

    def test_tables_must_match_the_levels(self):
        rate = np.array([[[10.0, 20.0]]])
        with pytest.raises(InvalidParameterError, match=r"rate table shape must be \(1, 1, 3\)"):
            LayerGrid((1.0,), (1.0,), (4.0, 3.0, 2.0), rate, np.zeros((1, 1, 3)))

    def test_rate_must_rise_along_every_axis(self):
        # Rising along the stepsize axis, but falling from 10 to 5 along the
        # frame-rate axis at the coarsest stepsize.
        rate = np.array([[[10.0, 20.0], [5.0, 30.0]]])
        with pytest.raises(InvalidParameterError, match="rate must increase strictly"):
            LayerGrid((1.0,), (1.0, 2.0), (4.0, 2.0), rate, np.zeros((1, 2, 2)))


class TestForward:
    def test_single_axis_path_is_unique(self):
        grid = build_layer_grid(CITY, CITY_Q, [float(REF.s_max)], [30.0], LAYER_Q)
        path = order_forward(grid)
        assert [(s.l, s.m, s.n) for s in path.steps] == [(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 0, 3)]

    def test_hand_traced_path(self):
        path = order_forward(hand_grid())
        assert [(s.l, s.m, s.n) for s in path.steps] == [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]

    def test_point_count(self):
        path = order_forward(city_grid())
        assert len(path.steps) == (3 - 1) + (4 - 1) + (4 - 1) + 1

    def test_greedy_local_optimality(self):
        grid = city_grid()
        path = order_forward(grid)
        shape = grid.shape
        for prev, cur in zip(path.steps, path.steps[1:]):
            chosen = (cur.quality - prev.quality) / (cur.rate - prev.rate)
            for move in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                alt = (prev.l + move[0], prev.m + move[1], prev.n + move[2])
                if alt[0] >= shape[0] or alt[1] >= shape[1] or alt[2] >= shape[2]:
                    continue
                ratio = (grid.quality[alt] - prev.quality) / (grid.rate[alt] - prev.rate)
                assert chosen >= ratio - 1e-12

    def test_equal_ratios_prefer_amplitude(self):
        # Both available moves score exactly 0.0125 quality per unit rate.
        rate = np.array([[[10.0, 20.0]], [[30.0, 60.0]]])
        quality = np.array([[[0.25, 0.375]], [[0.5, 0.75]]])
        grid = LayerGrid((1.0, 2.0), (1.0,), (4.0, 2.0), rate, quality)
        path = order_forward(grid)
        assert (path.steps[1].l, path.steps[1].m, path.steps[1].n) == (0, 0, 1)

    def test_deterministic(self):
        assert order_forward(city_grid()) == order_forward(city_grid())


class TestBackward:
    def test_single_axis_path_matches_forward(self):
        grid = build_layer_grid(CITY, CITY_Q, [float(REF.s_max)], [30.0], LAYER_Q)
        assert order_backward(grid).steps == order_forward(grid).steps

    def test_hand_traced_path(self):
        path = order_backward(hand_grid())
        assert [(s.l, s.m, s.n) for s in path.steps] == [(0, 0, 0), (1, 0, 0), (1, 0, 1), (1, 1, 1)]

    def test_equal_drops_prefer_amplitude(self):
        # Both drops from the top cell lose exactly 1/64 quality per unit rate.
        rate = np.array([[[16.0, 48.0]], [[32.0, 64.0]]])
        quality = np.array([[[0.25, 0.75]], [[0.5, 1.0]]])
        grid = LayerGrid((1.0, 2.0), (1.0,), (4.0, 2.0), rate, quality)
        path = order_backward(grid)
        assert (path.steps[1].l, path.steps[1].m, path.steps[1].n) == (1, 0, 0)

    def test_returned_in_increasing_rate_order(self):
        path = order_backward(city_grid())
        rates = [s.rate for s in path.steps]
        assert rates == sorted(rates)
        assert (path.steps[0].l, path.steps[0].m, path.steps[0].n) == (0, 0, 0)

    @pytest.mark.parametrize("sequence", SEQUENCES)
    def test_spreads_rates_at_least_as_evenly_as_forward(self, sequence):
        grid = build_layer_grid(
            rate_params(sequence), quality_params(sequence), LAYER_S, LAYER_T, LAYER_Q
        )
        forward, backward = order_forward(grid), order_backward(grid)
        top = forward.steps[-1].rate
        assert max_rate_gap(backward) / top <= max_rate_gap(forward) / top + 1e-12

    @pytest.mark.parametrize(
        "levels",
        [
            ([1e5], [30.0], [64.0, 40.0, 26.0, 16.0]),
            ([1e4, 1e5, 4e5], [30.0], [26.0]),
            ([1e5], [3.75, 7.5, 15.0, 30.0], [26.0]),
        ],
    )
    def test_coincides_with_forward_when_two_axes_trivial(self, levels):
        grid = build_layer_grid(CITY, CITY_Q, *levels)
        assert order_backward(grid).steps == order_forward(grid).steps


class TestOrderedPathInvariants:
    def test_empty_path_rejected(self):
        with pytest.raises(InvalidParameterError):
            OrderedPath(steps=(), direction="forward")

    def test_rate_must_increase(self):
        a = PathStep(0, 0, 0, 1.0, 1.0, 4.0, 10.0, 0.2)
        b = PathStep(0, 0, 1, 1.0, 1.0, 2.0, 10.0, 0.3)
        with pytest.raises(InvalidParameterError):
            OrderedPath(steps=(a, b), direction="forward")

    @pytest.mark.parametrize(
        "rates,qualities,direction",
        [
            ((float("nan"), float("nan")), (0.2, 0.3), "forward"),
            ((10.0, 20.0), (0.2, float("inf")), "forward"),
            ((10.0, 20.0), (0.2, 0.3), "sideways"),
        ],
        ids=["nan-rate", "inf-quality", "unknown-direction"],
    )
    def test_bad_steps_rejected(self, rates, qualities, direction):
        steps = tuple(
            PathStep(0, 0, n, 1.0, 1.0, 4.0 - n, rate, quality)
            for n, (rate, quality) in enumerate(zip(rates, qualities))
        )
        with pytest.raises(InvalidParameterError):
            OrderedPath(steps=steps, direction=direction)

    @pytest.mark.parametrize(
        "field,value",
        [("s", float("nan")), ("t", 0.0), ("q", -4.0), ("l", 0.5), ("m", -1), ("n", True),
         ("s", "1.0")],
        ids=["nan-s", "zero-t", "negative-q", "half-index", "negative-index", "bool-index",
             "string-s"],
    )
    def test_every_step_field_checked(self, field, value):
        step = PathStep(0, 0, 0, 1.0, 1.0, 4.0, 10.0, 0.2)._replace(**{field: value})
        with pytest.raises(InvalidParameterError, match=field):
            OrderedPath(steps=(step,), direction="forward")

    @pytest.mark.parametrize(
        "index", [(2**63, 0, 0), (2**63,) * 3, (2**64 - 1,) * 3], ids=["one", "all", "uint64-max"]
    )
    def test_step_index_past_int64_rejected(self, index):
        # Whatever the other indices are, one at or above 2**63 gets its own message.
        step = PathStep(*index, 1.0, 1.0, 4.0, 10.0, 0.2)
        with pytest.raises(InvalidParameterError, match=r"step indices l, m, n must be < 2\*\*63"):
            OrderedPath(steps=(step,), direction="forward")

    @pytest.mark.parametrize(
        "value,message",
        [(True, "must be integers"), (np.bool_(False), "must be integers"),
         (0.5, "must be integers"), (-1, "must be >= 0, got -1")],
        ids=["bool", "numpy-bool", "half", "negative"],
    )
    def test_step_index_messages(self, value, message):
        step = PathStep(0, 0, 0, 1.0, 1.0, 4.0, 10.0, 0.2)._replace(m=value)
        with pytest.raises(InvalidParameterError, match=f"step indices l, m, n {message}"):
            OrderedPath(steps=(step,), direction="forward")

    def test_numpy_integer_indices_accepted(self):
        a = PathStep(np.int64(1), 0, np.uint64(3), 1.0, 1.0, 4.0, 10.0, 0.2)
        b = PathStep(1, np.uint64(1), 3, 1.0, 2.0, 4.0, 20.0, 0.3)
        path = OrderedPath(steps=(a, b), direction="forward")
        assert path.steps == ((1, 0, 3, 1.0, 1.0, 4.0, 10.0, 0.2), (1, 1, 3, 1.0, 2.0, 4.0, 20.0, 0.3))
        assert path.slopes == ((0.3 - 0.2) / (20.0 - 10.0),)

    def test_unsigned_index_falling_rejected_without_wrapping(self):
        # np.uint64(1) then 0 is a -1 step, not a wrapped 2**64 - 1.
        a = PathStep(np.uint64(1), 0, 0, 1.0, 1.0, 4.0, 10.0, 0.2)
        b = PathStep(0, 0, 1, 1.0, 1.0, 2.0, 20.0, 0.3)
        with pytest.raises(InvalidParameterError, match=r"got \(-1, 0, 1\)"):
            OrderedPath(steps=(a, b), direction="forward")

    @pytest.mark.parametrize(
        "steps",
        [
            (1, 2),
            (FLAT_THEN_FALLING[0], (0, 0, 1, 1.0, 1.0, 2.0, 20.0, 0.5)),
            ((0, 0, 0, 1.0, 1.0, 4.0, 10.0),),
            (FLAT_THEN_FALLING[0], "PathStep"),
        ],
        ids=["ints", "plain-8-tuple", "7-tuple", "str"],
    )
    def test_steps_must_be_path_steps(self, steps):
        with pytest.raises(InvalidParameterError, match="path steps must be PathStep"):
            OrderedPath(steps=steps, direction="forward")

    def test_flags_derived_from_steps(self):
        path = OrderedPath(steps=FLAT_THEN_FALLING, direction="forward")
        assert path.nonpositive_gain_steps == (1, 2)
        same = OrderedPath(FLAT_THEN_FALLING, "forward", nonpositive_gain_steps=(1, 2))
        assert same.nonpositive_gain_steps == (1, 2)

    def test_steps_from_a_list_stored_as_a_tuple(self):
        path = OrderedPath(steps=list(FLAT_THEN_FALLING), direction="forward")
        assert path.steps == FLAT_THEN_FALLING
        assert path == OrderedPath(steps=FLAT_THEN_FALLING, direction="forward")
        assert hash(path) == hash(OrderedPath(steps=FLAT_THEN_FALLING, direction="forward"))

    def test_steps_from_a_generator_checked_and_stored(self):
        path = OrderedPath(steps=(x for x in FLAT_THEN_FALLING), direction="forward")
        assert path.steps == FLAT_THEN_FALLING
        assert path.nonpositive_gain_steps == (1, 2)
        with pytest.raises(InvalidParameterError, match="no steps"):
            OrderedPath(steps=(x for x in ()), direction="forward")

    def test_slopes_derived_from_steps(self):
        a, b, c = FLAT_THEN_FALLING
        path = OrderedPath(steps=FLAT_THEN_FALLING, direction="forward")
        assert path.slopes == ((b.quality - a.quality) / (b.rate - a.rate),
                               (c.quality - b.quality) / (c.rate - b.rate))
        assert OrderedPath(steps=(a,), direction="forward").slopes == ()

    def test_overflowing_slope_rejected(self):
        # A quality rise over a subnormal rate step overflows to inf.
        a = PathStep(0, 0, 0, 1.0, 1.0, 4.0, 1e-310, 0.2)
        b = PathStep(1, 0, 0, 2.0, 1.0, 4.0, 2e-310, 0.5)
        with pytest.raises(OutOfRangeError, match="step 1: .* is inf"):
            OrderedPath(steps=(a, b), direction="forward")

    def test_overflowing_slope_rejected_before_a_later_bad_move(self):
        # Step 1's slope overflows; step 2 moves in two coordinates. Each step
        # is checked in full before the next, so the slope's error comes first.
        a = PathStep(0, 0, 0, 1.0, 1.0, 4.0, 1e-310, 0.2)
        b = PathStep(1, 0, 0, 2.0, 1.0, 4.0, 2e-310, 0.5)
        c = PathStep(2, 1, 0, 3.0, 2.0, 4.0, 3e-310, 0.6)
        with pytest.raises(OutOfRangeError, match="step 1: .* is inf"):
            OrderedPath(steps=(a, b, c), direction="forward")

    @pytest.mark.parametrize("order", [order_forward, order_backward])
    def test_subnormal_rate_steps_out_of_range(self, order):
        rp = RateParams(a=1.0, b=1.0, c=1.0, r_max=1e-307, ref=REF)
        grid = build_layer_grid(rp, CITY_Q, LAYER_S, LAYER_T, LAYER_Q)
        with pytest.raises(OutOfRangeError, match="quality change per rate increase is inf"):
            order(grid)

    @pytest.mark.parametrize("flags", [(7,), (), (1,), (2, 1)])
    def test_passed_flags_must_match_steps(self, flags):
        with pytest.raises(InvalidParameterError, match="nonpositive_gain_steps"):
            OrderedPath(FLAT_THEN_FALLING, "forward", nonpositive_gain_steps=flags)

    def test_single_coordinate_steps_required(self):
        a = PathStep(0, 0, 0, 1.0, 1.0, 4.0, 10.0, 0.2)
        b = PathStep(1, 1, 0, 2.0, 2.0, 4.0, 30.0, 0.5)
        with pytest.raises(InvalidParameterError):
            OrderedPath(steps=(a, b), direction="forward")

    def test_levels_must_not_fall_along_the_path(self):
        # The indices step by +1 in l, but the frame size falls.
        a = PathStep(0, 0, 0, 2.0, 1.0, 4.0, 10.0, 0.2)
        b = PathStep(1, 0, 0, 1.0, 1.0, 4.0, 30.0, 0.5)
        with pytest.raises(InvalidParameterError, match="monotonicity"):
            OrderedPath(steps=(a, b), direction="forward")

    def test_monotonicity_checked_before_rate(self):
        # Both the frame size and the rate fall.
        a = PathStep(0, 0, 0, 2.0, 1.0, 4.0, 30.0, 0.2)
        b = PathStep(1, 0, 0, 1.0, 1.0, 4.0, 10.0, 0.5)
        with pytest.raises(InvalidParameterError, match="monotonicity"):
            OrderedPath(steps=(a, b), direction="forward")

    def test_frame_rate_must_not_fall_along_the_path(self):
        a = PathStep(0, 0, 0, 1.0, 2.0, 4.0, 10.0, 0.2)
        b = PathStep(0, 1, 0, 1.0, 1.0, 4.0, 30.0, 0.5)
        with pytest.raises(InvalidParameterError, match="monotonicity"):
            OrderedPath(steps=(a, b), direction="forward")

    def test_one_step_path_has_no_rate_gap(self):
        path = OrderedPath(steps=(PathStep(0, 0, 0, 1.0, 1.0, 4.0, 10.0, 0.2),), direction="forward")
        assert max_rate_gap(path) == 0.0

    @given(
        dims=st.tuples(
            st.integers(min_value=1, max_value=3),
            st.integers(min_value=1, max_value=4),
            st.integers(min_value=1, max_value=4),
        )
    )
    def test_path_length_property(self, dims):
        L, M, N = dims
        s_levels = [REF.s_max / 4**k for k in reversed(range(L))]
        t_levels = [REF.t_max / 2**k for k in reversed(range(M))]
        q_levels = [REF.q_min * 1.6**k for k in reversed(range(N))]
        grid = build_layer_grid(CITY, CITY_Q, s_levels, t_levels, q_levels)
        for path in (order_forward(grid), order_backward(grid)):
            assert len(path.steps) == (L - 1) + (M - 1) + (N - 1) + 1

    def test_flat_quality_step_flagged_not_rejected(self):
        rate = np.array([[[10.0, 20.0, 40.0]]])
        quality = np.array([[[0.5, 0.5, 0.9]]])
        grid = LayerGrid((1.0,), (1.0,), (4.0, 3.0, 2.0), rate, quality)
        path = order_forward(grid)
        assert path.nonpositive_gain_steps == (1,)

    def test_grid_from_list_tables(self):
        rate = [[[10.0, 20.0, 40.0]]]
        quality = [[[0.5, 0.5, 0.9]]]
        grid = LayerGrid((1.0,), (1.0,), (4.0, 3.0, 2.0), rate, quality)
        assert isinstance(grid.rate, np.ndarray) and grid.rate.dtype == float
        assert isinstance(grid.quality, np.ndarray) and grid.quality.dtype == float
        for path in (order_forward(grid), order_backward(grid)):
            assert [step.rate for step in path.steps] == [10.0, 20.0, 40.0]
            assert path.nonpositive_gain_steps == (1,)

    def test_grid_keeps_read_only_copies(self):
        rate = np.array([[[10.0, 20.0, 40.0]]])
        quality = np.array([[[0.5, 0.6, 0.9]]])
        grid = LayerGrid((1.0,), (1.0,), (4.0, 3.0, 2.0), rate, quality)
        rate[0, 0, 1] = 5.0
        quality[0, 0, 1] = np.nan
        assert grid.rate.tolist() == [[[10.0, 20.0, 40.0]]]
        assert grid.quality.tolist() == [[[0.5, 0.6, 0.9]]]
        assert order_forward(grid).nonpositive_gain_steps == ()
        for table in (grid.rate, grid.quality):
            with pytest.raises(ValueError):
                table[0, 0, 0] = 1.0

    def test_model_grids_never_flag(self):
        assert order_forward(city_grid()).nonpositive_gain_steps == ()
        assert order_backward(city_grid()).nonpositive_gain_steps == ()


# ---------------------------------------------------------------------------
# build_layer_grid and the two walks apply each rule once and build their
# results without the constructors' checks; these properties hold them to
# what the checked constructors make of the same values.


def path_fields(path):
    """Every field of a path, with the type of each stored value, and its repr."""
    if isinstance(path, tuple):  # an error
        return path
    fields = (path.steps, path.direction, path.nonpositive_gain_steps, path.slopes)
    types = [type(v) for v in (*path.slopes, *path.nonpositive_gain_steps)]
    types += [type(v) for step in path.steps for v in step]
    return fields, types, repr(path)


def grid_fields(grid):
    """Every field of a grid, tables as dtype, shape and bytes."""
    if isinstance(grid, tuple):  # an error
        return grid
    tables = [(t.dtype, t.shape, t.flags.c_contiguous, t.tobytes())
              for t in (grid.rate, grid.quality)]
    levels = (grid.s_levels, grid.t_levels, grid.q_levels)
    return levels, [type(v) for ladder in levels for v in ladder], tables


def walk_steps(grid, direction):
    """The steps the greedy rule picks on ``grid``, as written in the
    package docstrings: the best slope dq/dr of a single-coordinate move, ties
    to amplitude, then temporal, then spatial; in increasing-rate order."""
    forward = direction == "forward"
    shape = grid.shape
    pos = [0, 0, 0] if forward else [n - 1 for n in shape]
    sign = 1 if forward else -1
    cells = [tuple(pos)]
    while True:
        here = tuple(pos)
        best = None
        for axis in (2, 1, 0):
            nxt = list(here)
            nxt[axis] += sign
            if not 0 <= nxt[axis] < shape[axis]:
                continue
            nxt = tuple(nxt)
            # Python floats, which overflow to inf without a warning.
            slope = ((grid.quality.item(nxt) - grid.quality.item(here))
                     / (grid.rate.item(nxt) - grid.rate.item(here)))
            if best is None or (slope > best[0] if forward else slope < best[0]):
                best = (slope, nxt)
        if best is None:
            break
        pos = list(best[1])
        cells.append(best[1])
    if not forward:
        cells.reverse()
    return tuple(
        PathStep(*cell, grid.s_levels[cell[0]], grid.t_levels[cell[1]], grid.q_levels[cell[2]],
                 grid.rate.item(cell), grid.quality.item(cell))
        for cell in cells
    )


# Rates from the subnormal range up, so a rate step can be subnormal and a
# slope overflow; qualities finite, often equal, so steps are flat or falling.
rates = st.one_of(st.floats(min_value=5e-324, max_value=1e-300),
                  st.floats(min_value=1e-300, max_value=1e300))
qualities = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                      st.floats(min_value=-1.0, max_value=2.0),
                      st.floats(allow_nan=False, allow_infinity=False))
ladder_values = st.floats(min_value=1e-3, max_value=1e6)


@st.composite
def lattices(draw):
    """A checked LayerGrid of up to 6x6x6 cells: rates strictly increasing
    along every axis, in a random linear extension of the lattice order."""
    shape = draw(st.tuples(*[st.integers(1, 6)] * 3))
    size = math.prod(shape)
    values = sorted(draw(st.lists(rates, min_size=size, max_size=size, unique=True)))
    ties = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
    cells = sorted(np.ndindex(shape), key=lambda c: (sum(c), ties[np.ravel_multi_index(c, shape)]))
    rate = np.empty(shape)
    for cell, value in zip(cells, values):
        rate[cell] = value
    quality = np.array(draw(st.lists(qualities, min_size=size, max_size=size))).reshape(shape)
    levels = [sorted(draw(st.lists(ladder_values, min_size=n, max_size=n, unique=True)))
              for n in shape]
    levels[2].reverse()
    return LayerGrid(*levels, rate=rate, quality=quality)


class TestTrustedResults:
    @settings(max_examples=200, deadline=None)
    @given(grid=lattices())
    def test_walks_equal_checked_paths(self, grid):
        for order, direction in ((order_forward, "forward"), (order_backward, "backward")):
            want = outcome(OrderedPath, walk_steps(grid, direction), direction)
            got = outcome(order, grid)
            assert path_fields(got) == path_fields(want)
            if not isinstance(got, tuple):
                again = OrderedPath(steps=got.steps, direction=got.direction)
                assert path_fields(got) == path_fields(again) and got == again

    @settings(max_examples=200, deadline=None)
    @given(
        exponents=st.tuples(*[st.floats(0.0, 3.0)] * 3),
        alphas=st.tuples(*[st.floats(0.1, 20.0)] * 3),
        shape=st.tuples(*[st.integers(1, 6)] * 3),
        data=st.data(),
    )
    def test_build_equals_checked_grid(self, exponents, alphas, shape, data):
        rp = RateParams(*exponents, r_max=1000.0, ref=REF)
        qp = QualityParams(*alphas, ref=REF)
        bounds = ((REF.s_max / 64, REF.s_max), (1.0, REF.t_max),
                  (REF.q_min, QualityParams.q_limit * 1.01))
        levels = []
        for n, (lo, hi) in zip(shape, bounds):
            values = sorted(data.draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))
            form = data.draw(st.sampled_from([list, tuple, np.array]))
            levels.append(form(values[::-1] if len(levels) == 2 else values))
        s, t, q = (np.reshape(v, k) for v, k in zip(levels, ((-1, 1, 1), (1, -1, 1), (1, 1, -1))))

        def checked():
            # The surfaces' and the constructor's checks, each in full.
            return LayerGrid(*levels, rate=rate_surface(rp, q, s, t),
                             quality=quality_surface(qp, q, s, t))

        got = outcome(build_layer_grid, rp, qp, *levels)
        assert grid_fields(got) == grid_fields(outcome(checked))
        if isinstance(got, tuple):
            return
        assert grid_fields(got) == grid_fields(
            LayerGrid(*levels, rate=got.rate, quality=got.quality))
        for table in (got.rate, got.quality):
            assert not table.flags.writeable
            assert not any(np.shares_memory(table, v) for v in (*levels, s, t, q))
        assert not np.shares_memory(got.rate, got.quality)


class TestPathStep:
    def test_is_an_immutable_named_tuple(self):
        step = PathStep(0, 1, 2, 101376.0, 15.0, 26.0, 512.5, 0.75)
        assert step == (0, 1, 2, 101376.0, 15.0, 26.0, 512.5, 0.75)
        assert tuple(step) == (0, 1, 2, 101376.0, 15.0, 26.0, 512.5, 0.75)
        assert step._asdict() == {"l": 0, "m": 1, "n": 2, "s": 101376.0, "t": 15.0,
                                  "q": 26.0, "rate": 512.5, "quality": 0.75}
        assert step._replace(rate=600.0).rate == 600.0 and step.rate == 512.5
        with pytest.raises(AttributeError):
            step.rate = 600.0
        assert hash(step) == hash(tuple(step))

    def test_repr(self):
        step = PathStep(0, 1, 2, 101376.0, 15.0, 26.0, 512.5, 0.75)
        assert repr(step) == (
            "PathStep(l=0, m=1, n=2, s=101376.0, t=15.0, q=26.0, rate=512.5, quality=0.75)"
        )


class TestPathQualityLoss:
    def test_zero_for_points_on_the_summary_curve(self):
        qr = QrModel(kappa=4.0, r_max=100.0)
        rates = [10.0, 30.0, 60.0, 100.0]
        steps = tuple(
            PathStep(0, 0, n, 1.0, 1.0, 10.0 - n, r, float(qr_surface(qr, r)))
            for n, r in enumerate(rates)
        )
        path = OrderedPath(steps=steps, direction="forward")
        assert path_quality_loss(path, qr) == pytest.approx(0.0, abs=1e-15)

    def test_city_forward_path_stays_near_summary(self):
        path = order_forward(city_grid())
        qr = QrModel(kappa=5.058, r_max=CITY.r_max)
        assert path_quality_loss(path, qr) <= 0.05

    def test_rates_within_tolerance_of_ceiling_count_as_ceiling(self):
        qr = QrModel(kappa=5.058, r_max=100.0)
        path = OrderedPath(steps=(PathStep(0, 0, 0, 1.0, 1.0, 4.0, 100.0 * (1 + 1e-10), 0.9),),
                           direction="forward")
        assert path_quality_loss(path, qr) == 1.0 - 0.9

    def test_rates_above_ceiling_rejected(self):
        path = order_forward(city_grid())
        with pytest.raises(OutOfRangeError):
            path_quality_loss(path, QrModel(kappa=5.058, r_max=CITY.r_max / 2))
