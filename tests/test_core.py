"""Angle wrapping, shared value types and their validation."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helm_bench.core import (
    CameraIntrinsics,
    ConfigError,
    Pose2D,
    UsvParams,
    box_center,
    wrap_angle,
)
from helm_bench.guidance import GuidanceConfig, GuidanceMode, GuidanceState, guidance_step
from helm_bench.sensors import TrackerNoiseConfig, emulate_tracker


class TestWrapAngle:
    def test_zero_is_fixed_point(self):
        assert wrap_angle(0.0) == 0.0

    def test_three_pi_maps_to_pi(self):
        assert wrap_angle(3.0 * math.pi) == pytest.approx(math.pi, abs=1e-12)

    def test_negative_three_and_half_pi(self):
        # -3.5pi + 4pi = 0.5pi
        assert wrap_angle(-3.5 * math.pi) == pytest.approx(0.5 * math.pi, abs=1e-12)

    def test_interval_is_half_open_at_minus_pi(self):
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(math.pi) == pytest.approx(math.pi)

    @given(st.floats(-1e6, 1e6))
    def test_idempotent(self, theta):
        w = wrap_angle(theta)
        assert wrap_angle(w) == w

    @given(st.floats(-30.0, 30.0), st.integers(-1000, 1000))
    def test_invariant_under_full_turns(self, theta, k):
        base = wrap_angle(theta)
        shifted = wrap_angle(theta + 2.0 * math.pi * k)
        # adding 2*pi*k in floats perturbs the representation slightly
        assert shifted == pytest.approx(base, abs=1e-6) or abs(
            abs(shifted - base) - 2.0 * math.pi
        ) < 1e-6

    @given(st.floats(-1e6, 1e6))
    def test_range_and_congruence(self, theta):
        w = wrap_angle(theta)
        assert -math.pi < w <= math.pi
        assert math.remainder(theta - w, 2.0 * math.pi) == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            wrap_angle(bad)


# --- oracle: wrap_angle before its fast path for (-pi, pi], kept verbatim

TAU = 2.0 * math.pi


def _ref_wrap_angle(theta: float) -> float:
    """Wrap an angle in radians onto (-pi, pi].

    Raises ValueError for non-finite input.
    """
    if not math.isfinite(theta):
        raise ValueError(f"cannot wrap non-finite angle: {theta!r}")
    wrapped = math.remainder(theta, TAU)
    # IEEE remainder lands on [-pi, pi]; fold the open edge onto +pi.
    if wrapped <= -math.pi:
        wrapped = math.pi
    return wrapped


_PI_EDGES = [
    v
    for c in (math.pi, -math.pi, TAU, -TAU)
    for v in (c, math.nextafter(c, -math.inf), math.nextafter(c, math.inf))
]
_WRAP_INPUTS = st.one_of(
    st.floats(-4.0, 4.0),
    st.floats(-1e6, 1e6),
    st.sampled_from(_PI_EDGES + [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]),
    st.floats(),
)


class TestWrapAngleOracle:
    @settings(max_examples=1000, deadline=None)
    @given(_WRAP_INPUTS)
    @example(math.pi)
    @example(-math.pi)
    @example(-0.0)
    def test_bit_identical_to_the_remainder_form(self, theta):
        try:
            want = _ref_wrap_angle(theta)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                wrap_angle(theta)
            return
        assert wrap_angle(theta).hex() == want.hex()


class TestPose2D:
    def test_heading_stored_wrapped(self):
        p = Pose2D(1.0, 2.0, 5.0 * math.pi)
        assert p.psi == pytest.approx(math.pi)

    def test_defaults(self):
        p = Pose2D()
        assert (p.x, p.y, p.psi) == (0.0, 0.0, 0.0)


class TestBoxCenter:
    def test_center_is_corner_midpoint(self):
        assert box_center((10.0, 20.0, 4.0, 6.0)) == (12.0, 23.0)

    @given(
        st.floats(-100, 100),
        st.floats(-100, 100),
        st.floats(0, 50),
        st.floats(0, 50),
    )
    def test_center_midpoint_property(self, x, y, w, h):
        cx, cy = box_center((x, y, w, h))
        assert cx == pytest.approx((x + (x + w)) / 2.0, rel=1e-12, abs=1e-12)
        assert cy == pytest.approx((y + (y + h)) / 2.0, rel=1e-12, abs=1e-12)


class TestCameraIntrinsics:
    def test_derived_quantities(self):
        cam = CameraIntrinsics(width=640, height=480, fx=500.0)
        assert cam.cx == 320.0
        assert cam.cy == 240.0
        assert cam.hfov == pytest.approx(2.0 * math.atan(640.0 / 1000.0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"width": 0},
            {"height": -10},
            {"fx": 0.0},
            {"fx": -5.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            CameraIntrinsics(**kwargs)

    @pytest.mark.parametrize("fx", [5e-324, 3e-306])
    def test_fx_whose_pixel_ratios_overflow_rejected(self, fx):
        # 480 / 3e-306 is finite, 640 / 3e-306 is not: either ratio rejects.
        with pytest.raises(ConfigError, match="width / fx and height / fx must be finite"):
            CameraIntrinsics(fx=fx)

    def test_smallest_fx_with_finite_ratios_accepted(self):
        fx = 640.0 / 1.7976931348623157e308
        assert math.isfinite(640 / fx) and CameraIntrinsics(fx=fx).cx == 320.0

    @pytest.mark.parametrize(
        "box, seen",
        [
            ((310.0, 230.0, 20.0, 20.0), True),
            ((-5.0, -5.0, 10.0, 10.0), True),  # center on the corner
            ((635.0, 475.0, 10.0, 10.0), True),
            ((-6.0, 230.0, 10.0, 10.0), False),
            ((310.0, 476.0, 10.0, 10.0), False),
        ],
    )
    def test_sees_box_center(self, box, seen):
        # The rule is applied where it runs: the emulator misses a box whose center is off
        # the image, and guidance rejects one.
        cam = CameraIntrinsics()
        exact = TrackerNoiseConfig(sigma_center_px=0.0, sigma_scale=0.0, p_drop_base=0.0)
        reported = emulate_tracker(box, 1.0, exact, np.random.default_rng(0), cam)
        assert reported == (box if seen else None)
        if seen:
            assert guidance_step(box, None, GuidanceConfig(), cam, GuidanceState()).mode is GuidanceMode.TRACKING
        else:
            with pytest.raises(ValueError, match="lies outside the image"):
                guidance_step(box, None, GuidanceConfig(), cam, GuidanceState())


class TestUsvParams:
    def test_defaults_are_valid(self):
        p = UsvParams()
        assert p.m == 20.0
        assert p.Izz == 3.2
        assert p.l == 0.4
        assert p.rdot_max == pytest.approx(math.radians(50.0))
        assert p.thrust_min == -100.0 and p.thrust_max == 100.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"m": 0.0},
            {"Izz": -1.0},
            {"udot_max": 0.0},
            {"thrust_min": 150.0},  # must stay below thrust_max
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            UsvParams(**kwargs)
