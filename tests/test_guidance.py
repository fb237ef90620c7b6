"""Pixel-error extraction, body-frame mapping, speed law, and the lost-target FSM."""

import dataclasses
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helm_bench.config import load_scenario
from helm_bench.core import CameraIntrinsics, ConfigError
from helm_bench.guidance import (
    GuidanceCommand,
    GuidanceConfig,
    GuidanceMode,
    GuidanceState,
    SpeedLaw,
    guidance_step,
    reference_speed,
)
from helm_bench.sensors import TrackerNoiseConfig, project_target
from helm_bench.sim import run_scenario
from test_sensors import _ref_sees, _RefBoundingBox, _RefDetection

CAM = CameraIntrinsics()
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def box_at(center_x: float, center_y: float = 240.0, size: float = 40.0) -> tuple:
    """A square (x, y, w, h) detection box centered on (center_x, center_y)."""
    return (center_x - size / 2, center_y - size / 2, size, size)


MISS = None  # no detection this frame


def errors(box, cam=CAM, range_m=None, cfg=GuidanceConfig()) -> tuple[float, float]:
    """(e_psi, e_d) of the TRACKING command guidance_step gives for one box."""
    cmd = guidance_step(box, range_m, cfg, cam, GuidanceState())
    assert cmd.mode is GuidanceMode.TRACKING
    return cmd.e_psi, cmd.e_d


class TestPixelError:
    def test_centered_target(self):
        assert errors(box_at(320.0)) == (0.0, 0.0)

    def test_lower_right_target(self):
        assert errors(box_at(400.0, 300.0))[0] == math.atan2(-80.0, 500.0)

    def test_corner_target(self):
        box = (-20.0, -20.0, 40.0, 40.0)  # center (0, 0)
        assert errors(box)[0] == math.atan2(320.0, 500.0)

    def test_center_outside_image_rejected(self):
        with pytest.raises(ValueError, match=re.escape("box center (705.0, 205.0) lies outside the image")):
            errors((700.0, 200.0, 10.0, 10.0))

    def test_in_image_errors_bounded(self):
        rng = np.random.default_rng(0)
        bound = math.atan2(CAM.cx, CAM.fx)  # |ex| <= cx for a center in the image
        for _ in range(200):
            cx = rng.uniform(0.0, CAM.width)
            cy = rng.uniform(0.0, CAM.height)
            e_psi, _ = errors(box_at(cx, cy))
            assert abs(e_psi) <= bound


# --- oracle: the PixelError and BoundingBox forms that the tuple forms replaced, kept verbatim


@dataclass(frozen=True)
class PixelError:
    ex: float  # px, +left of image center
    ey: float  # px, +above image center


def _ref_pixel_error(box: _RefBoundingBox, cam: CameraIntrinsics) -> PixelError:
    """Offset of the box center from the image center, positive left/up."""
    cx, cy = box.center()
    if not _ref_sees(cam, box):
        raise ValueError(f"box center ({cx}, {cy}) lies outside the image")
    return PixelError(ex=cam.cx - cx, ey=cam.cy - cy)


def _ref_pixel_to_body(err: PixelError, cam: CameraIntrinsics) -> float:
    """Horizontal pixel error as a body-frame bearing error (rad, + to port)."""
    return math.atan2(err.ex, cam.fx)


def _ref_distance_error(range_m: float, cfg: GuidanceConfig) -> float:
    """Standoff tracking error D - d; positive when inside the standoff."""
    return cfg.standoff - range_m


# Box corners and sizes: in-image values, signed zeros, the image edges and
# centers, infinities and values just off the edges.
_COORDS = st.one_of(
    st.floats(-50.0, 700.0),
    st.sampled_from([0.0, -0.0, 240.0, 320.0, 480.0, 640.0, 15.5, 48.5, 97.0]),
    st.sampled_from([math.inf, -math.inf, -5e-324, math.nextafter(640.0, 1e3)]),
    st.floats(),
)
_SIZES = st.one_of(st.floats(0.0, 100.0), st.sampled_from([0.0, -0.0, 5e-324, math.inf]))
_CAMS = st.sampled_from([CAM, CameraIntrinsics(width=97, height=31, fx=0.3)])
_RANGES = st.one_of(st.floats(0.0, 50.0), st.sampled_from([0.0, 5.0]), st.none())


class TestPixelErrorOracle:
    @settings(max_examples=500, deadline=None)
    @given(_COORDS, _COORDS, _SIZES, _SIZES, _CAMS, _RANGES)
    def test_bit_identical_to_the_dataclass_form(self, x, y, w, h, cam, range_m):
        box = _RefBoundingBox(x, y, w, h)
        cfg = GuidanceConfig()
        try:
            want = _ref_pixel_error(box, cam)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                errors((x, y, w, h), cam, range_m, cfg)
            return
        e_psi, e_d = errors((x, y, w, h), cam, range_m, cfg)
        assert e_psi.hex() == _ref_pixel_to_body(want, cam).hex()
        assert e_d.hex() == (0.0 if range_m is None else _ref_distance_error(range_m, cfg)).hex()

    @pytest.mark.parametrize("ini", ["sea_triangle.ini", "ncc_standoff.ini"])
    def test_run_log_e_y_is_the_vertical_pixel_error_over_fx(self, ini):
        sc = load_scenario(SCENARIOS / ini)
        noisy = dataclasses.replace(sc.tracker, noise=TrackerNoiseConfig())
        log = run_scenario(dataclasses.replace(sc, duration=2.0, tracker=noisy))
        hits = np.flatnonzero(log.det_valid)
        assert hits.size > 0 and log.error is None
        for k in hits.tolist():
            box = _RefBoundingBox(log.det_x[k], log.det_y[k], log.det_w[k], log.det_h[k])
            want = _ref_pixel_error(box, sc.camera).ey / sc.camera.fx
            assert log.e_y[k].hex() == want.hex(), k


class TestPixelToBody:
    def test_centered_is_zero(self):
        assert errors(box_at(320.0))[0] == 0.0

    def test_starboard_detection_turns_clockwise(self):
        e_psi, _ = errors(box_at(400.0))  # ex = -80
        assert e_psi == pytest.approx(math.atan2(-80, 500), abs=1e-12)
        assert e_psi == pytest.approx(-0.1587, abs=1e-4)

    def test_forty_five_degree_geometry(self):
        # wide camera so a pixel offset equal to fx stays inside the image
        cam = CameraIntrinsics(width=1200, height=480, fx=500.0)
        box = (80.0, 220.0, 40.0, 40.0)  # center (100, 240), ex = 500
        assert errors(box, cam)[0] == pytest.approx(math.pi / 4)

    def test_odd_function(self):
        for ex in (10.0, 80.0, 319.0):
            left, _ = errors(box_at(320.0 - ex))
            right, _ = errors(box_at(320.0 + ex))
            assert left == pytest.approx(-right, abs=1e-15)
            assert left > 0.0  # target left of center: positive (port) correction


class TestDistanceError:
    def test_examples(self):
        cfg = GuidanceConfig(standoff=5.0)
        assert errors(box_at(320.0), range_m=5.0, cfg=cfg)[1] == 0.0
        assert errors(box_at(320.0), range_m=20.0, cfg=cfg)[1] == -15.0
        assert errors(box_at(320.0), range_m=0.0, cfg=cfg)[1] == 5.0


class TestReferenceSpeed:
    CFG = GuidanceConfig(standoff=5.0, u_max=1.5, lidar_max_range=50.0)

    def test_beyond_lidar_full_speed(self):
        assert reference_speed(None, self.CFG) == 1.5

    def test_proportional_below_standoff(self):
        assert reference_speed(2.5, self.CFG) == pytest.approx(0.75)

    def test_clamped_above_standoff(self):
        assert reference_speed(10.0, self.CFG) == 1.5  # raw 3.0 clamped

    def test_stop_at_d_endpoints(self):
        cfg = GuidanceConfig(
            standoff=5.0, u_max=1.5, lidar_max_range=50.0, speed_law=SpeedLaw.STOP_AT_D
        )
        assert reference_speed(5.0, cfg) == 0.0
        assert reference_speed(50.0, cfg) == 1.5
        assert reference_speed(2.0, cfg) == 0.0  # inside standoff still stopped
        assert reference_speed(27.5, cfg) == pytest.approx(0.75)

    def test_monotone_and_bounded_both_laws(self):
        for law in SpeedLaw:
            cfg = GuidanceConfig(
                standoff=5.0, u_max=1.5, lidar_max_range=50.0, speed_law=law
            )
            speeds = [reference_speed(d, cfg) for d in np.linspace(0.0, 60.0, 200)]
            assert all(b >= a for a, b in zip(speeds, speeds[1:]))
            assert all(0.0 <= s <= 1.5 for s in speeds)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            GuidanceConfig(standoff=50.0, lidar_max_range=50.0)  # needs D < R_max
        with pytest.raises(ConfigError):
            GuidanceConfig(u_max=0.0)


class TestGuidanceStep:
    CFG = GuidanceConfig(standoff=5.0, u_max=1.5, lidar_max_range=50.0)

    def test_tracking_equilibrium(self):
        state = GuidanceState()
        cmd = guidance_step(box_at(320.0), 5.0, self.CFG, CAM, state)
        assert cmd.mode is GuidanceMode.TRACKING
        assert cmd.e_psi == 0.0
        assert cmd.e_d == 0.0
        assert cmd.u_ref == pytest.approx(1.5)  # PAPER_CLAMPED at d = D

    def test_no_range_means_zero_distance_error(self):
        cmd = guidance_step(box_at(320.0), None, self.CFG, CAM, GuidanceState())
        assert cmd.mode is GuidanceMode.TRACKING
        assert cmd.e_d == 0.0 and cmd.u_ref == 1.5

    def test_holding_repeats_with_decay(self):
        state = GuidanceState()
        tracked = guidance_step(box_at(280.0), 10.0, self.CFG, CAM, state)
        for k in range(1, 4):
            cmd = guidance_step(MISS, None, self.CFG, CAM, state)
            assert cmd.mode is GuidanceMode.HOLDING
            assert cmd.u_ref == pytest.approx(tracked.u_ref * 0.9**k)
            assert cmd.e_psi == tracked.e_psi  # heading command held

    def test_search_after_threshold_keeps_last_sign(self):
        state = GuidanceState()
        guidance_step(box_at(400.0), 10.0, self.CFG, CAM, state)  # starboard: e_psi < 0
        for _ in range(self.CFG.lost_frames_threshold):
            cmd = guidance_step(MISS, None, self.CFG, CAM, state)
            assert cmd.mode is GuidanceMode.HOLDING
        cmd = guidance_step(MISS, None, self.CFG, CAM, state)
        assert cmd.mode is GuidanceMode.SEARCHING
        assert cmd.u_ref == 0.0
        assert cmd.e_psi == -self.CFG.search_yaw_bias

    def test_search_sign_defaults_positive_when_never_seen(self):
        state = GuidanceState()
        for _ in range(self.CFG.lost_frames_threshold + 1):
            cmd = guidance_step(MISS, None, self.CFG, CAM, state)
        assert cmd.mode is GuidanceMode.SEARCHING
        assert cmd.e_psi == self.CFG.search_yaw_bias

    def test_any_valid_detection_restores_tracking(self):
        state = GuidanceState()
        for _ in range(25):
            guidance_step(MISS, None, self.CFG, CAM, state)
        cmd = guidance_step(box_at(330.0), 7.0, self.CFG, CAM, state)
        assert cmd.mode is GuidanceMode.TRACKING
        assert state.lost_count == 0
        # and the lost clock restarts from zero afterwards
        after = guidance_step(MISS, None, self.CFG, CAM, state)
        assert after.mode is GuidanceMode.HOLDING

    def test_port_target_sign_chain(self):
        # world-space target to port -> projected left of center -> e_psi > 0
        box = project_target((0.0, 0.0, 0.0), (10.0, 2.0, 0.0), 2.0, CAM)
        assert box[0] + box[2] / 2.0 < CAM.cx
        cmd = guidance_step(box, 10.0, self.CFG, CAM, GuidanceState())
        assert cmd.e_psi > 0.0



# --- oracle: guidance_step on Detection and a dataclass GuidanceCommand, kept verbatim


@dataclass(frozen=True)
class _RefGuidanceCommand:
    mode: GuidanceMode
    u_ref: float  # m/s
    e_psi: float  # rad, + steers to port
    e_d: float  # m, standoff minus measured range (0 when out of range)


@dataclass
class _RefGuidanceState:
    lost_count: int = 0
    last_command: _RefGuidanceCommand = _RefGuidanceCommand(GuidanceMode.HOLDING, 0.0, 0.0, 0.0)
    last_seen_sign: float = 1.0


def _ref_guidance_step(
    det: _RefDetection,
    range_m: float | None,
    cfg: GuidanceConfig,
    cam: CameraIntrinsics,
    state: _RefGuidanceState,
) -> _RefGuidanceCommand:
    if det.valid and det.box is not None:
        state.lost_count = 0
        e_psi = _ref_pixel_to_body(_ref_pixel_error(det.box, cam), cam)
        if e_psi != 0.0:
            state.last_seen_sign = math.copysign(1.0, e_psi)
        e_d = _ref_distance_error(range_m, cfg) if range_m is not None else 0.0
        cmd = _RefGuidanceCommand(
            mode=GuidanceMode.TRACKING,
            u_ref=reference_speed(range_m, cfg),
            e_psi=e_psi,
            e_d=e_d,
        )
    else:
        state.lost_count += 1
        if state.lost_count <= cfg.lost_frames_threshold:
            prev = state.last_command
            cmd = _RefGuidanceCommand(
                mode=GuidanceMode.HOLDING,
                u_ref=prev.u_ref * cfg.holding_decay,
                e_psi=prev.e_psi,
                e_d=prev.e_d,
            )
        else:
            cmd = _RefGuidanceCommand(
                mode=GuidanceMode.SEARCHING,
                u_ref=0.0,
                e_psi=cfg.search_yaw_bias * state.last_seen_sign,
                e_d=0.0,
            )
    state.last_command = cmd
    return cmd


def _command_bits(cmd) -> tuple:
    return (cmd.mode, cmd.u_ref.hex(), cmd.e_psi.hex(), cmd.e_d.hex())


def _state_bits(state) -> tuple:
    return (state.lost_count, _command_bits(state.last_command), state.last_seen_sign.hex())


_GUIDANCE_CFGS = st.builds(
    GuidanceConfig,
    standoff=st.floats(0.5, 20.0),
    lidar_max_range=st.just(50.0),
    u_max=st.floats(0.1, 3.0),
    lost_frames_threshold=st.integers(0, 4),
    search_yaw_bias=st.floats(-1.0, 1.0),
    speed_law=st.sampled_from(SpeedLaw),
    holding_decay=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])),
)
_STEP_BOXES = st.tuples(
    st.one_of(st.floats(-30.0, 660.0), st.sampled_from([300.0, 320.0, -0.0])),
    st.one_of(st.floats(-30.0, 500.0), st.sampled_from([220.0, 240.0])),
    st.one_of(st.floats(0.0, 80.0), st.sampled_from([0.0, 40.0])),
    st.one_of(st.floats(0.0, 80.0), st.sampled_from([0.0, 40.0])),
)
# A detection, or (one frame in three) a miss; a range, or None beyond the lidar.
_STEPS = st.tuples(
    st.tuples(_STEP_BOXES, st.integers(0, 2)).map(lambda pair: None if pair[1] == 2 else pair[0]),
    _RANGES,
)


class TestGuidanceStepOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_STEPS, min_size=1, max_size=20), _GUIDANCE_CFGS, st.just(CAM))
    def test_bit_identical_commands_and_state(self, steps, cfg, cam):
        state, ref_state = GuidanceState(), _RefGuidanceState()
        assert _state_bits(state) == _state_bits(ref_state)
        for box, range_m in steps:
            det = _RefDetection(False) if box is None else _RefDetection(True, _RefBoundingBox(*box), 1.0)
            try:
                want = _ref_guidance_step(det, range_m, cfg, cam, ref_state)
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    guidance_step(box, range_m, cfg, cam, state)
                assert _state_bits(state) == _state_bits(ref_state)
                return
            got = guidance_step(box, range_m, cfg, cam, state)
            assert isinstance(got, GuidanceCommand)
            assert _command_bits(got) == _command_bits(want)
            assert _state_bits(state) == _state_bits(ref_state)
