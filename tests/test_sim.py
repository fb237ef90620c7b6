"""Target trajectories, the closed-loop driver, run summaries, and sweeps."""

import configparser
import dataclasses
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helm_bench import control, core, sensors, sim
from helm_bench.config import _SCHEMA, load_scenario, parse_keys, parse_scenario, sweep_variant
from helm_bench.core import BodyState, ConfigError, IntegrationError, Pose2D
from helm_bench.dynamics import SeaState
from helm_bench.guidance import GuidanceCommand, GuidanceConfig, GuidanceMode
from helm_bench.metrics import Boxes, CostWeights, evaluate_boxes, format_boxes
from helm_bench.sensors import TrackerNoiseConfig, project_target
from helm_bench.sim import (
    LOG_COLUMNS,
    ControllerKind,
    ControllerSpec,
    RunLog,
    Scenario,
    TrackerKind,
    TrackerSpec,
    TrajectoryKind,
    TrajectorySpec,
    derived_seed,
    run_scenario,
    summarize,
    sweep,
    target_pose,
)
from test_metrics import _bits
from test_sensors import _RefPose2D, einsum_cross_zncc

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class TestTargetPose:
    def test_line_uniform_motion(self):
        spec = TrajectorySpec(kind=TrajectoryKind.LINE, origin=Pose2D(0, 0, 0), speed=1.0)
        assert target_pose(spec, 5.0) == (5.0, 0.0, 0.0)

    def test_line_follows_origin_heading(self):
        spec = TrajectorySpec(origin=Pose2D(1.0, 2.0, math.pi / 2), speed=2.0)
        x, y, psi = target_pose(spec, 3.0)
        assert x == pytest.approx(1.0)
        assert y == pytest.approx(8.0)
        assert psi == pytest.approx(math.pi / 2)

    def test_stationary(self):
        spec = TrajectorySpec(kind=TrajectoryKind.STATIONARY, origin=Pose2D(3, 4, 0.5))
        for t in (0.0, 10.0, 1e4):
            assert target_pose(spec, t) == (3.0, 4.0, 0.5)

    def triangle(self):
        # right triangle with perimeter 3 + 4 + 5 = 12
        return TrajectorySpec(
            kind=TrajectoryKind.TRIANGLE,
            speed=1.0,
            vertices=((0.0, 0.0), (3.0, 0.0), (3.0, 4.0)),
        )

    def test_triangle_edges_belong_to_their_spec(self):
        spec = self.triangle()
        before = repr(spec)
        assert spec.perimeter == 12.0
        assert repr(spec) == before and spec == self.triangle()
        moved = dataclasses.replace(spec, vertices=((0.0, 0.0), (6.0, 0.0), (6.0, 8.0)))
        assert moved.perimeter == 24.0
        assert target_pose(moved, 9.0)[:2] == (6.0, 3.0)

    def test_triangle_periodic_at_perimeter(self):
        spec = self.triangle()
        start = target_pose(spec, 0.0)
        lap = target_pose(spec, 12.0)
        assert lap[:2] == pytest.approx(start[:2], abs=1e-9)

    def test_triangle_heading_along_current_edge(self):
        spec = self.triangle()
        mid = target_pose(spec, 1.5)  # halfway along the first edge
        assert mid[:2] == pytest.approx((1.5, 0.0))
        assert mid[2] == 0.0
        up = target_pose(spec, 4.0)  # 1 m up the second edge
        assert up[:2] == pytest.approx((3.0, 1.0))
        assert up[2] == pytest.approx(math.pi / 2)

    def test_triangle_vertex_ties_to_next_edge(self):
        spec = self.triangle()
        at_vertex = target_pose(spec, 3.0)
        assert at_vertex[:2] == pytest.approx((3.0, 0.0))
        assert at_vertex[2] == pytest.approx(math.pi / 2)  # next edge points +y

    def test_zero_speed_triangle_parks_at_first_vertex(self):
        spec = TrajectorySpec(
            kind=TrajectoryKind.TRIANGLE, speed=0.0,
            vertices=((1.0, 1.0), (2.0, 1.0), (1.0, 2.0)),
        )
        assert target_pose(spec, 7.0)[:2] == (1.0, 1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            target_pose(TrajectorySpec(), -0.1)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            TrajectorySpec(speed=-1.0)
        with pytest.raises(ConfigError):
            TrajectorySpec(kind=TrajectoryKind.TRIANGLE, vertices=((0, 0), (1, 0)))
        with pytest.raises(ConfigError):
            TrajectorySpec(
                kind=TrajectoryKind.TRIANGLE, vertices=((0, 0), (0, 0), (1, 0))
            )

    def test_default_triangle_geometry(self):
        spec = TrajectorySpec(kind=TrajectoryKind.TRIANGLE, triangle_center=(40.0, 0.0), triangle_side=20.0)
        vertices = spec.corners
        assert len(vertices) == 3
        xs = [v[0] for v in vertices]
        ys = [v[1] for v in vertices]
        assert np.mean(xs) == pytest.approx(40.0)
        assert np.mean(ys) == pytest.approx(0.0)
        assert vertices[0] == pytest.approx((40.0, 20.0 / math.sqrt(3.0)))  # above centroid
        for i in range(3):
            ax, ay = vertices[i]
            bx, by = vertices[(i + 1) % 3]
            assert math.hypot(bx - ax, by - ay) == pytest.approx(20.0)
        # and TrajectorySpec accepts them as vertices
        spec = TrajectorySpec(kind=TrajectoryKind.TRIANGLE, vertices=vertices)
        assert spec.vertices == spec.corners == vertices


class TestConstructorAndFileAgree:
    def test_default_triangle_is_the_file_default(self):
        spec = TrajectorySpec(kind=TrajectoryKind.TRIANGLE)
        assert spec == parse_scenario("[target]\nkind = triangle\n").target
        assert spec.vertices is None

    def test_replaced_side_moves_the_triangle(self):
        spec = dataclasses.replace(TrajectorySpec(kind=TrajectoryKind.TRIANGLE), triangle_side=30.0)
        corners = spec.corners
        for i in range(3):
            (ax, ay), (bx, by) = corners[i], corners[(i + 1) % 3]
            assert math.hypot(bx - ax, by - ay) == pytest.approx(30.0, rel=1e-12)

    @pytest.mark.parametrize("side", [0.0, -20.0])
    def test_side_must_be_positive_on_a_default_triangle(self, side):
        with pytest.raises(ConfigError, match="^triangle_side must be > 0$"):
            TrajectorySpec(kind=TrajectoryKind.TRIANGLE, triangle_side=side)

    def test_side_is_unused_elsewhere(self):
        # as the file: a line, or a triangle with vertices, never reads triangle_side
        TrajectorySpec(kind=TrajectoryKind.LINE, triangle_side=-20.0)
        vertices = ((0.0, 0.0), (3.0, 0.0), (0.0, 4.0))
        assert TrajectorySpec(kind=TrajectoryKind.TRIANGLE, vertices=vertices, triangle_side=-20.0).corners == vertices
        parse_scenario("[target]\nkind = line\ntriangle_side = -20\n")
        parse_scenario("[target]\nkind = triangle\nvertices = 0,0; 3,0; 0,4\ntriangle_side = -20\n")


# --- oracle: target_pose on Pose2D, before the edges kept their headings, kept verbatim


def _ref_edges(spec: TrajectorySpec) -> tuple:
    """(ax, ay, ex, ey, length) of each edge of the closed TRIANGLE path."""
    assert spec.vertices is not None
    edges = []
    for i in range(3):
        ax, ay = spec.vertices[i]
        bx, by = spec.vertices[(i + 1) % 3]
        edges.append((ax, ay, bx - ax, by - ay, math.hypot(bx - ax, by - ay)))
    return tuple(edges)


def _ref_target_pose(spec: TrajectorySpec, t: float):
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if spec.kind is TrajectoryKind.STATIONARY:
        return spec.origin
    if spec.kind is TrajectoryKind.LINE:
        return _RefPose2D(
            x=spec.origin.x + spec.speed * t * math.cos(spec.origin.psi),
            y=spec.origin.y + spec.speed * t * math.sin(spec.origin.psi),
            psi=spec.origin.psi,
        )
    edges = _ref_edges(spec)
    s = math.fmod(spec.speed * t, sum(e[4] for e in edges))
    for ax, ay, ex, ey, length in edges:
        if s < length:
            f = s / length
            return _RefPose2D(x=ax + f * ex, y=ay + f * ey, psi=math.atan2(ey, ex))
        s -= length
    # fmod rounding can land exactly on the perimeter: wrap to the first vertex.
    ax, ay, ex, ey, _ = edges[0]
    return _RefPose2D(x=ax, y=ay, psi=math.atan2(ey, ex))


_TRAJ_COORDS = st.one_of(st.floats(-100.0, 100.0), st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300]))
_VERTICES = st.tuples(*[st.tuples(_TRAJ_COORDS, _TRAJ_COORDS)] * 3)
_TIMES = st.one_of(st.floats(0.0, 1e4), st.sampled_from([0.0, 3.0, 12.0, 60.0]), st.floats(0.0, 1e12))


@st.composite
def trajectories(draw):
    kind = draw(st.sampled_from(TrajectoryKind))
    origin = Pose2D(draw(_TRAJ_COORDS), draw(_TRAJ_COORDS), draw(st.floats(-10.0, 10.0)))
    speed = draw(st.one_of(st.floats(0.0, 10.0), st.just(0.0)))
    vertices = None
    if kind is TrajectoryKind.TRIANGLE:
        vertices = draw(_VERTICES)
        edges = zip(vertices, vertices[1:] + vertices[:1])
        assume(all(math.hypot(b[0] - a[0], b[1] - a[1]) > 0.0 for a, b in edges))
    return TrajectorySpec(kind=kind, origin=origin, speed=speed, vertices=vertices)


class TestTargetPoseOracle:
    @settings(max_examples=400, deadline=None)
    @given(trajectories(), _TIMES)
    # an edge along -x whose ey is -0.0: atan2 gives -pi, which Pose2D stored as pi
    @example(TrajectorySpec(kind=TrajectoryKind.TRIANGLE, vertices=((1.0, 0.0), (0.0, -0.0), (0.5, 1.0))), 0.5)
    @example(TrajectorySpec(kind=TrajectoryKind.TRIANGLE, vertices=((1.0, 0.0), (0.0, -0.0), (0.5, 1.0))), 0.0)
    @example(TrajectorySpec(origin=Pose2D(0.0, 0.0, -math.pi), speed=1.0), 2.0)
    def test_bit_identical_to_the_pose2d_form(self, spec, t):
        want = _ref_target_pose(spec, t)
        got = target_pose(spec, t)
        assert type(got) is tuple
        assert [v.hex() for v in got] == [want.x.hex(), want.y.hex(), want.psi.hex()]


def quick_scenario(**overrides) -> Scenario:
    base = dict(
        name="quick",
        duration=1.0,
        dt=0.02,
        seed=0,
        target=TrajectorySpec(origin=Pose2D(15.0, 0.0, 0.0), speed=0.5),
        tracker=TrackerSpec(
            noise=TrackerNoiseConfig(sigma_center_px=0.0, sigma_scale=0.0, p_drop_base=0.0)
        ),
    )
    base.update(overrides)
    return Scenario(**base)


class TestRunScenario:
    def test_record_count_and_timestamps(self):
        log = run_scenario(quick_scenario())
        assert len(log) == 51  # floor(1.0 / 0.02) + 1, t = 0 .. 1.0 inclusive
        assert np.allclose(log.t, np.arange(51) * 0.02, atol=0)
        assert log.error is None

    def test_bitwise_deterministic(self):
        a = run_scenario(quick_scenario(duration=3.0))
        b = run_scenario(quick_scenario(duration=3.0))
        assert a.to_csv() == b.to_csv()

    def test_seed_changes_noisy_run(self):
        noisy = TrackerSpec(noise=TrackerNoiseConfig(sigma_center_px=3.0))
        a = run_scenario(quick_scenario(tracker=noisy, seed=1))
        b = run_scenario(quick_scenario(tracker=noisy, seed=2))
        assert a.to_csv() != b.to_csv()

    def test_logged_gt_boxes_match_projection_exactly(self):
        sc = quick_scenario(duration=2.0)
        log = run_scenario(sc)
        boxes = log.gt_boxes()
        for i in range(len(log)):
            usv = (log.x[i], log.y[i], log.psi[i])
            tgt = (log.target_x[i], log.target_y[i], log.target_psi[i])
            want = project_target(usv, tgt, sc.target.extent, sc.camera)
            if want is None:
                assert not boxes.present[i]
            else:
                assert boxes.present[i] and tuple(boxes.xywh[i].tolist()) == want

    def test_blind_tracker_ends_searching(self):
        sc = quick_scenario(
            duration=2.0,
            sea=SeaState(visibility=0.0),  # every detection drops
            guidance_cfg=GuidanceConfig(lost_frames_threshold=5),
        )
        log = run_scenario(sc)
        assert log.mode[-1] == "searching"
        assert log.u_ref[-1] == 0.0
        assert not log.det_valid.any()

    def test_stationary_target_settles_on_bearing(self):
        # 10 m dead ahead, perfect detections, default LQR, speed law that
        # stops at the standoff: the boat closes in while holding bearing
        from helm_bench.guidance import SpeedLaw

        sc = quick_scenario(
            duration=12.0,
            target=TrajectorySpec(
                kind=TrajectoryKind.STATIONARY, origin=Pose2D(10.0, 0.0, 0.0), speed=0.0
            ),
            guidance_cfg=GuidanceConfig(speed_law=SpeedLaw.STOP_AT_D),
        )
        log = run_scenario(sc)
        tail = slice(-int(2.0 / sc.dt), None)
        assert float(np.mean(np.abs(log.e_psi[tail]))) < 0.02
        assert all(m == "tracking" for m in log.mode)
        assert log.e_d[-1] > -5.0  # closed in from e_d = -5 toward the standoff

    def test_frame_stride_holds_detections(self):
        sc = quick_scenario(sensor_noise=sim.SensorNoise(frame_stride=4))
        log = run_scenario(sc)
        # between refreshes the detection columns repeat the held value
        for i in range(len(log)):
            if i % 4:
                assert log.det_x[i] == log.det_x[i - 1]
                assert log.u_ref[i] == log.u_ref[i - 1]

    def test_thruster_columns_consistent(self):
        log = run_scenario(quick_scenario(duration=2.0))
        assert np.allclose(log.TL, log.T1 / 2 - log.T2 / 2, atol=1e-12)
        assert np.allclose(log.TR, log.T1 / 2 + log.T2 / 2, atol=1e-12)
        assert np.all(np.abs(log.TL) <= 100.0) and np.all(np.abs(log.TR) <= 100.0)

    def test_scenario_validation(self):
        with pytest.raises(ConfigError):
            Scenario(duration=0.0)
        with pytest.raises(ConfigError):
            Scenario(dt=0.5)
        with pytest.raises(ConfigError):
            Scenario(duration=1e7, dt=0.001)  # too many steps


class TestStreams:
    """run_scenario builds only the streams its tracker kind draws from."""

    @pytest.mark.parametrize(
        "ini, labels",
        [("calm_line.ini", ["tracker", "lidar", "imu"]), ("ncc_standoff.ini", ["render", "lidar", "imu"])],
    )
    def test_labels_built_per_tracker_kind(self, monkeypatch, ini, labels):
        sc = dataclasses.replace(load_scenario(SCENARIOS / ini), duration=0.2)
        want = run_scenario(sc).to_csv()
        built = []
        stream = sim.stream

        def recording(seed, label):
            built.append(label)
            return stream(seed, label)

        monkeypatch.setattr(sim, "stream", recording)
        assert run_scenario(sc).to_csv() == want
        assert built == labels


class TestNoPerStepObjects:
    """An emulator step builds no Pose2D or Detection: poses and boxes are tuples."""

    @pytest.mark.parametrize("ini", ["calm_line.ini", "sea_triangle.ini"])
    def test_emulator_steps_build_none(self, monkeypatch, ini):
        sc = dataclasses.replace(load_scenario(SCENARIOS / ini), duration=2.0)
        assert sc.tracker.kind is TrackerKind.EMULATOR
        built = Counter()
        classes = (core.Pose2D, sensors.Detection)
        for cls in classes:

            def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
                built[_name] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        # the wrappers count
        core.Pose2D(), sensors.Detection()
        assert built == Counter({cls.__name__: 1 for cls in classes})
        built.clear()

        log = run_scenario(sc)
        assert len(log) == 101 and log.det_valid.any() and log.error is None
        assert built == Counter()


def _commands_and_measurements(n: int) -> list:
    """n varied (GuidanceCommand, measured (u, psi, r)) pairs, so every law's state moves."""
    return [
        (
            GuidanceCommand(GuidanceMode.TRACKING, 1.0 + 0.5 * math.sin(0.3 * k), 0.4 * math.cos(0.2 * k), 0.0),
            (0.8 + 0.1 * math.sin(0.5 * k), math.pi - 0.05 * k, 0.1 * math.cos(0.7 * k)),
        )
        for k in range(n)
    ]


class TestControllerStage:
    """ControllerSpec.build: each law has state of its own, and an LQR build solves its gain."""

    KINDS = list(ControllerKind)

    @pytest.mark.parametrize("kind", KINDS)
    def test_two_laws_from_one_spec_step_alike(self, kind):
        spec, params = ControllerSpec(kind=kind), core.UsvParams()
        steps = _commands_and_measurements(50)
        a, b = spec.build(params, 0.02), spec.build(params, 0.02)
        outs_a = [a(cmd, meas) for cmd, meas in steps]
        assert [b(cmd, meas) for cmd, meas in steps] == outs_a
        assert len(set(outs_a)) > 1

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_stepped_law_leaves_a_fresh_build_alone(self, kind):
        spec, params = ControllerSpec(kind=kind), core.UsvParams()
        steps = _commands_and_measurements(50)
        first = spec.build(params, 0.02)(*steps[0])
        stepped = spec.build(params, 0.02)
        for cmd, meas in steps:
            stepped(cmd, meas)
        assert spec.build(params, 0.02)(*steps[0]) == first

    @pytest.mark.parametrize(
        "kind, names",
        [
            (ControllerKind.PID, ["pid_step"]),
            (ControllerKind.SMC, ["smc_refs", "smc_step"]),
            (ControllerKind.LQR, ["lqr_step"]),
        ],
    )
    def test_a_law_calls_its_steps_through_control(self, monkeypatch, kind, names):
        # A wrapper set on control after the build still sees every call.
        law = ControllerSpec(kind=kind).build(core.UsvParams(), 0.02)
        calls = Counter()
        for name in names:
            step = getattr(control, name)
            monkeypatch.setattr(control, name, lambda *a, _s=step, _n=name: calls.update([_n]) or _s(*a))
        for cmd, meas in _commands_and_measurements(3):
            law(cmd, meas)
        assert calls == Counter({name: 3 for name in names})

    def test_lqr_build_without_a_gain_raises(self):
        params = core.UsvParams(l=1e-300)  # the plant whose CARE fails
        with pytest.raises(core.NumericalError, match="^CARE residual exceeds tolerance$"):
            ControllerSpec(kind=ControllerKind.LQR).build(params, 0.02)
        for kind in (ControllerKind.PID, ControllerKind.SMC):
            assert callable(ControllerSpec(kind=kind).build(params, 0.02))


class TestNccRegionRender:
    """run_scenario renders only the region the NCC tracker reads."""

    @pytest.mark.parametrize("visibility", [1.0, 0.1])
    def test_same_log_as_cropping_full_frames(self, monkeypatch, visibility):
        base = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "ncc_standoff.ini")
        sc = dataclasses.replace(
            base, duration=1.0, sea=dataclasses.replace(base.sea, visibility=visibility)
        )
        fast = run_scenario(sc)

        render = sensors.render_frame
        regions = []

        def full_then_crop(*args, roi=None, **kwargs):
            regions.append(roi)
            frame = render(*args, **kwargs)
            return frame if roi is None else frame[roi[0] : roi[1], roi[2] : roi[3]]

        monkeypatch.setattr(sensors, "render_frame", full_then_crop)
        assert run_scenario(sc).to_csv() == fast.to_csv()
        # one render per camera frame, never of the whole frame
        assert len(regions) == 26
        full = sc.camera.height * sc.camera.width
        assert all((y1 - y0) * (x1 - x0) < full / 10 for y0, y1, x0, x1 in regions)
        if visibility < 1.0:
            assert not fast.det_valid.all()  # the lost-track path ran


class TestNccOneRegionPerFrame:
    """Each NCC frame picks its region once, and matches over exactly the array it rendered."""

    @pytest.mark.parametrize("visibility", [1.0, 0.1])
    def test_window_is_the_rendered_frame(self, monkeypatch, visibility):
        base = load_scenario(SCENARIOS / "ncc_standoff.ini")
        sc = dataclasses.replace(base, duration=1.0, sea=dataclasses.replace(base.sea, visibility=visibility))
        calls = Counter()
        rendered, windows = [], []

        def count(name, keep=lambda args, result: None):
            func = getattr(sensors, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                result = func(*args, **kwargs)
                keep(args, result)
                return result

            monkeypatch.setattr(sensors, name, counted)

        count("render_frame", lambda args, frame: rendered.append(frame))
        count("ncc_track", lambda args, det: windows.append(args[0]))
        count("search_roi")
        count("template_roi")
        log = run_scenario(sc)
        # the first frame starts the tracker; every later one is tracked
        assert calls == Counter(render_frame=26, template_roi=1, search_roi=25, ncc_track=25)
        assert all(window is frame for window, frame in zip(windows, rendered[1:]))
        if visibility < 1.0:
            assert not log.det_valid.all()  # the lost-track path ran


class TestOneProjectionPerStep:
    """An NCC run projects the target once per step: render_frame draws the box it is given."""

    def test_ncc_run_calls_project_target_once_per_record(self, monkeypatch):
        sc = dataclasses.replace(load_scenario(SCENARIOS / "ncc_standoff.ini"), duration=1.0)
        assert sc.tracker.kind is TrackerKind.NCC
        project = sensors.project_target
        calls = []

        def counting(*args):
            calls.append(args)
            return project(*args)

        monkeypatch.setattr(sensors, "project_target", counting)
        log = run_scenario(sc)
        assert len(log) == 51 and log.det_valid.any()
        assert len(calls) == len(log)


class TestNccFftCrossTerm:
    """The FFT cross term leaves NCC run logs byte-identical to an einsum one."""

    @pytest.mark.parametrize("halfwidth", [8, 20])
    @pytest.mark.parametrize("visibility", [1.0, 0.1])
    def test_same_log_as_einsum_cross_term(self, monkeypatch, halfwidth, visibility):
        base = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "ncc_standoff.ini")
        sc = dataclasses.replace(
            base,
            duration=2.0,
            sea=dataclasses.replace(base.sea, visibility=visibility),
            tracker=dataclasses.replace(base.tracker, ncc_search_halfwidth=halfwidth),
        )
        fft = run_scenario(sc).to_csv()
        calls = []

        def einsum_scores(*args):
            calls.append(args[0].shape)
            return einsum_cross_zncc(*args)

        monkeypatch.setattr(sensors, "zncc_scores", einsum_scores)
        assert run_scenario(sc).to_csv().encode() == fft.encode()
        assert len(calls) == 50  # every frame after the first is matched


class TestRunLogCsv:
    def test_round_trip(self):
        log = run_scenario(quick_scenario())
        back = RunLog.from_csv(log.to_csv())
        assert back.to_csv() == log.to_csv()
        assert back.error is None

    def test_equality_is_identity(self):
        # numpy columns have no single truth value, so == compares identity and never raises
        log, again = run_scenario(quick_scenario()), run_scenario(quick_scenario())
        assert (log == log) is True
        assert (log == again) is False

    def test_error_line_round_trip(self):
        log = run_scenario(quick_scenario())
        log.error = "integration diverged at t=0.5"
        text = log.to_csv()
        assert text.splitlines()[0] == "# error: integration diverged at t=0.5"
        back = RunLog.from_csv(text)
        assert back.error == "integration diverged at t=0.5"

    def test_header_checked(self):
        with pytest.raises(ConfigError):
            RunLog.from_csv("a,b,c\n1,2,3\n")

    def test_header_matches_log_columns(self):
        text = run_scenario(quick_scenario()).to_csv()
        assert text.splitlines()[0] == ",".join(LOG_COLUMNS)

    def test_row_with_wrong_cell_count_rejected(self):
        lines = run_scenario(quick_scenario()).to_csv().splitlines()
        short = lines[:-1] + [lines[-1].rsplit(",", 1)[0]]
        with pytest.raises(ConfigError, match="cells"):
            RunLog.from_csv("\n".join(short) + "\n")
        long = lines[:-1] + [lines[-1] + ",0.0"]
        with pytest.raises(ConfigError, match="cells"):
            RunLog.from_csv("\n".join(long) + "\n")

    def test_non_numeric_cell_rejected(self):
        lines = run_scenario(quick_scenario()).to_csv().splitlines()
        cells = lines[1].split(",")
        cells[LOG_COLUMNS.index("x")] = "abc"
        with pytest.raises(ConfigError, match="abc"):
            RunLog.from_csv("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")


# --- oracle: the list export that RunLog.gt_boxes/pred_boxes and format_boxes replaced, kept verbatim
# but for its box type, now an (x, y, w, h) tuple ---


def _ref_boxes(log, prefix):
    xs = getattr(log, prefix + "_x")
    ys = getattr(log, prefix + "_y")
    ws = getattr(log, prefix + "_w")
    hs = getattr(log, prefix + "_h")
    out = []
    for x, y, w, h in zip(xs, ys, ws, hs):
        if math.isnan(x):
            out.append(None)
        else:
            out.append((x, y, w, h))
    return out


def _ref_format_boxes(boxes):
    lines = []
    for b in boxes:
        if b is None:
            lines.append("nan,nan,nan,nan")
        else:
            x, y, w, h = b
            lines.append(f"{x:.6f},{y:.6f},{w:.6f},{h:.6f}")
    return "\n".join(lines) + "\n"


_EXPORT_COORDS = st.one_of(
    st.floats(-1e4, 1e4),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 1e308, -1e308, 5e-324, math.nan]),
)
_EXPORT_SIZES = st.one_of(st.floats(0.0, 1e4), st.sampled_from([0.0, -0.0, math.inf, 1e308, 5e-324]))
_EXPORT_BOXES = st.tuples(_EXPORT_COORDS, _EXPORT_COORDS, _EXPORT_SIZES, _EXPORT_SIZES)


class TestBoxExportOracle:
    @pytest.mark.parametrize(
        "scenario, kind, visibility",
        [(name, kind, None) for name in ("calm_line", "sea_line", "sea_triangle") for kind in ("pid", "smc", "lqr")]
        + [("ncc_standoff", None, 1.0), ("ncc_standoff", None, 0.1)],
    )
    def test_shipped_runs_export_as_the_list_export(self, scenario, kind, visibility):
        sc = load_scenario(SCENARIOS / f"{scenario}.ini")
        if kind is not None:
            sc = dataclasses.replace(sc, controller=ControllerSpec(kind=ControllerKind(kind)))
        if visibility is not None:
            sc = dataclasses.replace(sc, sea=dataclasses.replace(sc.sea, visibility=visibility))
        log = run_scenario(sc)
        gt, pred = _ref_boxes(log, "gt"), _ref_boxes(log, "det")
        assert format_boxes(log.gt_boxes()) == _ref_format_boxes(gt)
        assert format_boxes(log.pred_boxes()) == _ref_format_boxes(pred)
        report = evaluate_boxes(log.gt_boxes(), log.pred_boxes())
        assert _bits(report) == _bits(evaluate_boxes(Boxes.of(gt), Boxes.of(pred)))
        if visibility == 0.1:
            assert None in pred  # the miss rows ran

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.none(), _EXPORT_BOXES), max_size=12))
    def test_format_matches_the_list_formatter(self, boxes):
        assert format_boxes(Boxes.of(boxes)) == _ref_format_boxes(boxes)


def test_logformat_doc_lists_log_columns_in_order():
    """The column table in docs/logformat.md names every LOG_COLUMNS entry, in order."""
    doc = (Path(__file__).resolve().parent.parent / "docs" / "logformat.md").read_text()
    table = doc.split("## runlog.csv columns", 1)[1].split("\n\n", 2)[1]
    rows = [ln for ln in table.splitlines() if ln.startswith("| `")]
    names = [name for row in rows for name in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert tuple(names) == LOG_COLUMNS


def synthetic_log(e_psi, TL=None, TR=None, dt=0.02):
    n = len(e_psi)
    zeros = np.zeros(n)
    return RunLog(
        t=np.arange(n) * dt,
        x=zeros, y=zeros, psi=zeros, u=zeros, r=zeros,
        target_x=zeros, target_y=zeros, target_psi=zeros,
        det_valid=np.ones(n, dtype=int),
        det_x=zeros, det_y=zeros, det_w=zeros, det_h=zeros,
        lidar=zeros, mode=["tracking"] * n,
        u_ref=zeros, e_psi=np.asarray(e_psi, float), e_d=zeros, e_y=zeros,
        T1=zeros, T2=zeros,
        TL=zeros if TL is None else np.asarray(TL, float),
        TR=zeros if TR is None else np.asarray(TR, float),
        gt_x=zeros, gt_y=zeros, gt_w=zeros, gt_h=zeros,
    )


class TestSummarize:
    def test_monotone_decay_has_no_overshoot(self):
        e = 0.5 * np.exp(-np.arange(200) * 0.05)
        s = summarize(synthetic_log(e), CostWeights())
        assert s.overshoot_pct == 0.0

    def test_overshoot_percentage(self):
        e = np.concatenate([[0.5], np.full(99, -0.1)])
        s = summarize(synthetic_log(e), CostWeights())
        assert s.overshoot_pct == pytest.approx(20.0)  # 0.1 / 0.5

    def test_settling_time_backward_scan(self):
        e = np.concatenate([np.full(50, 0.2), np.full(50, 0.01)])
        s = summarize(synthetic_log(e, dt=0.1), CostWeights())
        assert s.settling_time_s == pytest.approx(5.0)  # first index inside the band

    def test_settling_infinite_when_final_outside_band(self):
        e = np.concatenate([np.zeros(99), [0.2]])
        s = summarize(synthetic_log(e), CostWeights())
        assert s.settling_time_s == math.inf

    def test_rms_uses_last_quarter(self):
        e = np.concatenate([np.full(75, 1.0), np.full(25, 0.04)])
        s = summarize(synthetic_log(e), CostWeights())
        assert s.rms_e_psi_ss == pytest.approx(0.04)

    def test_constant_thrust_zero_variation(self):
        s = summarize(synthetic_log(np.zeros(100), TL=np.full(100, 7.0)), CostWeights())
        assert s.tv_left == 0.0

    def test_total_variation_sums_jumps(self):
        TL = np.array([0.0, 2.0, -1.0, -1.0])
        TR = np.array([1.0, 1.0, 1.0, 4.0])
        s = summarize(synthetic_log(np.zeros(4), TL=TL, TR=TR), CostWeights())
        assert s.tv_left == pytest.approx(5.0)
        assert s.tv_right == pytest.approx(3.0)
        assert s.tv_total == pytest.approx(8.0)


# The quick scenario as a file: its sections and their key texts.
QUICK_KEYS = {
    "run": {"name": "quick", "duration": "1.0", "dt": "0.02", "seed": "0"},
    "target": {"x0": "15", "speed": "0.5"},
    "tracker": {"sigma_center_px": "0", "sigma_scale": "0", "p_drop_base": "0"},
}


def scenario_text(sections: dict[str, dict[str, str]]) -> str:
    return "".join(
        f"[{sec}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for sec, keys in sections.items()
    )


def quick_keys() -> dict:
    return parse_keys(scenario_text(QUICK_KEYS))


class TestSweep:
    def test_quick_file_is_the_quick_scenario(self):
        assert parse_scenario(scenario_text(QUICK_KEYS)) == quick_scenario()

    def test_variant_naming_and_seed_derivation(self):
        keys = quick_keys()
        v0 = sweep_variant(keys, "sea.visibility", "0.5", 0)
        v1 = sweep_variant(keys, "sea.visibility", "0.8", 1)
        assert v0.name == "quick[sea.visibility=0.5]"
        assert v0.sea.visibility == 0.5
        assert v0.seed == derived_seed(0, "sweep:0")
        assert v0.seed != v1.seed != 0
        assert keys == quick_keys()  # the base keys are left as they were

    def test_derived_seed_is_stable(self):
        assert derived_seed(0, "sweep:0") == derived_seed(0, "sweep:0")
        assert derived_seed(0, "sweep:0") != derived_seed(1, "sweep:0")

    def test_unknown_path_rejected(self):
        with pytest.raises(ConfigError):
            sweep_variant(quick_keys(), "sea.depth", "1.0", 0)

    @pytest.mark.parametrize(
        "path",
        # properties and methods, a non-init field, a segment past a float
        ["target.edges", "target.perimeter", "n_steps", "tracker._ncc", "tracker.build",
         "camera.cx", "camera.hfov", "sea.visibility.real", "target.origin.x.real"],
    )
    def test_a_name_that_is_no_init_field_is_an_unknown_path(self, path):
        # an axis is a file key, section.key, and none of these names is one
        section, _, key = path.partition(".")
        unknown = f"unknown key {key!r} in [{section}]" if key else f"unknown section [{section}]"
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: {unknown}')}$"):
            sweep_variant(quick_keys(), path, "1", 0)

    def test_nested_init_fields_still_sweep(self):
        v = sweep_variant(quick_keys(), "target.x0", "12", 0)
        assert v.target.origin.x == 12.0 and v.target.speed == 0.5
        v = sweep_variant(quick_keys(), "tracker.sigma_scale", "0.1", 0)
        assert v.tracker.noise.sigma_scale == 0.1

    def test_numeric_coercion_follows_field_type(self):
        v = sweep_variant(quick_keys(), "sensors.frame_stride", "3", 0)
        assert v.sensor_noise.frame_stride == 3
        v = sweep_variant(quick_keys(), "sea.wave_gain", "0.25", 0)
        assert v.sea.wave_gain == 0.25
        # the key's parser (int or auto) decides, not the base value
        v = sweep_variant(quick_keys(), "tracker.ncc_search_halfwidth", "8", 0)
        assert v.tracker.ncc_search_halfwidth == 8
        keys = quick_keys()
        keys["tracker"]["ncc_search_halfwidth"] = 8
        v = sweep_variant(keys, "tracker.ncc_search_halfwidth", "auto", 0)
        assert v.tracker.ncc_search_halfwidth is None

    def test_results_in_input_order(self):
        variants = [sweep_variant(quick_keys(), "sea.visibility", v, i) for i, v in enumerate(["0.9", "0.3", "0.6"])]
        assert sweep(variants) == [summarize(run_scenario(v), v.cost) for v in variants]

    def test_aborted_variant_is_an_integration_error(self):
        # u0 = 1e308 leaves the finite domain in the first step
        keys = parse_keys(scenario_text(QUICK_KEYS | {"usv": {"u0": "1e308"}}))
        with pytest.raises(IntegrationError, match=r"quick\[sea.visibility=0.5\]: run aborted"):
            sweep([sweep_variant(keys, "sea.visibility", "0.5", 0)])

    @pytest.mark.parametrize("side", ["-20", "0"])
    def test_triangle_side_must_be_positive(self, side):
        # a negative side would give the point-reflected triangle, first vertex below the centroid
        text = f"[target]\nkind = triangle\ntriangle_side = {side}\n"
        with pytest.raises(ConfigError, match="triangle_side must be > 0"):
            parse_scenario(text)
        with pytest.raises(ConfigError, match="^target.triangle_side: triangle_side must be > 0$"):
            sweep_variant(parse_keys("[target]\nkind = triangle\n"), "target.triangle_side", side, 0)


_FLOAT_TEXTS = ["-0.0", "0", "1e-300", "-1e-300", "1e6", "-1e6",
                "0.02", "0.5", "-0.5", "1", "-3", "20", "1e308", "5e-324"]
_INT_TEXTS = ["0", "1", "-1", "2", "1000000", "-1000000"]
# (section, key, value texts) for every numeric key, then for keys with
# enum or tuple values
_KEYS = [
    (sec, key, _FLOAT_TEXTS if parser is float else _INT_TEXTS)
    for sec, keys in _SCHEMA.items()
    for key, parser in keys.items()
    if parser in (float, int)
] + [
    ("target", "kind", ["line", "triangle", "stationary"]),
    ("target", "vertices", ["0,0; 10,0; 0,10", "0,0; 0,0; 0,0", "0,0; 1,0; 2,0",
                            "-1e6,0; 1e6,0; 0,1e-300"]),
    ("controller", "kind", ["pid", "smc", "lqr"]),
    ("controller", "lqr_q", ["1,1,1", "0,0,0", "1e6,1e-300,0", "-1,1,1"]),
    ("controller", "lqr_r", ["1,1", "0,1", "1e-300,1e6", "-1,1"]),
    ("cost", "q_pixel", ["1,1", "0,0", "1e6,1e-300", "-1e-13,1"]),
    ("cost", "r_effort", ["1e-4,1e-4", "0,1", "1e-300,1e6", "-1,1"]),
]
_NCC_KEYS = [
    ("tracker", "ncc_search_halfwidth", ["auto", "-1", "0", "3", "20", "1000000"]),
    ("tracker", "ncc_context_margin", ["0", "0.35", "1", "5", "1e6"]),
    ("tracker", "render_noise_sigma", ["0", "1e-9", "0.05", "0.3", "-0.0", "-0.5", "1e6"]),
]


def _built(build):
    """The scenario build() returns, or None if it raises ConfigError."""
    try:
        return build()
    except ConfigError:
        return None


def _assert_sweep_is_file(base: dict[str, dict[str, str]], sec: str, key: str, text: str) -> Scenario | None:
    """A one-value sweep of base's file over sec.key does what that file with the key set does."""
    variant = _built(lambda: sweep_variant(parse_keys(scenario_text(base)), f"{sec}.{key}", text, 0))
    sections = {name: dict(keys) for name, keys in base.items()}
    sections.setdefault(sec, {})[key] = text
    parsed = _built(lambda: parse_scenario(scenario_text(sections)))
    assert (variant is None) == (parsed is None), (sec, key, text)
    if variant is not None:
        assert variant == dataclasses.replace(parsed, seed=variant.seed, name=variant.name)
    return variant


class TestSweepIsTheFileWithOneKeySet:
    @pytest.mark.parametrize(
        "sec, key, texts",
        # every key the scenario strategy draws, but the seed, which no sweep may set
        [pytest.param(*k, id=f"{k[0]}.{k[1]}") for k in _KEYS + _NCC_KEYS if k[:2] != ("run", "seed")],
    )
    def test_quick_scenario(self, sec, key, texts):
        for text in texts:
            _assert_sweep_is_file(QUICK_KEYS, sec, key, text)

    @pytest.mark.parametrize("sec, key, text", [("target", "kind", "triangle"), ("sea", "wind_x", "0")])
    def test_sea_line(self, sec, key, text):
        # a triangle without vertices gets the default ones; wind_x is a key but no dataclass field
        sea_line = configparser.ConfigParser()
        sea_line.read(SCENARIOS / "sea_line.ini")
        variant = _assert_sweep_is_file({name: dict(sea_line[name]) for name in sea_line.sections()}, sec, key, text)
        assert variant is not None

    @pytest.mark.parametrize(
        "sec, key, text, other",
        [("controller", "lqr_q", "4.1234567891, 25, 5", "4.1234567899, 25, 5"),
         ("cost", "q_pixel", "1.00000000001, 1", "1, 1")],
        ids=["lqr_q", "q_pixel"],
    )
    def test_weights_apart_in_the_tenth_digit(self, sec, key, text, other):
        # the values differ past the 8th significant digit: == compares every bit
        variant = _assert_sweep_is_file(QUICK_KEYS, sec, key, text)
        sections = {name: dict(keys) for name, keys in QUICK_KEYS.items()}
        sections.setdefault(sec, {})[key] = other
        assert variant != dataclasses.replace(
            parse_scenario(scenario_text(sections)), seed=variant.seed, name=variant.name
        )


@st.composite
def scenario_texts(draw) -> str:
    """Scenario text setting one to four keys, at most 1 s long.

    Half the scenarios track with NCC for at most 0.2 s on a small camera,
    with the target 8 m ahead; their search windows, clipped at the frame
    edge, reach the FFT with odd and non-square sizes. Their camera keys are
    not drawn: the tracker renders up to a whole frame, and a camera a
    million pixels wide would allocate gigabytes.
    """
    sections: dict[str, dict[str, str]] = {"run": {"duration": "1"}}
    pool = _KEYS
    if draw(st.booleans()):
        sections["run"]["duration"] = "0.2"
        sections["camera"] = {"width": "96", "height": "72", "fx": "60"}
        sections["target"] = {"x0": "8", "y0": "1"}
        sections["tracker"] = {"kind": "ncc"}
        pool = [k for k in _KEYS if k[0] != "camera"] + _NCC_KEYS
    keys = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique_by=lambda k: k[:2]))
    for sec, key, texts in keys:
        value = draw(st.sampled_from(texts))
        if (sec, key) == ("run", "duration"):
            value = str(min(float(value), float(sections["run"]["duration"])))
        sections.setdefault(sec, {})[key] = value
    return scenario_text(sections)


class TestAcceptedScenarios:
    """Any scenario the parser accepts runs to its end or to a logged abort."""

    @settings(max_examples=200, deadline=None)
    @given(scenario_texts())
    @example("[run]\nduration = 1\n[sensors]\nlidar_sigma = -0.0\n")
    @example("[DEFAULT]\nduration = 5\n")
    @example("[run]\nduration = 1e308\n")
    @example("[run]\nduration = 1\n[sensors]\npsi_sigma = 1e308\n")
    @example("[run]\nduration = 1\n[sea]\nwave_period = 1e-308\nwave_gain = 1\n")
    def test_runs_or_logs_an_abort(self, text):
        try:
            sc = parse_scenario(text)
        except ConfigError:
            return
        log = run_scenario(sc)
        if log.error is None:
            assert len(log) == math.floor(sc.duration / sc.dt + 1e-9) + 1
        else:
            assert log.to_csv().startswith("# error: ")

    @pytest.mark.parametrize(
        "sec, key",
        [("sensors", k) for k in ("lidar_sigma", "u_sigma", "psi_sigma", "r_sigma")]
        + [("tracker", k) for k in ("sigma_center_px", "sigma_scale")],
    )
    def test_negative_zero_sigma_runs_like_zero(self, sec, key):
        text = "[run]\nduration = 1\n[target]\nx0 = 15\n[{}]\n{} = {}\n"
        negative, positive = (
            run_scenario(parse_scenario(text.format(sec, key, v))).to_csv() for v in ("-0.0", "0.0")
        )
        assert negative == positive

    def test_duration_without_a_step_rejected(self):
        with pytest.raises(ConfigError, match="at least one step"):
            Scenario(duration=0.01, dt=0.02)
        Scenario(duration=0.02, dt=0.02)  # one step, two records

    def test_unsolvable_lqr_gain_gives_an_empty_log(self):
        log = run_scenario(parse_scenario("[run]\nduration = 1\n[usv]\nl = 1e-300\n"))
        assert len(log) == 0
        assert log.error == "no LQR gain: CARE residual exceeds tolerance"

    def test_unweighted_heading_gives_an_empty_log(self):
        # q_psi = 0 leaves the heading unregulated: a closed-loop pole at 0
        log = run_scenario(parse_scenario("[run]\nduration = 1\n[controller]\nlqr_q = 1, 0, 1\n"))
        assert len(log) == 0
        assert log.error == (
            "no LQR gain: closed loop is not strictly stable: eigenvalues "
            "-0.559017+0.000000j, -0.223607+0.000000j, +0.000000+0.000000j"
        )
