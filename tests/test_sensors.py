"""Camera projection, tracker emulation, rendering, NCC tracking, lidar, IMU/DVL."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helm_bench.core import BodyState, BoundingBox, CameraIntrinsics, ConfigError, Pose2D
from helm_bench.seeding import stream
from helm_bench.sensors import (
    NOISE_TILE,
    Detection,
    NccTracker,
    TrackerNoiseConfig,
    _box_sums,
    _fast_len,
    emulate_tracker,
    lidar_range,
    measure_state,
    ncc_track,
    project_target,
    render_frame,
    zncc_scores,
)

CAM = CameraIntrinsics()


class TestProjectTarget:
    def test_on_axis_target_centered(self):
        box = project_target(Pose2D(0, 0, 0), Pose2D(10, 0, 0), 2.0, CAM)
        cx, cy = box.center()
        assert cx == pytest.approx(320.0)
        assert cy == pytest.approx(240.0)
        assert box.w == pytest.approx(100.0)  # fx * extent / d = 500*2/10
        assert box.h == pytest.approx(100.0)

    def test_offset_target_pixel_position(self):
        box = project_target(Pose2D(0, 0, 0), Pose2D(10, 1, 0), 2.0, CAM)
        cx, _ = box.center()
        assert cx == pytest.approx(320.0 - 500.0 * math.tan(math.atan2(1, 10)), abs=1e-9)
        assert cx == pytest.approx(320.0 - 500.0 * math.tan(0.0997), abs=0.1)

    def test_target_behind_camera(self):
        assert project_target(Pose2D(0, 0, 0), Pose2D(-10, 0, 0), 2.0, CAM) is None

    def test_target_too_close(self):
        assert project_target(Pose2D(0, 0, 0), Pose2D(0.05, 0, 0), 2.0, CAM) is None

    def test_target_outside_fov(self):
        # hfov/2 = atan(320/500) ~ 0.57 rad; put target at 1.0 rad bearing
        x, y = 10 * math.cos(1.0), 10 * math.sin(1.0)
        assert project_target(Pose2D(0, 0, 0), Pose2D(x, y, 0), 2.0, CAM) is None

    def test_port_starboard_sign(self):
        port = project_target(Pose2D(0, 0, 0), Pose2D(10, 2, 0), 2.0, CAM)
        stbd = project_target(Pose2D(0, 0, 0), Pose2D(10, -2, 0), 2.0, CAM)
        assert port.center()[0] < CAM.cx < stbd.center()[0]

    def test_bearing_uses_boat_heading(self):
        # boat turned toward the target puts it back on the optical axis
        box = project_target(Pose2D(0, 0, math.atan2(5, 5)), Pose2D(5, 5, 0), 2.0, CAM)
        assert box.center()[0] == pytest.approx(320.0, abs=1e-9)

    def test_size_monotone_in_range(self):
        widths = []
        for d in (5.0, 10.0, 20.0, 40.0):
            widths.append(project_target(Pose2D(0, 0, 0), Pose2D(d, 0, 0), 2.0, CAM).w)
        assert all(a > b for a, b in zip(widths, widths[1:]))

    def test_box_clipped_to_image(self):
        # huge nearby target: box must stay inside the 640x480 frame
        box = project_target(Pose2D(0, 0, 0), Pose2D(0.5, 0, 0), 5.0, CAM)
        assert box.x >= 0.0 and box.y >= 0.0
        assert box.x + box.w <= CAM.width
        assert box.y + box.h <= CAM.height

    def test_extent_validation(self):
        with pytest.raises(ConfigError):
            project_target(Pose2D(0, 0, 0), Pose2D(10, 0, 0), 0.0, CAM)


class TestEmulateTracker:
    TRUTH = BoundingBox(270.0, 190.0, 100.0, 100.0)

    def test_noiseless_passthrough(self):
        cfg = TrackerNoiseConfig(sigma_center_px=0.0, sigma_scale=0.0, p_drop_base=0.0)
        det = emulate_tracker(self.TRUTH, 1.0, cfg, stream(0, "t"), CAM)
        assert det.valid and det.box == self.TRUTH

    def test_no_truth_is_a_miss(self):
        cfg = TrackerNoiseConfig()
        det = emulate_tracker(None, 1.0, cfg, stream(0, "t"), CAM)
        assert not det.valid and det.box is None

    def test_zero_visibility_always_drops(self):
        cfg = TrackerNoiseConfig(p_drop_base=0.0)
        rng = stream(3, "t")
        assert all(not emulate_tracker(self.TRUTH, 0.0, cfg, rng, CAM).valid for _ in range(200))

    def test_center_error_std_scales_with_visibility(self):
        cfg = TrackerNoiseConfig(sigma_center_px=2.0, sigma_scale=0.0, p_drop_base=0.0)
        rng = stream(42, "t")
        errs = []
        for _ in range(10_000):
            det = emulate_tracker(self.TRUTH, 0.5, cfg, rng, CAM)
            if det.valid:
                errs.append(det.box.center()[0] - self.TRUTH.center()[0])
        assert 3.8 < float(np.std(errs)) < 4.2  # sigma / visibility = 4

    def test_dropout_rate_closed_form(self):
        cfg = TrackerNoiseConfig(p_drop_base=0.2)
        rng = stream(7, "t")
        vis = 0.6
        n = 10_000
        drops = sum(not emulate_tracker(self.TRUTH, vis, cfg, rng, CAM).valid for _ in range(n))
        expected = 1.0 - (1.0 - 0.2) * vis
        assert drops / n == pytest.approx(expected, abs=0.015)

    def test_reproducible_given_seed(self):
        cfg = TrackerNoiseConfig()
        a = [emulate_tracker(self.TRUTH, 0.8, cfg, stream(5, "t"), CAM) for _ in range(1)]
        b = [emulate_tracker(self.TRUTH, 0.8, cfg, stream(5, "t"), CAM) for _ in range(1)]
        assert a == b

    def test_size_jitter_never_negative(self):
        cfg = TrackerNoiseConfig(sigma_center_px=0.0, sigma_scale=10.0, p_drop_base=0.0)
        rng = stream(1, "t")
        for _ in range(500):
            det = emulate_tracker(self.TRUTH, 1.0, cfg, rng, CAM)
            assert det.box.w >= 0.0 and det.box.h >= 0.0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrackerNoiseConfig(sigma_center_px=-1.0)
        with pytest.raises(ConfigError):
            TrackerNoiseConfig(p_drop_base=1.0)

    def test_center_off_image_is_a_miss(self):
        # a box at the left edge with 20 px jitter lands off the image often
        edge = BoundingBox(0.0, 190.0, 4.0, 100.0)
        cfg = TrackerNoiseConfig(sigma_center_px=20.0, sigma_scale=0.0, p_drop_base=0.0)
        rng, draws = stream(9, "t"), stream(9, "t")
        misses = 0
        for _ in range(200):
            det = emulate_tracker(edge, 1.0, cfg, rng, CAM)
            # replay the emulator's four draws: dropout, center x, center y, size
            draws.uniform()
            cx = 2.0 + draws.normal(0.0, 20.0)
            cy = 240.0 + draws.normal(0.0, 20.0)
            draws.normal(0.0, 0.0)
            inside = 0.0 <= cx <= CAM.width and 0.0 <= cy <= CAM.height
            assert det.valid == inside
            if inside:
                assert det.box.center() == pytest.approx((cx, cy), abs=1e-12)
            misses += not inside
        assert 50 < misses < 150  # the emulator drew exactly four values per call


class TestRenderFrame:
    def test_clear_render_intensities(self):
        frame = render_frame(
            Pose2D(0, 0, 0), Pose2D(10, 0, 0), 2.0, CAM, 1.0, stream(0, "r"), noise_sigma=0.0
        )
        assert frame.shape == (CAM.height, CAM.width)
        assert frame[240, 320] == pytest.approx(0.8)
        assert frame[10, 10] == pytest.approx(0.3)

    def test_full_haze_uniform(self):
        frame = render_frame(
            Pose2D(0, 0, 0), Pose2D(10, 0, 0), 2.0, CAM, 0.0, stream(0, "r"), noise_sigma=0.0
        )
        assert np.all(frame == 0.6)

    def test_half_visibility_halves_contrast(self):
        frame = render_frame(
            Pose2D(0, 0, 0), Pose2D(10, 0, 0), 2.0, CAM, 0.5, stream(0, "r"), noise_sigma=0.0
        )
        assert frame[240, 320] == pytest.approx(0.7)  # 0.5*0.8 + 0.5*0.6
        assert frame[10, 10] == pytest.approx(0.45)  # 0.5*0.3 + 0.5*0.6

    def test_values_stay_in_unit_range(self):
        frame = render_frame(
            Pose2D(0, 0, 0), Pose2D(5, 0, 0), 2.0, CAM, 1.0, stream(0, "r"), noise_sigma=0.3
        )
        assert frame.min() >= 0.0 and frame.max() <= 1.0

    def test_offscreen_target_renders_background_only(self):
        frame = render_frame(
            Pose2D(0, 0, 0), Pose2D(-10, 0, 0), 2.0, CAM, 1.0, stream(0, "r"), noise_sigma=0.0
        )
        assert np.all(frame == pytest.approx(0.3))


@st.composite
def spans(draw, n):
    """(a, b) with 0 <= a <= b <= n: empty, one pixel, or any, often on a tile edge."""
    edges = [e for k in range(0, n + 1, NOISE_TILE) for e in (k - 1, k, k + 1) if 0 <= e <= n]
    coord = st.one_of(st.integers(0, n), st.sampled_from(edges))
    a = draw(coord)
    kind = draw(st.sampled_from(["empty", "pixel", "any"]))
    if kind == "empty":
        return a, a
    if kind == "pixel":
        a = min(a, n - 1)
        return a, a + 1
    b = draw(coord)
    return min(a, b), max(a, b)


@st.composite
def render_cases(draw):
    cam = CameraIntrinsics(
        width=draw(st.sampled_from([1, 31, 32, 33, 100, 640])),
        height=draw(st.sampled_from([1, 31, 32, 33, 70, 480])),
        fx=draw(st.floats(50.0, 600.0)),
    )
    y0, y1 = draw(spans(cam.height))
    x0, x1 = draw(spans(cam.width))
    usv = Pose2D(0.0, 0.0, draw(st.floats(-0.5, 0.5)))
    target = Pose2D(draw(st.floats(1.0, 30.0)), draw(st.floats(-10.0, 10.0)), 0.0)
    return dict(
        cam=cam,
        roi=(y0, y1, x0, x1),
        usv=usv,
        target=target,
        extent=draw(st.floats(0.2, 5.0)),
        visibility=draw(st.floats(0.0, 1.0)),
        sigma=draw(st.sampled_from([0.0, 0.01, 0.05, 0.3])),
        seed=draw(st.integers(0, 2**31)),
    )


class TestRenderRoi:
    @settings(max_examples=150, deadline=None)
    @given(render_cases())
    def test_roi_equals_crop_of_full_frame(self, case):
        full_rng, roi_rng = stream(case["seed"], "render"), stream(case["seed"], "render")
        args = (case["usv"], case["target"], case["extent"], case["cam"], case["visibility"])
        full = render_frame(*args, full_rng, noise_sigma=case["sigma"])
        part = render_frame(*args, roi_rng, noise_sigma=case["sigma"], roi=case["roi"])
        y0, y1, x0, x1 = case["roi"]
        assert part.shape == (y1 - y0, x1 - x0)
        assert np.array_equal(part, full[y0:y1, x0:x1])
        # one frame key per call, whatever the roi: the streams stay aligned
        assert full_rng.integers(2**63) == roi_rng.integers(2**63)

    def test_noise_differs_between_frames_and_tiles(self):
        rng = stream(4, "render")
        args = (Pose2D(0, 0, 0), Pose2D(-10, 0, 0), 2.0, CAM, 1.0)
        a = render_frame(*args, rng, noise_sigma=0.05)
        b = render_frame(*args, rng, noise_sigma=0.05)
        t = NOISE_TILE
        # Independent streams share no pixel value; overlapping ones (one
        # tile's draws a shifted copy of another's) would share most of them.
        first = set(a[:t, :t].ravel())
        for other in (a[:t, t : 2 * t], a[t : 2 * t, :t], a[t : 2 * t, t : 2 * t], b[:t, :t]):
            assert not first & set(other.ravel())
        assert abs(float(np.std(a - 0.3)) - 0.05) < 0.001

    @pytest.mark.parametrize("roi", [(0, 481, 0, 10), (5, 4, 0, 10), (-1, 3, 0, 10), (0, 3, 0, 641)])
    def test_roi_outside_frame_rejected(self, roi):
        with pytest.raises(ValueError):
            render_frame(Pose2D(0, 0, 0), Pose2D(10, 0, 0), 2.0, CAM, 1.0, stream(0, "r"), roi=roi)


def einsum_zncc(window, template):
    """Reference ZNCC: every patch sum by einsum over the sliding windows."""
    th, tw = template.shape
    t0 = template - template.mean()
    t_energy = float(np.sum(t0 * t0))
    patches = np.lib.stride_tricks.sliding_window_view(window, (th, tw))
    cross = np.einsum("ijkl,kl->ij", patches, t0)
    sums = np.einsum("ijkl->ij", patches)
    sq_sums = np.einsum("ijkl,ijkl->ij", patches, patches)
    w_energy = np.maximum(sq_sums - sums * sums / (th * tw), 0.0)
    denom = np.sqrt(w_energy * t_energy)
    scores = np.zeros_like(cross)
    np.divide(cross, denom, out=scores, where=denom > 0.0)
    return scores


def einsum_cross_zncc(window, template, cache=None):
    """zncc_scores with its cross term summed by einsum over the sliding windows.

    The window offset, the summed-area sums and the divide are zncc_scores'
    own, so the two differ only in how the cross term is summed.
    """
    th, tw = template.shape
    t0 = template - template.mean()
    shifted = window - window[0, 0]
    patches = np.lib.stride_tricks.sliding_window_view(shifted, (th, tw))
    cross = np.einsum("ijkl,kl->ij", patches, t0)
    sums = _box_sums(shifted, th, tw)
    sq_sums = _box_sums(shifted * shifted, th, tw)
    w_energy = np.maximum(sq_sums - sums * sums / (th * tw), 0.0)
    denom = np.sqrt(w_energy * float(np.sum(t0 * t0)))
    scores = np.zeros_like(cross)
    np.divide(cross, denom, out=scores, where=denom > 0.0)
    return scores


def _tie_rule_pick(scores):
    """Placement ncc_track picks: first row-major score within 1e-12 of the peak."""
    return int(np.argmax(scores >= scores.max() - 1e-12))


_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 131]


@st.composite
def zncc_cases(draw):
    """(window, template) pairs: noisy, flat-with-a-bright-target, or equal."""
    th, tw = draw(st.integers(2, 14)), draw(st.integers(2, 14))
    sides = st.one_of(st.integers(2, 40), st.sampled_from(_PRIMES))
    wh, ww = max(draw(sides), th), max(draw(sides), tw)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    template = rng.random((th, tw))
    kind = draw(st.sampled_from(["noise", "flat", "equal"]))
    if kind == "equal":
        return template.copy(), template
    if kind == "noise":
        window = np.clip(0.3 + 0.05 * rng.standard_normal((wh, ww)), 0.0, 1.0)
    else:
        window = np.full((wh, ww), draw(st.sampled_from([0.0, 0.3, 0.123456789])))
    # a bright target, the template itself or a uniform block, partly off the window
    y = int(rng.integers(-th // 2, wh))
    x = int(rng.integers(-tw // 2, ww))
    patch = template if draw(st.booleans()) else np.full((th, tw), 0.8)
    y0, x0 = max(y, 0), max(x, 0)
    y1, x1 = min(y + th, wh), min(x + tw, ww)
    window[y0:y1, x0:x1] = patch[y0 - y : y1 - y, x0 - x : x1 - x]
    return window, template


class TestFastLen:
    def test_smallest_5_smooth_at_least_n(self):
        smooth = sorted(
            2**a * 3**b * 5**c
            for a in range(12) for b in range(8) for c in range(6)
            if 2**a * 3**b * 5**c <= 2048
        )
        for n in range(1, 2001):
            assert _fast_len(n) == next(m for m in smooth if m >= n), n


class TestZnccScores:
    @settings(max_examples=300, deadline=None)
    @given(zncc_cases())
    def test_fft_matches_einsum_cross_term(self, case):
        window, template = case
        got = zncc_scores(window, template)
        want = einsum_cross_zncc(window, template)
        assert got.shape == want.shape
        # A flat patch's variance from the summed-area sums is roundoff, not
        # 0, so it scores roundoff over roundoff: near 0 under either cross
        # term, but not the same.
        patches = np.lib.stride_tricks.sliding_window_view(window, template.shape)
        flat = patches.max(axis=(2, 3)) == patches.min(axis=(2, 3))
        assert np.abs(got - want)[~flat].max(initial=0.0) <= 1e-12
        assert np.abs(got[flat]).max(initial=0.0) <= 1e-6
        if want.max() > 1e-6:
            assert _tie_rule_pick(got) == _tie_rule_pick(want)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_einsum_reference(self, seed):
        rng = stream(seed, "zncc")
        template = rng.random((114, 114))
        window = np.clip(0.3 + 0.05 * rng.standard_normal((131, 131)), 0.0, 1.0)
        oy, ox = rng.integers(0, 18, size=2)
        window[oy : oy + 114, ox : ox + 114] = 0.25 + 0.5 * template + 0.02 * rng.standard_normal((114, 114))
        got = zncc_scores(window, template)
        want = einsum_zncc(window, template)
        assert got.shape == want.shape == (18, 18)
        assert np.abs(got - want).max() <= 1e-12
        assert np.argmax(got) == np.argmax(want) == oy * 18 + ox

    @pytest.mark.parametrize("level", [0.3, 0.6, 0.123456789])
    def test_flat_window_scores_zero(self, level):
        template = stream(1, "zncc").random((114, 114))
        scores = zncc_scores(np.full((131, 131), level), template)
        assert np.abs(scores).max() < 1e-6


    def test_self_match_scores_one(self):
        rng = stream(2, "z")
        template = rng.random((8, 8))
        scores = zncc_scores(template, template)
        assert scores.shape == (1, 1)
        assert scores[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_inverted_patch_scores_minus_one(self):
        rng = stream(2, "z")
        template = rng.random((8, 8))
        scores = zncc_scores(1.0 - template, template)
        assert scores[0, 0] == pytest.approx(-1.0, abs=1e-12)

    def test_degenerate_template_rejected(self):
        with pytest.raises(ValueError):
            zncc_scores(np.random.default_rng(0).random((8, 8)), np.full((4, 4), 0.5))

    def test_flat_window_patch_scores_zero(self):
        template = np.zeros((4, 4))
        template[0, 0] = 1.0
        scores = zncc_scores(np.full((4, 4), 0.7), template)
        assert scores[0, 0] == 0.0


def brute_force_ncc(frame, template, center, halfwidth, threshold=0.2):
    """Reference implementation: exhaustive loop, first row-major maximum.

    Searches every template placement whose recentred top-left falls within
    +-halfwidth of the previous hit, clipped to the frame.
    """
    th, tw = template.shape
    H, W = frame.shape
    base_x = center[0] - tw / 2.0
    base_y = center[1] - th / 2.0
    x0 = max(int(math.floor(base_x - halfwidth)), 0)
    y0 = max(int(math.floor(base_y - halfwidth)), 0)
    x1 = min(int(math.ceil(base_x + halfwidth)) + tw, W)
    y1 = min(int(math.ceil(base_y + halfwidth)) + th, H)
    if x1 - x0 < tw or y1 - y0 < th:
        return Detection(valid=False)
    tz = template - template.mean()
    tn = math.sqrt(float((tz * tz).sum()))
    best, best_xy = -np.inf, None
    for y in range(y0, y1 - th + 1):
        for x in range(x0, x1 - tw + 1):
            patch = frame[y : y + th, x : x + tw]
            pz = patch - patch.mean()
            pn = math.sqrt(float((pz * pz).sum()))
            score = 0.0 if pn == 0.0 else float((pz * tz).sum()) / (pn * tn)
            if score > best:
                best, best_xy = score, (x, y)
    if best < threshold:
        return Detection(valid=False, score=best)
    x, y = best_xy
    return Detection(valid=True, box=BoundingBox(float(x), float(y), float(tw), float(th)), score=best)


class TestNccTrack:
    def _scene(self, rng, offset):
        frame = 0.3 + 0.02 * rng.standard_normal((60, 80))
        template = rng.random((10, 12))
        y, x = offset
        frame[y : y + 10, x : x + 12] = template
        return np.clip(frame, 0.0, 1.0), template

    def test_exact_offset_recovery(self):
        template = np.random.default_rng(3).random((10, 12))
        frame = np.full((60, 80), 0.5)
        frame[20:30, 30:42] = template
        det = ncc_track(frame, template, ((36.0, 25.0), 10.0))
        assert det.valid
        assert (det.box.x, det.box.y) == (30.0, 20.0)
        assert det.score == pytest.approx(1.0, abs=1e-9)

    def test_noisy_recovery_within_one_pixel(self):
        rng = stream(11, "n")
        frame, template = self._scene(rng, (20, 30))
        noisy = np.clip(frame + 0.02 * rng.standard_normal(frame.shape), 0.0, 1.0)
        det = ncc_track(noisy, template, ((36.0, 25.0), 8.0))
        assert det.valid
        assert abs(det.box.x - 30.0) <= 1.0 and abs(det.box.y - 20.0) <= 1.0

    def test_flat_frame_reports_lost(self):
        template = np.random.default_rng(4).random((10, 10))
        det = ncc_track(np.full((50, 50), 0.6), template, ((25.0, 25.0), 10.0))
        assert not det.valid and det.box is None

    def test_matches_brute_force_on_moving_sequence(self):
        rng = stream(99, "seq")
        template = rng.random((9, 11))
        center = (40.0, 30.0)
        x, y = 34, 25
        for k in range(50):
            frame = np.clip(0.3 + 0.05 * rng.standard_normal((60, 80)), 0.0, 1.0)
            x = min(max(x + int(rng.integers(-2, 3)), 0), 80 - 11)
            y = min(max(y + int(rng.integers(-2, 3)), 0), 60 - 9)
            frame[y : y + 9, x : x + 11] = template
            got = ncc_track(frame, template, (center, 6.0))
            want = brute_force_ncc(frame, template, center, 6.0)
            assert got.valid == want.valid, f"frame {k}"
            assert got.box == want.box, f"frame {k}"  # exact argmax location
            assert got.score == pytest.approx(want.score, abs=1e-12), f"frame {k}"
            if got.valid:
                center = got.box.center()

    def test_row_major_tie_break(self):
        # two identical copies of the template: the smaller row-major index wins
        template = np.random.default_rng(8).random((6, 6))
        frame = np.full((40, 60), 0.5)
        frame[10:16, 10:16] = template
        frame[10:16, 30:36] = template
        det = ncc_track(frame, template, ((23.0, 13.0), 20.0))
        assert det.valid and (det.box.x, det.box.y) == (10.0, 10.0)


class TestNccTracker:
    def test_track_requires_initialize(self):
        with pytest.raises(RuntimeError):
            NccTracker().track(np.zeros((40, 40)))

    def test_initialize_rejects_box_fully_outside_frame(self):
        tracker = NccTracker()
        with pytest.raises(ConfigError):
            tracker.initialize(np.zeros((40, 40)), BoundingBox(45.0, 45.0, 10.0, 10.0))

    def test_initialize_clips_partially_visible_box(self):
        tracker = NccTracker()
        tracker.initialize(np.random.default_rng(0).random((40, 40)),
                           BoundingBox(30.0, 30.0, 20.0, 20.0))
        assert tracker.initialized

    def test_reports_frame_zero_box_size(self):
        rng = stream(21, "trk")
        frame0 = np.clip(0.3 + 0.02 * rng.standard_normal((60, 80)), 0, 1)
        frame0[20:30, 30:42] = rng.random((10, 12))
        tracker = NccTracker()
        tracker.initialize(frame0, BoundingBox(30.0, 20.0, 12.0, 10.0))
        det = tracker.track(frame0)
        assert det.valid
        assert det.box.w == 12.0 and det.box.h == 10.0
        assert abs(det.box.x - 30.0) <= 1.0 and abs(det.box.y - 20.0) <= 1.0


class TestTrackerWindow:
    def _scene(self):
        rng = stream(21, "win")
        frame = np.clip(0.3 + 0.02 * rng.standard_normal((90, 120)), 0, 1)
        frame[30:45, 50:68] = rng.random((15, 18))
        return frame

    def test_window_is_template_crop_then_search_region(self):
        tracker = NccTracker(search_halfwidth=5)
        truth = BoundingBox(50.0, 30.0, 18.0, 15.0)
        crop = tracker.window((90, 120), truth)
        assert crop == (24, 51, 43, 75)  # the box grown by 0.35 of its size
        tracker.initialize(self._scene(), truth)
        # every top-left within +-5 px of the centered placement, plus the template
        assert tracker.window((90, 120)) == (19, 56, 38, 80)

    def test_window_clips_to_frame(self):
        tracker = NccTracker()
        assert tracker.window((40, 40), BoundingBox(30.0, 30.0, 20.0, 20.0)) == (23, 40, 23, 40)

    def test_region_calls_match_whole_frame_calls(self):
        frame = self._scene()
        truth = BoundingBox(50.0, 30.0, 18.0, 15.0)
        whole, part = NccTracker(search_halfwidth=6), NccTracker(search_halfwidth=6)
        whole.initialize(frame, truth)
        roi = part.window(frame.shape, truth)
        part.initialize(frame[roi[0] : roi[1], roi[2] : roi[3]], truth, roi)
        rng = stream(5, "moves")
        for _ in range(10):
            shifted = np.roll(frame, tuple(int(v) for v in rng.integers(-2, 3, size=2)), axis=(0, 1))
            roi = part.window(shifted.shape)
            want = whole.track(shifted)
            got = part.track(shifted[roi[0] : roi[1], roi[2] : roi[3]], roi)
            assert got == want and want.valid

    @pytest.mark.parametrize("reset", [False, True])
    def test_reinitialized_tracker_matches_a_fresh_one(self, reset):
        # Both templates have the same shape, so they share an FFT size: a
        # spectrum kept from the first would be picked up for the second.
        frame = self._scene()
        other = np.clip(0.6 + 0.02 * stream(22, "win").standard_normal(frame.shape), 0, 1)
        other[40:55, 20:38] = stream(23, "win").random((15, 18))
        used, fresh = NccTracker(search_halfwidth=6), NccTracker(search_halfwidth=6)
        used.initialize(frame, BoundingBox(50.0, 30.0, 18.0, 15.0))
        assert used.track(frame).valid
        if reset:
            used.reset()
        truth = BoundingBox(20.0, 40.0, 18.0, 15.0)
        used.initialize(other, truth)
        fresh.initialize(other, truth)
        rng = stream(6, "moves")
        for _ in range(5):
            shifted = np.roll(other, tuple(int(v) for v in rng.integers(-2, 3, size=2)), axis=(0, 1))
            want = fresh.track(shifted)
            assert used.track(shifted) == want and want.valid

    def test_region_must_match_frame_shape(self):
        tracker = NccTracker()
        with pytest.raises(ValueError):
            tracker.initialize(np.zeros((10, 10)), BoundingBox(2.0, 2.0, 4.0, 4.0), (0, 12, 0, 10))


class TestLidar:
    def test_in_range_noiseless(self):
        r = lidar_range(Pose2D(0, 0, 0), Pose2D(10, 0, 0), 20.0, 0.0, stream(0, "l"))
        assert r == pytest.approx(10.0)

    def test_beyond_range(self):
        assert lidar_range(Pose2D(0, 0, 0), Pose2D(25, 0, 0), 20.0, 0.0, stream(0, "l")) is None

    def test_monte_carlo_unbiased(self):
        rng = stream(6, "l")
        samples = [
            lidar_range(Pose2D(0, 0, 0), Pose2D(10, 0, 0), 20.0, 0.1, rng)
            for _ in range(10_000)
        ]
        assert 9.99 < float(np.mean(samples)) < 10.01

    def test_never_negative(self):
        rng = stream(6, "l")
        for _ in range(500):
            r = lidar_range(Pose2D(0, 0, 0), Pose2D(0.01, 0, 0), 20.0, 5.0, rng)
            assert r >= 0.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            lidar_range(Pose2D(0, 0, 0), Pose2D(1, 0, 0), 0.0, 0.1, stream(0, "l"))
        with pytest.raises(ConfigError):
            lidar_range(Pose2D(0, 0, 0), Pose2D(1, 0, 0), 10.0, -0.1, stream(0, "l"))


class TestMeasureState:
    TRUTH = BodyState(Pose2D(1.0, 2.0, 0.7), u=1.2, r=-0.3)

    def test_noiseless_equals_truth(self):
        m = measure_state(self.TRUTH, 0.0, 0.0, 0.0, stream(0, "m"))
        assert (m.u, m.psi, m.r) == (1.2, 0.7, -0.3)

    def test_heading_rewrapped(self):
        truth = BodyState(Pose2D(0, 0, math.pi), u=0.0, r=0.0)
        rng = stream(9, "m")
        for _ in range(200):
            m = measure_state(truth, 0.0, 0.01, 0.0, rng)
            assert -math.pi < m.psi <= math.pi

    def test_monte_carlo_std(self):
        rng = stream(13, "m")
        us = [measure_state(self.TRUTH, 0.05, 0.0, 0.0, rng).u for _ in range(10_000)]
        assert 0.045 < float(np.std(us)) < 0.055

    def test_stream_alignment_across_sigma_configs(self):
        # three normals are always consumed, so later draws stay aligned
        rng_a, rng_b = stream(4, "m"), stream(4, "m")
        measure_state(self.TRUTH, 0.0, 0.0, 0.0, rng_a)
        measure_state(self.TRUTH, 0.1, 0.2, 0.3, rng_b)
        assert rng_a.normal() == rng_b.normal()

    def test_sigma_validation(self):
        with pytest.raises(ConfigError):
            measure_state(self.TRUTH, -0.1, 0.0, 0.0, stream(0, "m"))
