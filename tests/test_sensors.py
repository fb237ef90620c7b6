"""Camera projection, tracker emulation, rendering, NCC tracking, lidar, IMU/DVL."""

import hashlib
import importlib
import math
import os
import re
import statistics
import subprocess
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helm_bench import sensors
from helm_bench.config import parse_scenario
from helm_bench.core import CameraIntrinsics, ConfigError, wrap_angle
from helm_bench.seeding import normal_rows, stream
from helm_bench.sensors import (
    NOISE_LANES,
    NOISE_STRIP,
    Detection,
    NccTracker,
    Roi,
    TemplateCache,
    TrackerNoiseConfig,
    _add_strip_noise,
    _box_sums,
    _fast_len,
    _gaussian_quantiles,
    _keyed_philox,
    emulate_tracker,
    lidar_range,
    measure_state,
    ncc_track,
    project_target,
    render_frame,
    search_roi,
    zncc_scores,
)
from helm_bench.sim import SensorNoise, run_scenario
from test_core import _ref_wrap_angle

CAM = CameraIntrinsics()


def center(box: tuple) -> tuple[float, float]:
    """Center of an (x, y, w, h) box, as the sensing chain computes it."""
    x, y, w, h = box
    return (x + w / 2.0, y + h / 2.0)


class TestProjectTarget:
    def test_on_axis_target_centered(self):
        box = project_target((0, 0, 0), (10, 0, 0), 2.0, CAM)
        cx, cy = center(box)
        assert cx == pytest.approx(320.0)
        assert cy == pytest.approx(240.0)
        assert box[2] == pytest.approx(100.0)  # fx * extent / d = 500*2/10
        assert box[3] == pytest.approx(100.0)

    def test_offset_target_pixel_position(self):
        box = project_target((0, 0, 0), (10, 1, 0), 2.0, CAM)
        cx, _ = center(box)
        assert cx == pytest.approx(320.0 - 500.0 * math.tan(math.atan2(1, 10)), abs=1e-9)
        assert cx == pytest.approx(320.0 - 500.0 * math.tan(0.0997), abs=0.1)

    def test_target_behind_camera(self):
        assert project_target((0, 0, 0), (-10, 0, 0), 2.0, CAM) is None

    def test_target_too_close(self):
        assert project_target((0, 0, 0), (0.05, 0, 0), 2.0, CAM) is None

    def test_target_outside_fov(self):
        # hfov/2 = atan(320/500) ~ 0.57 rad; put target at 1.0 rad bearing
        x, y = 10 * math.cos(1.0), 10 * math.sin(1.0)
        assert project_target((0, 0, 0), (x, y, 0), 2.0, CAM) is None

    def test_port_starboard_sign(self):
        port = project_target((0, 0, 0), (10, 2, 0), 2.0, CAM)
        stbd = project_target((0, 0, 0), (10, -2, 0), 2.0, CAM)
        assert center(port)[0] < CAM.cx < center(stbd)[0]

    def test_bearing_uses_boat_heading(self):
        # boat turned toward the target puts it back on the optical axis
        box = project_target((0, 0, math.atan2(5, 5)), (5, 5, 0), 2.0, CAM)
        assert center(box)[0] == pytest.approx(320.0, abs=1e-9)

    def test_size_monotone_in_range(self):
        widths = []
        for d in (5.0, 10.0, 20.0, 40.0):
            widths.append(project_target((0, 0, 0), (d, 0, 0), 2.0, CAM)[2])
        assert all(a > b for a, b in zip(widths, widths[1:]))

    def test_box_clipped_to_image(self):
        # huge nearby target: box must stay inside the 640x480 frame
        box = project_target((0, 0, 0), (0.5, 0, 0), 5.0, CAM)
        x, y, w, h = box
        assert x >= 0.0 and y >= 0.0
        assert x + w <= CAM.width
        assert y + h <= CAM.height

    def test_extent_validation(self):
        with pytest.raises(ConfigError):
            project_target((0, 0, 0), (10, 0, 0), 0.0, CAM)

    def test_box_under_a_micropixel_is_out_of_view(self):
        # fx * extent / d: 1e-5 px is kept, 1e-7 px is below what six decimals write
        assert project_target((0, 0, 0), (1e8, 0, 0), 2.0, CAM)[2] == pytest.approx(1e-5)
        assert project_target((0, 0, 0), (1e10, 0, 0), 2.0, CAM) is None
        assert project_target((0, 0, 0), (15, 0, 0), 1e-300, CAM) is None

    @pytest.mark.parametrize("target", ["x0 = 1e10", "extent = 1e-300"])
    def test_run_logs_a_sub_micropixel_target_as_out_of_view(self, target):
        log = run_scenario(parse_scenario(f"[run]\nduration = 1\n[target]\n{target}\n"))
        assert log.error is None and len(log) == 51
        for column in (log.gt_x, log.gt_y, log.gt_w, log.gt_h):
            assert np.isnan(column).all()
        assert not log.det_valid.any()


class TestEmulateTracker:
    TRUTH = (270.0, 190.0, 100.0, 100.0)

    def test_noiseless_passthrough(self):
        cfg = TrackerNoiseConfig(sigma_center_px=0.0, sigma_scale=0.0, p_drop_base=0.0)
        assert emulate_tracker(self.TRUTH, 1.0, cfg, stream(0, "t"), CAM) == self.TRUTH

    def test_no_truth_is_a_miss(self):
        cfg = TrackerNoiseConfig()
        assert emulate_tracker(None, 1.0, cfg, stream(0, "t"), CAM) is None

    def test_zero_visibility_always_drops(self):
        cfg = TrackerNoiseConfig(p_drop_base=0.0)
        rng = stream(3, "t")
        assert all(emulate_tracker(self.TRUTH, 0.0, cfg, rng, CAM) is None for _ in range(200))

    def test_center_error_std_scales_with_visibility(self):
        cfg = TrackerNoiseConfig(sigma_center_px=2.0, sigma_scale=0.0, p_drop_base=0.0)
        rng = stream(42, "t")
        errs = []
        for _ in range(10_000):
            box = emulate_tracker(self.TRUTH, 0.5, cfg, rng, CAM)
            if box is not None:
                errs.append(center(box)[0] - center(self.TRUTH)[0])
        assert 3.8 < float(np.std(errs)) < 4.2  # sigma / visibility = 4

    def test_dropout_rate_closed_form(self):
        cfg = TrackerNoiseConfig(p_drop_base=0.2)
        rng = stream(7, "t")
        vis = 0.6
        n = 10_000
        drops = sum(emulate_tracker(self.TRUTH, vis, cfg, rng, CAM) is None for _ in range(n))
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
            box = emulate_tracker(self.TRUTH, 1.0, cfg, rng, CAM)
            assert box[2] >= 0.0 and box[3] >= 0.0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrackerNoiseConfig(sigma_center_px=-1.0)
        with pytest.raises(ConfigError):
            TrackerNoiseConfig(p_drop_base=1.0)

    @pytest.mark.parametrize(
        "cfg",
        [
            TrackerNoiseConfig(2.0, 0.05, 0.05),
            TrackerNoiseConfig(20.0, 0.0, 0.3),
            TrackerNoiseConfig(0.0, 0.0, 0.0),
        ],
    )
    def test_same_detections_as_uniform_and_normal_draws(self, cfg):
        # the emulator's draws, as rng.uniform() and rng.normal(0.0, s) calls
        def reference(truth, visibility, rng):
            if rng.uniform() < 1.0 - (1.0 - cfg.p_drop_base) * visibility:
                return None
            x, y, w, h = truth
            cx, cy = center(truth)
            sigma_c = cfg.sigma_center_px / visibility
            cx += rng.normal(0.0, sigma_c)
            cy += rng.normal(0.0, sigma_c)
            scale = max(1.0 + rng.normal(0.0, cfg.sigma_scale), 0.0)
            box = (cx - w * scale / 2.0, cy - h * scale / 2.0, w * scale, h * scale)
            return box if _ref_sees(CAM, _RefBoundingBox(*box)) else None

        edge = (0.0, 190.0, 4.0, 100.0)
        rng, draws = stream(11, "t"), stream(11, "t")
        for k in range(3000):
            truth, visibility = (self.TRUTH, 0.6) if k % 3 else (edge, 1.0)
            got = emulate_tracker(truth, visibility, cfg, rng, CAM)
            want = reference(truth, visibility, draws)
            assert (got is None) == (want is None)
            if got is not None:
                assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_center_off_image_is_a_miss(self):
        # a box at the left edge with 20 px jitter lands off the image often
        edge = (0.0, 190.0, 4.0, 100.0)
        cfg = TrackerNoiseConfig(sigma_center_px=20.0, sigma_scale=0.0, p_drop_base=0.0)
        rng, draws = stream(9, "t"), stream(9, "t")
        misses = 0
        for _ in range(200):
            box = emulate_tracker(edge, 1.0, cfg, rng, CAM)
            # replay the emulator's four draws: dropout, center x, center y, size
            draws.uniform()
            cx = 2.0 + draws.normal(0.0, 20.0)
            cy = 240.0 + draws.normal(0.0, 20.0)
            draws.normal(0.0, 0.0)
            inside = 0.0 <= cx <= CAM.width and 0.0 <= cy <= CAM.height
            assert (box is not None) == inside
            if inside:
                assert center(box) == pytest.approx((cx, cy), abs=1e-12)
            misses += not inside
        assert 50 < misses < 150  # the emulator drew exactly four values per call


class TestRenderFrame:
    def test_clear_render_intensities(self):
        box = project_target((0, 0, 0), (10, 0, 0), 2.0, CAM)
        frame = render_frame(box, CAM, 1.0, stream(0, "r"), noise_sigma=0.0)
        assert frame.shape == (CAM.height, CAM.width)
        assert frame[240, 320] == pytest.approx(0.8)
        assert frame[10, 10] == pytest.approx(0.3)

    def test_full_haze_uniform(self):
        box = project_target((0, 0, 0), (10, 0, 0), 2.0, CAM)
        frame = render_frame(box, CAM, 0.0, stream(0, "r"), noise_sigma=0.0)
        assert np.all(frame == 0.6)

    def test_half_visibility_halves_contrast(self):
        box = project_target((0, 0, 0), (10, 0, 0), 2.0, CAM)
        frame = render_frame(box, CAM, 0.5, stream(0, "r"), noise_sigma=0.0)
        assert frame[240, 320] == pytest.approx(0.7)  # 0.5*0.8 + 0.5*0.6
        assert frame[10, 10] == pytest.approx(0.45)  # 0.5*0.3 + 0.5*0.6

    def test_values_stay_in_unit_range(self):
        box = project_target((0, 0, 0), (5, 0, 0), 2.0, CAM)
        frame = render_frame(box, CAM, 1.0, stream(0, "r"), noise_sigma=0.3)
        assert frame.min() >= 0.0 and frame.max() <= 1.0

    def test_offscreen_target_renders_background_only(self):
        box = project_target((0, 0, 0), (-10, 0, 0), 2.0, CAM)
        assert box is None
        frame = render_frame(box, CAM, 1.0, stream(0, "r"), noise_sigma=0.0)
        assert np.all(frame == pytest.approx(0.3))

    def test_draws_the_box_it_is_given(self):
        # every pixel the box touches, rounded outwards
        frame = render_frame((100.2, 50.5, 10.0, 3.0), CAM, 1.0, stream(0, "r"), noise_sigma=0.0)
        want = np.full((CAM.height, CAM.width), 0.3)
        want[50:54, 100:111] = 0.8
        assert np.array_equal(frame, want)

@st.composite
def spans(draw, n):
    """(a, b) with 0 <= a <= b <= n: empty, one pixel, or any, often on a strip edge."""
    edges = [e for k in range(0, n + 1, NOISE_STRIP) for e in (k - 1, k, k + 1) if 0 <= e <= n]
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
        width=draw(st.sampled_from([1, 63, 64, 65, 100, 640])),
        height=draw(st.sampled_from([1, 31, 32, 33, 70, 480])),
        fx=draw(st.floats(50.0, 600.0)),
    )
    y0, y1 = draw(spans(cam.height))
    x0, x1 = draw(spans(cam.width))
    usv = (0.0, 0.0, draw(st.floats(-0.5, 0.5)))
    target = (draw(st.floats(1.0, 30.0)), draw(st.floats(-10.0, 10.0)), 0.0)
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
        box = project_target(case["usv"], case["target"], case["extent"], case["cam"])
        args = (box, case["cam"], case["visibility"])
        full = render_frame(*args, full_rng, noise_sigma=case["sigma"])
        part = render_frame(*args, roi_rng, noise_sigma=case["sigma"], roi=case["roi"])
        y0, y1, x0, x1 = case["roi"]
        assert part.shape == (y1 - y0, x1 - x0)
        assert np.array_equal(part, full[y0:y1, x0:x1])
        # one frame key per call, whatever the roi: the streams stay aligned
        assert full_rng.integers(2**63) == roi_rng.integers(2**63)

    def test_noise_differs_between_frames_and_tiles(self):
        sigma = 0.05
        rng = stream(4, "render")
        frames = [render_frame(None, CAM, 1.0, rng, noise_sigma=sigma) for _ in range(40)]
        a, b = frames[:2]
        # Quantized values repeat, so compare lanes: a noise-only pixel is
        # 0.3 + sigma * Q[lane], and none of those levels clips.
        levels = 0.3 + sigma * _gaussian_quantiles()

        def windows(frame, strip):
            """Every run of four lanes in the strip's stream order, packed into one int."""
            cols = frame[:, strip * NOISE_STRIP : (strip + 1) * NOISE_STRIP].ravel()
            lanes = np.searchsorted(levels, cols)
            assert np.array_equal(levels[lanes], cols)
            runs = np.lib.stride_tricks.sliding_window_view(lanes.astype(np.uint64), 4)
            return set((runs << np.array([0, 16, 32, 48], np.uint64)).sum(axis=1).tolist())

        # Independent streams share no run of four 16-bit lanes; overlapping
        # ones (one strip's words a shifted copy of another's) would share most.
        a0, a1, b0, b1 = windows(a, 0), windows(a, 1), windows(b, 0), windows(b, 1)
        assert not a0 & a1 and not a0 & b0 and not a1 & b1

        noise = a - 0.3
        assert abs(float(noise.mean())) < 3.0 * sigma / math.sqrt(noise.size)
        assert abs(float(noise.std()) - sigma) < 0.001

        def lag1(left, right):
            return float(np.corrcoef(left.ravel(), right.ravel())[0, 1])

        # neighbours in one 64-bit word: lanes 0-1, 1-2 and 2-3
        in_word = np.arange(CAM.width - 1) % 4 != 3
        assert abs(lag1(noise[:, :-1][:, in_word], noise[:, 1:][:, in_word])) < 0.01
        # One frame has only 9 x 480 pixel pairs across strip edges, whose
        # correlation spreads by 1/sqrt(4320) ~ 0.015; the 40 frames' 172,800
        # pairs bring that to 0.0024.
        stack = np.stack(frames) - 0.3
        edge = np.arange(NOISE_STRIP, CAM.width, NOISE_STRIP)
        assert abs(lag1(stack[:, :, edge - 1], stack[:, :, edge])) < 0.01

    @pytest.mark.parametrize("roi", [(0, 481, 0, 10), (5, 4, 0, 10), (-1, 3, 0, 10), (0, 3, 0, 641)])
    def test_roi_outside_frame_rejected(self, roi):
        with pytest.raises(ValueError):
            render_frame((310.0, 230.0, 20.0, 20.0), CAM, 1.0, stream(0, "r"), roi=roi)


# The box sums and ZNCC scores as first written, before each was cut down
# to the work whose results are read, and the frame noise one pixel at a
# time: every value the current code returns must equal these bit for bit.


def _ref_add_strip_noise(frame: np.ndarray, roi: Roi, frame_key: int, sigma: float) -> None:
    """Add sigma * Q[lane] to each pixel (y, x) of the roi region of a frame, one pixel at a time.

    The pixel's strip is x // 64, and its stream is a fresh Philox keyed
    frame_key whose counter holds the strip in its top word, read from its
    first word. The lane is bits 16*(x % 4) to 16*(x % 4) + 15 of word
    (64*y + x % 64) // 4 of that stream.
    """
    y0, y1, x0, x1 = roi
    quantiles = _gaussian_quantiles()
    streams: dict[int, list[int]] = {}
    for y in range(y0, y1):
        for x in range(x0, x1):
            strip = x // 64
            if strip not in streams:
                bits = np.random.Philox(key=frame_key, counter=strip << 192)
                streams[strip] = bits.random_raw(16 * y1).tolist()
            word = streams[strip][(64 * y + x % 64) // 4]
            lane = (word >> (16 * (x % 4))) & 0xFFFF
            frame[y - y0, x - x0] += sigma * quantiles[lane]


def _ref_box_sums(a: np.ndarray, h: int, w: int) -> np.ndarray:
    """Sum of every h x w box of a, indexed by its top-left corner.

    Read from a summed-area table in O(a.size) (J.P. Lewis, "Fast
    Normalized Cross-Correlation", Vision Interface 1995).
    """
    table = np.zeros((a.shape[0] + 1, a.shape[1] + 1))
    np.cumsum(a, axis=0, out=table[1:, 1:])
    np.cumsum(table[1:, 1:], axis=1, out=table[1:, 1:])
    return table[h:, w:] - table[:-h, w:] - table[h:, :-w] + table[:-h, :-w]


def _ref_zncc_scores(
    window: np.ndarray, template: np.ndarray, cache: TemplateCache | None = None
) -> np.ndarray:
    """Zero-normalized cross-correlation of template over every placement.

    Returns an array of scores indexed by the template's top-left corner
    within the window; placements with a flat patch score 0. Raises
    ValueError on a zero-variance template or a window smaller than it.
    cache, if given, must have been built from template.

    The cross term is a circular correlation by FFT (Lewis 1995), padded on
    each axis to the smallest 5-smooth size at least the window's side: no
    valid placement wraps, and pocketfft is slow on sizes with large prime
    factors. The window sums come from summed-area tables.
    """
    th, tw = template.shape
    wh, ww = window.shape
    if wh < th or ww < tw:
        raise ValueError("window smaller than the template")
    if cache is None:
        cache = TemplateCache(template)
    if cache.energy <= 0.0:
        raise ValueError("degenerate template with zero variance")
    # ZNCC ignores an offset of the window. Subtracting one of its pixels
    # keeps the sums small, and makes a flat window exactly zero.
    shifted = window - window[0, 0]
    shape = (_fast_len(wh), _fast_len(ww))
    product = np.fft.rfft2(shifted, s=shape) * cache.spectrum(shape)
    cross = np.fft.irfft2(product, s=shape)[: wh - th + 1, : ww - tw + 1]
    sums = _ref_box_sums(shifted, th, tw)
    sq_sums = _ref_box_sums(shifted * shifted, th, tw)
    w_energy = np.maximum(sq_sums - sums * sums / (th * tw), 0.0)
    denom = np.sqrt(w_energy * cache.energy)
    scores = np.zeros_like(cross)
    np.divide(cross, denom, out=scores, where=denom > 0.0)
    return scores


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
    sums = _ref_box_sums(shifted, th, tw)
    sq_sums = _ref_box_sums(shifted * shifted, th, tw)
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


def _bits(a):
    return a.shape, a.dtype, a.tobytes()


def _box_side(draw, n):
    """A side from 1 to n for a box in an n-long window, often a band edge."""
    edges = [1, n, n // 2, n // 2 + 1, (n + 1) // 2]
    return draw(st.one_of(st.integers(1, n), st.sampled_from([e for e in edges if 1 <= e <= n])))


_SIDES = st.one_of(st.integers(1, 70), st.sampled_from(_PRIMES))


@st.composite
def box_sum_cases(draw):
    rows, cols = draw(_SIDES), draw(_SIDES)
    h, w = _box_side(draw, rows), _box_side(draw, cols)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    return scale * rng.standard_normal((rows, cols)) + draw(st.sampled_from([0.0, 0.3, 7.0])), h, w


@st.composite
def window_template_cases(draw):
    """Templates down to one row or column, up to the window; prime window sides."""
    wh, ww = draw(_SIDES), draw(_SIDES)
    th, tw = _box_side(draw, wh), _box_side(draw, ww)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    template = rng.random((th, tw))
    kind = draw(st.sampled_from(["noise", "flat", "embedded"]))
    if kind == "flat":
        window = np.full((wh, ww), draw(st.sampled_from([0.0, 0.3, 0.123456789])))
    else:
        window = np.clip(0.3 + 0.05 * rng.standard_normal((wh, ww)), 0.0, 1.0)
    if kind == "embedded":
        y, x = int(rng.integers(0, wh - th + 1)), int(rng.integers(0, ww - tw + 1))
        window[y : y + th, x : x + tw] = 0.25 + 0.5 * template
    return window, template


def _scores_or_error(scores, window, template):
    try:
        return _bits(scores(window, template))
    except ValueError as exc:
        return str(exc)


class TestBitIdentity:
    """The frame noise, and the cut-down box sums and ZNCC, equal their references bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(box_sum_cases())
    def test_box_sums(self, case):
        a, h, w = case
        assert _bits(_box_sums(a, h, w)) == _bits(_ref_box_sums(a, h, w))

    @pytest.mark.parametrize(
        "rows, h",
        [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (114, 57), (114, 58), (115, 58), (130, 114), (131, 114), (7, 7)],
    )
    def test_box_sums_either_side_of_the_band_split(self, rows, h):
        # p = rows - h + 1 placements: the row bands 1..p-1 and max(h, p)..rows
        # leave a gap when p < h and abut when p >= h, so (4, 2) and (114, 57)
        # sum every table row along the rows, (4, 3) and (114, 58) do not.
        a = stream(rows * 1000 + h, "boxes").standard_normal((rows, 37))
        for w in (1, 5, 37):
            assert _bits(_box_sums(a, h, w)) == _bits(_ref_box_sums(a, h, w))

    @settings(max_examples=400, deadline=None)
    @given(window_template_cases())
    def test_zncc_scores(self, case):
        window, template = case
        got = _scores_or_error(zncc_scores, window, template)
        assert got == _scores_or_error(_ref_zncc_scores, window, template)
        if not isinstance(got, str):
            cache = TemplateCache(template)
            for _ in range(2):  # a fresh spectrum, then the kept one
                assert _bits(zncc_scores(window, template, cache)) == got

    @pytest.mark.parametrize("seed", range(3))
    def test_zncc_scores_at_the_ncc_standoff_size(self, seed):
        rng = stream(seed, "zncc-bits")
        template = rng.random((114, 114))
        window = np.clip(0.3 + 0.05 * rng.standard_normal((130, 130)), 0.0, 1.0)
        window[7:121, 9:123] = 0.25 + 0.5 * template
        assert _bits(zncc_scores(window, template)) == _bits(_ref_zncc_scores(window, template))

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([1, 63, 64, 65, 97, 100, 640]),
        st.sampled_from([1, 31, 32, 33, 70, 480]),
        st.data(),
        st.sampled_from([0.01, 0.05, 0.3]),
        st.integers(0, 2**64 - 1),
    )
    def test_tile_noise(self, width, height, data, sigma, key):
        y0, y1 = data.draw(spans(height))
        x0, x1 = data.draw(spans(width))
        base = stream(key % 1000, "base").random((y1 - y0, x1 - x0))
        got, want = base.copy(), base.copy()
        _add_strip_noise(got, (y0, y1, x0, x1), key, sigma)
        _ref_add_strip_noise(want, (y0, y1, x0, x1), key, sigma)
        assert _bits(got) == _bits(want)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 4 * 480), st.integers(0, 9)),
            min_size=1,
            max_size=4,
        ),
        st.integers(0, 1500),
    )
    def test_rekeyed_philox_starts_as_a_new_one(self, rekeys, n_words):
        # The kept bit generator is re-keyed after draws under earlier keys
        # that leave a block part-read and a 32-bit half word behind; each
        # time its state and its next raw words are those of a freshly built
        # Philox, and so they are after its counter is moved to a strip's row.
        for key, block, strip in rekeys:
            bits, state = _keyed_philox(key)
            fresh = np.random.Philox(key=key)
            assert _philox_state(bits.state) == _philox_state(fresh.state)
            assert _philox_state(state) == _philox_state(fresh.state)
            counter = state["state"]["counter"]
            counter[0], counter[3] = block, strip
            bits.state = state
            fresh = np.random.Philox(key=key, counter=block + (strip << 192))
            assert _philox_state(bits.state) == _philox_state(fresh.state)
            assert bits.random_raw(n_words).tolist() == fresh.random_raw(n_words).tolist()
            bits.random_raw(2 * n_words + 1)
            np.random.Generator(bits).integers(0, 2**32, dtype=np.uint32)
            assert bits.state["has_uint32"] == 1


class TestGaussianQuantiles:
    """The table that maps a pixel's 16-bit lane to its normal draw."""

    # sha256 of the table's little-endian float64 bytes. Pins the noise of
    # every rendered frame; inv_cdf gives these bits on CPython 3.10-3.13,
    # with or without its C accelerator.
    DIGEST = "4c2f5f42f122b6bd035838527b999a2a71644434978501f302767ff79fd4dada"

    def test_shape_order_and_symmetry(self):
        q = _gaussian_quantiles()
        assert q.shape == (NOISE_LANES,) and q.dtype == np.float64
        assert np.all(np.diff(q) > 0.0)
        assert np.array_equal(q, -q[::-1])  # Q[k] == -Q[65535 - k]
        assert not q.flags.writeable
        assert q[-1] == pytest.approx(4.3249, abs=1e-4)  # where the tails are cut

    def test_digest(self):
        q = _gaussian_quantiles()
        assert hashlib.sha256(q.astype("<f8").tobytes()).hexdigest() == self.DIGEST

    def test_entries_are_bin_midpoint_quantiles(self):
        q = _gaussian_quantiles()
        inv_cdf = statistics.NormalDist().inv_cdf
        for k in (0, 1, 2, 1000, 12345, 32766, 32767, 32768, 40000, 65534, 65535):
            assert q[k] == pytest.approx(inv_cdf((k + 0.5) / NOISE_LANES), rel=0.0, abs=1e-15)
        assert q[:32768].tolist() == [inv_cdf((k + 0.5) / NOISE_LANES) for k in range(32768)]

    def test_importing_the_package_loads_no_statistics(self):
        # The table is built on the first render, so set-up does not pay for it.
        code = "import sys, helm_bench.cli; print('statistics' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_pure_python_inv_cdf_gives_the_same_table(self, monkeypatch):
        # statistics uses its C _normal_dist_inv_cdf when it can import it;
        # with the accelerator blocked it keeps the Python one.
        monkeypatch.setitem(sys.modules, "_statistics", None)
        monkeypatch.delitem(sys.modules, "statistics")
        pure = importlib.import_module("statistics")
        assert pure._normal_dist_inv_cdf.__module__ == "statistics"
        inv_cdf = pure.NormalDist().inv_cdf
        lower = [inv_cdf((k + 0.5) / NOISE_LANES) for k in range(NOISE_LANES // 2)]
        assert lower == _gaussian_quantiles()[: NOISE_LANES // 2].tolist()


def _philox_state(state: dict) -> dict:
    """A Philox state dict with its arrays as lists, so that == compares every word."""
    inner = state["state"]
    return {
        **state,
        "state": {"counter": inner["counter"].tolist(), "key": inner["key"].tolist()},
        "buffer": state["buffer"].tolist(),
    }


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
        return Detection()
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
        return Detection(score=best)
    x, y = best_xy
    return Detection((float(x), float(y), float(tw), float(th)), best)


def _crop(image, roi):
    """The roi region of a whole image."""
    return image[roi[0] : roi[1], roi[2] : roi[3]]


def track_near(frame, template, center, halfwidth):
    """ncc_track over the window of frame that search_roi names around center, as observe renders it."""
    roi = search_roi(center, halfwidth, template.shape, (0, frame.shape[0], 0, frame.shape[1]))
    return ncc_track(_crop(frame, roi), template, (roi[0], roi[2]))


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
        det = track_near(frame, template, (36.0, 25.0), 10.0)
        assert det.valid
        assert det.box[:2] == (30.0, 20.0)
        assert det.score == pytest.approx(1.0, abs=1e-9)

    def test_noisy_recovery_within_one_pixel(self):
        rng = stream(11, "n")
        frame, template = self._scene(rng, (20, 30))
        noisy = np.clip(frame + 0.02 * rng.standard_normal(frame.shape), 0.0, 1.0)
        det = track_near(noisy, template, (36.0, 25.0), 8.0)
        assert det.valid
        assert abs(det.box[0] - 30.0) <= 1.0 and abs(det.box[1] - 20.0) <= 1.0

    def test_flat_frame_reports_lost(self):
        template = np.random.default_rng(4).random((10, 10))
        det = track_near(np.full((50, 50), 0.6), template, (25.0, 25.0), 10.0)
        assert not det.valid and det.box is None

    def test_matches_brute_force_on_moving_sequence(self):
        rng = stream(99, "seq")
        template = rng.random((9, 11))
        target_center = (40.0, 30.0)
        x, y = 34, 25
        for k in range(50):
            frame = np.clip(0.3 + 0.05 * rng.standard_normal((60, 80)), 0.0, 1.0)
            x = min(max(x + int(rng.integers(-2, 3)), 0), 80 - 11)
            y = min(max(y + int(rng.integers(-2, 3)), 0), 60 - 9)
            frame[y : y + 9, x : x + 11] = template
            got = track_near(frame, template, target_center, 6.0)
            want = brute_force_ncc(frame, template, target_center, 6.0)
            assert got.valid == want.valid, f"frame {k}"
            assert got.box == want.box, f"frame {k}"  # exact argmax location
            assert got.score == pytest.approx(want.score, abs=1e-12), f"frame {k}"
            if got.valid:
                target_center = center(got.box)

    def test_row_major_tie_break(self):
        # two identical copies of the template: the smaller row-major index wins
        template = np.random.default_rng(8).random((6, 6))
        frame = np.full((40, 60), 0.5)
        frame[10:16, 10:16] = template
        frame[10:16, 30:36] = template
        det = track_near(frame, template, (23.0, 13.0), 20.0)
        assert det.valid and det.box[:2] == (10.0, 10.0)

    def test_window_smaller_than_the_template_is_a_miss(self):
        template = np.random.default_rng(9).random((6, 6))
        for window in (np.zeros((0, 0)), np.random.default_rng(10).random((5, 20))):
            assert ncc_track(window, template, (3, 4)) == Detection()


def observe_start(tracker, truth, frame):
    """Start tracker through observe, with frame's crop of the region it asks for as the render.

    Returns that region.
    """
    regions = []

    def crop_of_frame(box, cam, visibility, rng, noise_sigma, roi):
        regions.append(roi)
        return _crop(frame, roi)

    cam = CameraIntrinsics(width=frame.shape[1], height=frame.shape[0])
    with mock.patch.object(sensors, "render_frame", crop_of_frame):
        assert tracker.observe(truth, cam, 1.0, None, 0.0) == truth
    (roi,) = regions
    return roi


@pytest.fixture
def rendered_regions(monkeypatch):
    """The roi of each sensors.render_frame call, in order."""
    render, regions = sensors.render_frame, []

    def recording(*args, roi=None, **kwargs):
        regions.append(roi)
        return render(*args, roi=roi, **kwargs)

    monkeypatch.setattr(sensors, "render_frame", recording)
    return regions


class TestNccTracker:
    def test_track_requires_initialize(self):
        with pytest.raises(RuntimeError):
            NccTracker().track(np.zeros((40, 40)), (0, 0))

    def test_negative_search_halfwidth_rejected(self):
        with pytest.raises(ConfigError, match="search_halfwidth must be >= 0"):
            NccTracker(search_halfwidth=-1)
        assert NccTracker(search_halfwidth=0).search_halfwidth == 0

    def test_initialize_rejects_box_fully_outside_frame(self):
        cam = CameraIntrinsics(width=40, height=40)
        with pytest.raises(ConfigError, match="^ground-truth box lies outside the frame$"):
            NccTracker().observe((45.0, 45.0, 10.0, 10.0), cam, 1.0, stream(0, "render"), 0.02)

    def test_initialize_clips_partially_visible_box(self):
        tracker, rng = NccTracker(), stream(0, "render")
        cam, truth = CameraIntrinsics(width=40, height=40), (30.0, 30.0, 20.0, 20.0)
        assert tracker.observe(truth, cam, 1.0, rng, 0.02) == truth
        assert tracker.observe(truth, cam, 1.0, rng, 0.02) is not None  # tracking on the clipped template

    def test_reports_frame_zero_box_size(self):
        rng = stream(21, "trk")
        frame0 = np.clip(0.3 + 0.02 * rng.standard_normal((60, 80)), 0, 1)
        frame0[20:30, 30:42] = rng.random((10, 12))
        tracker = NccTracker()
        observe_start(tracker, (30.0, 20.0, 12.0, 10.0), frame0)
        det = tracker.track(frame0, (0, 0))
        assert det.valid
        assert det.box[2:] == (12.0, 10.0)
        assert abs(det.box[0] - 30.0) <= 1.0 and abs(det.box[1] - 20.0) <= 1.0


class TestNccObserve:
    """observe renders the region the tracker reads, then starts on the truth box or tracks."""

    BOX = (300.0, 200.0, 20.0, 20.0)

    def test_starts_on_a_whole_pixel_box_then_tracks(self):
        tracker, rng = NccTracker(), stream(3, "render")
        assert tracker.observe(None, CAM, 1.0, rng, 0.02) is None
        assert tracker.observe((300.0, 200.0, 0.5, 4.0), CAM, 1.0, rng, 0.02) is None
        assert tracker.observe(self.BOX, CAM, 1.0, rng, 0.02) == self.BOX
        assert tracker.observe(self.BOX, CAM, 1.0, rng, 0.02) == self.BOX  # the target stayed put
        assert tracker.observe(None, CAM, 1.0, rng, 0.02) is None  # gone: the track is lost
        # Back, and larger: the started tracker finds it and keeps its frame-0 size.
        got = tracker.observe((298.0, 198.0, 24.0, 24.0), CAM, 1.0, rng, 0.02)
        assert got is not None and got[2:] == self.BOX[2:]

    def test_same_as_rendering_the_window_and_tracking(self, rendered_regions):
        tracker, ref = NccTracker(), _RefNccTracker()
        rng, ref_rng = stream(5, "render"), stream(5, "render")
        shape = (CAM.height, CAM.width)
        for truth in (None, self.BOX, (303.0, 198.0, 20.0, 20.0), None):
            got = tracker.observe(truth, CAM, 0.7, rng, 0.05)
            ref_truth = None if truth is None else _RefBoundingBox(*truth)
            started = ref._template is not None
            roi = ref.window(shape, ref_truth) if started or truth else (0, 0, 0, 0)
            assert rendered_regions[-1] == roi
            frame = render_frame(truth, CAM, 0.7, ref_rng, noise_sigma=0.05, roi=roi)
            if started:
                want = _box_hex(ref.track(frame, roi).box)
            elif truth:
                ref.initialize(frame, ref_truth, roi)
                want = _box_hex(truth)
            else:
                want = None
            assert _box_hex(got) == want
        # one frame key per call, rendered or not
        assert rng.integers(2**63) == ref_rng.integers(2**63)


class TestDetection:
    def test_fields_are_box_and_score(self):
        assert [f.name for f in fields(Detection)] == ["box", "score"]

    def test_valid_is_holding_a_box(self):
        assert not Detection().valid and Detection().score == 0.0
        assert not Detection(score=0.1).valid
        assert Detection((1.0, 2.0, 3.0, 4.0), 0.5).valid


class TestTrackerWindow:
    """The one region observe renders for each frame."""

    def test_window_is_template_crop_then_search_region(self, rendered_regions):
        tracker, rng = NccTracker(search_halfwidth=5), stream(21, "win")
        cam, truth = CameraIntrinsics(width=120, height=90), (50.0, 30.0, 18.0, 15.0)
        tracker.observe(truth, cam, 1.0, rng, 0.02)
        tracker.observe(truth, cam, 1.0, rng, 0.02)
        # the box grown by 0.35 of its size; then every top-left within +-5 px
        # of the centered placement, plus the template
        assert rendered_regions == [(24, 51, 43, 75), (19, 56, 38, 80)]

    def test_window_clips_to_frame(self, rendered_regions):
        tracker = NccTracker()
        tracker.observe((30.0, 30.0, 20.0, 20.0), CameraIntrinsics(width=40, height=40), 1.0, stream(0, "w"), 0.02)
        assert rendered_regions == [(23, 40, 23, 40)]


class TestLidar:
    def test_in_range_noiseless(self):
        r = lidar_range((0, 0, 0), (10, 0, 0), 20.0, normal_rows(stream(0, "l"), 0.0, 1))
        assert r == pytest.approx(10.0)

    def test_beyond_range(self):
        # out of range takes no value: an empty noise source is never read
        assert lidar_range((0, 0, 0), (25, 0, 0), 20.0, iter(())) is None

    def test_monte_carlo_unbiased(self):
        noise = normal_rows(stream(6, "l"), 0.1, 10_000)
        samples = [
            lidar_range((0, 0, 0), (10, 0, 0), 20.0, noise)
            for _ in range(10_000)
        ]
        assert 9.99 < float(np.mean(samples)) < 10.01

    def test_never_negative(self):
        noise = normal_rows(stream(6, "l"), 5.0, 500)
        for _ in range(500):
            r = lidar_range((0, 0, 0), (0.01, 0, 0), 20.0, noise)
            assert r >= 0.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            lidar_range((0, 0, 0), (1, 0, 0), 0.0, normal_rows(stream(0, "l"), 0.1, 1))
        # a negative sigma is rejected where the scenario sets it, and where it is drawn
        with pytest.raises(ConfigError):
            SensorNoise(lidar_sigma=-0.1)
        with pytest.raises(ValueError):
            next(normal_rows(stream(0, "l"), -0.1, 1))

    def test_one_draw_per_in_range_call(self):
        # each in-range value is d + rng.normal(0.0, sigma); out of range draws nothing
        noise, draws = normal_rows(stream(8, "l"), 0.3, 40), stream(8, "l")
        for k in range(40):
            d = 5.0 + k
            got = lidar_range((0, 0, 0), (d, 0, 0), 30.0, noise)
            want = None if d > 30.0 else max(d + draws.normal(0.0, 0.3), 0.0)
            assert got == want


class TestMeasureState:
    def test_noiseless_equals_truth(self):
        m = measure_state(1.2, 0.7, -0.3, next(normal_rows(stream(0, "m"), (0.0, 0.0, 0.0), 1)))
        assert m == (1.2, 0.7, -0.3)

    def test_heading_rewrapped(self):
        for noise in normal_rows(stream(9, "m"), (0.0, 0.01, 0.0), 200):
            _, psi, _ = measure_state(0.0, math.pi, 0.0, noise)
            assert -math.pi < psi <= math.pi

    def test_monte_carlo_std(self):
        rows = normal_rows(stream(13, "m"), (0.05, 0.0, 0.0), 10_000)
        us = [measure_state(1.2, 0.7, -0.3, noise)[0] for noise in rows]
        assert 0.045 < float(np.std(us)) < 0.055

    def test_stream_alignment_across_sigma_configs(self):
        # a row holds three normals whatever the sigmas, so later draws stay aligned
        rng_a, rng_b = stream(4, "m"), stream(4, "m")
        list(normal_rows(rng_a, (0.0, 0.0, 0.0), 3))
        list(normal_rows(rng_b, (0.1, 0.2, 0.3), 3))
        assert rng_a.normal() == rng_b.normal()

    def test_sigma_validation(self):
        # a negative sigma is rejected where the scenario sets it, and where it is drawn
        names = ("u_sigma", "psi_sigma", "r_sigma")
        for name in names:
            with pytest.raises(ConfigError):
                SensorNoise(**{name: -0.1})
            with pytest.raises(ValueError):
                next(normal_rows(stream(0, "m"), [-0.1 if n == name else 0.0 for n in names], 1))


# --- oracle: the StateMeasurement form that the tuple replaced, kept verbatim


@dataclass(frozen=True)
class StateMeasurement:
    """Noisy onboard estimate of the own-ship state."""

    u: float  # m/s
    psi: float  # rad, wrapped
    r: float  # rad/s


def _ref_measure_state(u, psi, r, noise):
    du, dpsi, dr = noise
    return StateMeasurement(u + du, wrap_angle(psi + dpsi), r + dr)


_EDGES = st.sampled_from([0.0, -0.0, math.inf, -math.inf, 1e308, -1e308, 5e-324])
_VALUES = st.one_of(st.floats(-10.0, 10.0), _EDGES, st.floats())
# Headings at and next to the wrap boundary, and noise that carries them across.
_ANGLES = st.one_of(
    st.floats(-4.0, 4.0),
    st.sampled_from([math.pi, -math.pi, math.nextafter(math.pi, 4.0), math.nextafter(-math.pi, -4.0)]),
    st.floats(math.pi - 1e-9, math.pi + 1e-9),
    st.floats(-math.pi - 1e-9, -math.pi + 1e-9),
    _EDGES,
)
_ANGLE_NOISE = st.one_of(st.floats(-0.1, 0.1), st.floats(-1e-15, 1e-15), _EDGES)


class TestMeasureStateOracle:
    @settings(max_examples=500, deadline=None)
    @given(_VALUES, _ANGLES, _VALUES, _VALUES, _ANGLE_NOISE, _VALUES)
    def test_bit_identical_to_the_dataclass_form(self, u, psi, r, du, dpsi, dr):
        noise = (du, dpsi, dr)
        try:
            want = _ref_measure_state(u, psi, r, noise)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                measure_state(u, psi, r, noise)
            return
        got = measure_state(u, psi, r, noise)
        assert [v.hex() for v in got] == [want.u.hex(), want.psi.hex(), want.r.hex()]


# --- oracle: the sensor step on Pose2D, BoundingBox and Detection, before it
# took (x, y, psi) poses and (x, y, w, h) boxes; kept verbatim, with copies of
# the dataclasses it built. Helpers the change left alone (search_roi,
# TemplateCache, zncc_scores, _add_strip_noise) are shared; _bounds, since
# gone from the package, is the oracle's own copy.


@dataclass
class _RefPose2D:
    """Planar pose in the world frame. psi is stored wrapped onto (-pi, pi]."""

    x: float = 0.0  # m
    y: float = 0.0  # m
    psi: float = 0.0  # rad, CCW from +x

    def __post_init__(self) -> None:
        self.psi = _ref_wrap_angle(self.psi)


@dataclass
class _RefBoundingBox:
    """Axis-aligned pixel box, top-left origin."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if self.w < 0.0 or self.h < 0.0:
            raise ValueError(f"box size must be non-negative: w={self.w}, h={self.h}")

    def center(self) -> tuple[float, float]:
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)


@dataclass(frozen=True)
class _RefDetection:
    """Single tracker output; box is meaningless when valid is False."""

    valid: bool
    box: _RefBoundingBox | None = None
    score: float = 0.0


def _ref_sees(cam: CameraIntrinsics, box: _RefBoundingBox) -> bool:
    """CameraIntrinsics.sees: whether the box center lies in the image, edges included."""
    cx, cy = box.center()
    return 0.0 <= cx <= cam.width and 0.0 <= cy <= cam.height


_REF_MIN_PROJECT_RANGE = 0.1  # m, closer targets are behind/inside the hull


def _ref_project_target(
    usv: _RefPose2D, target: _RefPose2D, extent: float, cam: CameraIntrinsics
) -> _RefBoundingBox | None:
    if not extent > 0.0:
        raise ConfigError("target extent must be > 0")
    dx = target.x - usv.x
    dy = target.y - usv.y
    d = math.hypot(dx, dy)
    beta = _ref_wrap_angle(math.atan2(dy, dx) - usv.psi)
    if abs(beta) >= cam.hfov / 2.0 or d <= _REF_MIN_PROJECT_RANGE:
        return None
    center_x = cam.cx - cam.fx * math.tan(beta)
    center_y = cam.cy
    size = cam.fx * extent / d
    left = max(center_x - size / 2.0, 0.0)
    right = min(center_x + size / 2.0, float(cam.width))
    top = max(center_y - size / 2.0, 0.0)
    bottom = min(center_y + size / 2.0, float(cam.height))
    return _RefBoundingBox(x=left, y=top, w=right - left, h=bottom - top)


def _ref_emulate_tracker(
    truth: _RefBoundingBox | None,
    visibility: float,
    noise: TrackerNoiseConfig,
    rng: np.random.Generator,
    cam: CameraIntrinsics,
) -> _RefDetection:
    if not 0.0 <= visibility <= 1.0:
        raise ConfigError("visibility must lie in [0, 1]")
    if truth is None:
        return _RefDetection(False)
    p_drop = 1.0 - (1.0 - noise.p_drop_base) * visibility
    if rng.random() < p_drop:
        return _RefDetection(False)
    gauss = rng.standard_normal
    cx, cy = truth.center()
    sigma_c = noise.sigma_center_px / visibility
    cx += 0.0 + sigma_c * gauss()
    cy += 0.0 + sigma_c * gauss()
    scale = max(1.0 + (0.0 + noise.sigma_scale * gauss()), 0.0)
    w = truth.w * scale
    h = truth.h * scale
    box = _RefBoundingBox(cx - w / 2.0, cy - h / 2.0, w, h)
    if not _ref_sees(cam, box):
        return _RefDetection(False)
    return _RefDetection(True, box, 1.0)


def _ref_render_frame(
    usv: _RefPose2D,
    target: _RefPose2D,
    extent: float,
    cam: CameraIntrinsics,
    visibility: float,
    rng: np.random.Generator,
    noise_sigma: float = 0.02,
    roi: Roi | None = None,
) -> np.ndarray:
    if not 0.0 <= visibility <= 1.0:
        raise ConfigError("visibility must lie in [0, 1]")
    y0, y1, x0, x1 = (0, cam.height, 0, cam.width) if roi is None else roi
    if not (0 <= y0 <= y1 <= cam.height and 0 <= x0 <= x1 <= cam.width):
        raise ValueError(f"roi {roi} does not lie inside the {cam.height}x{cam.width} frame")
    frame_key = int(rng.integers(0, 2**64, dtype=np.uint64))
    haze = (1.0 - visibility) * 0.6
    frame = np.full((y1 - y0, x1 - x0), visibility * 0.3 + haze)
    box = _ref_project_target(usv, target, extent, cam)
    if box is not None and box.w > 0.0 and box.h > 0.0:
        bx0 = max(int(math.floor(box.x)), x0)
        by0 = max(int(math.floor(box.y)), y0)
        bx1 = min(int(math.ceil(box.x + box.w)), x1)
        by1 = min(int(math.ceil(box.y + box.h)), y1)
        if bx1 > bx0 and by1 > by0:
            frame[by0 - y0 : by1 - y0, bx0 - x0 : bx1 - x0] = visibility * 0.8 + haze
    if noise_sigma > 0.0 and frame.size:
        _add_strip_noise(frame, (y0, y1, x0, x1), frame_key, noise_sigma)
    return np.clip(frame, 0.0, 1.0, out=frame)


def _bounds(frame: np.ndarray, roi: Roi | None) -> Roi:
    """Where frame sits in the image: all of it, or the given region."""
    if roi is None:
        return (0, frame.shape[0], 0, frame.shape[1])
    y0, y1, x0, x1 = roi
    if frame.shape != (y1 - y0, x1 - x0):
        raise ValueError(f"frame of shape {frame.shape} does not match roi {roi}")
    return roi


def _ref_template_roi(truth: _RefBoundingBox, margin: float, bounds: Roi) -> Roi:
    by0, by1, bx0, bx1 = bounds
    mx = margin * truth.w
    my = margin * truth.h
    x0 = int(math.floor(max(truth.x - mx, bx0)))
    y0 = int(math.floor(max(truth.y - my, by0)))
    x1 = int(math.ceil(min(truth.x + truth.w + mx, bx1)))
    y1 = int(math.ceil(min(truth.y + truth.h + my, by1)))
    if x1 - x0 < 1 or y1 - y0 < 1:
        return (by0, by0, bx0, bx0)
    return (y0, y1, x0, x1)


def _ref_ncc_track(
    frame: np.ndarray,
    template: np.ndarray,
    search_window: tuple[tuple[float, float], float],
    peak_threshold: float = 0.2,
    roi: Roi | None = None,
    cache: TemplateCache | None = None,
) -> _RefDetection:
    center, halfwidth = search_window
    th, tw = template.shape
    fy0, _, fx0, _ = bounds = _bounds(frame, roi)
    y0, y1, x0, x1 = search_roi(center, halfwidth, template.shape, bounds)
    if y1 == y0:
        return _RefDetection(valid=False)
    window = frame[y0 - fy0 : y1 - fy0, x0 - fx0 : x1 - fx0]
    try:
        scores = zncc_scores(window, template, cache)
    except ValueError:
        return _RefDetection(valid=False)
    flat = int(np.argmax(scores >= scores.max() - 1e-12))
    py, px = divmod(flat, scores.shape[1])
    peak = float(scores[py, px])
    box = _RefBoundingBox(float(x0 + px), float(y0 + py), float(tw), float(th))
    if peak < peak_threshold:
        return _RefDetection(valid=False, score=peak)
    return _RefDetection(valid=True, box=box, score=peak)


class _RefNccTracker:
    def __init__(
        self,
        peak_threshold: float = 0.2,
        search_halfwidth: int | None = None,
        context_margin: float = 0.35,
    ) -> None:
        self.peak_threshold = peak_threshold
        self.search_halfwidth = search_halfwidth
        self.context_margin = context_margin
        self.reset()

    def reset(self) -> None:
        self._template: np.ndarray | None = None
        self._cache: TemplateCache | None = None
        self._box_size: tuple[float, float] | None = None
        self._center: tuple[float, float] | None = None

    def _search_window(self) -> tuple[tuple[float, float], float]:
        halfwidth = (
            self.search_halfwidth
            if self.search_halfwidth is not None
            else self._template.shape[1]
        )
        return self._center, halfwidth

    def window(self, frame_shape: tuple[int, int], truth: _RefBoundingBox | None = None) -> Roi:
        bounds = (0, frame_shape[0], 0, frame_shape[1])
        if self._template is None:
            if truth is None:
                raise RuntimeError("an uninitialized tracker needs the ground-truth box")
            return _ref_template_roi(truth, self.context_margin, bounds)
        return search_roi(*self._search_window(), self._template.shape, bounds)

    def initialize(self, frame: np.ndarray, truth: _RefBoundingBox, roi: Roi | None = None) -> None:
        fy0, _, fx0, _ = bounds = _bounds(frame, roi)
        y0, y1, x0, x1 = _ref_template_roi(truth, self.context_margin, bounds)
        if y1 == y0:
            raise ConfigError("ground-truth box lies outside the frame")
        self._template = frame[y0 - fy0 : y1 - fy0, x0 - fx0 : x1 - fx0].copy()
        self._cache = TemplateCache(self._template)
        self._box_size = (truth.w, truth.h)
        self._center = truth.center()

    def track(self, frame: np.ndarray, roi: Roi | None = None) -> _RefDetection:
        if self._template is None or self._center is None or self._box_size is None:
            raise RuntimeError("tracker used before initialize()")
        det = _ref_ncc_track(
            frame, self._template, self._search_window(), self.peak_threshold, roi, self._cache
        )
        if not det.valid or det.box is None:
            return _RefDetection(valid=False, score=det.score)
        match_cx, match_cy = det.box.center()
        self._center = (match_cx, match_cy)
        bw, bh = self._box_size
        box = _RefBoundingBox(match_cx - bw / 2.0, match_cy - bh / 2.0, bw, bh)
        return _RefDetection(valid=True, box=box, score=det.score)


def _ref_lidar_range(usv: _RefPose2D, target: _RefPose2D, max_range: float, noise) -> float | None:
    if not max_range > 0.0:
        raise ConfigError("max_range must be > 0")
    d = math.hypot(target.x - usv.x, target.y - usv.y)
    if d > max_range:
        return None
    return max(d + next(noise), 0.0)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _box_hex(box) -> list[str] | None:
    """Bits of an (x, y, w, h) box or a _RefBoundingBox; None stays None."""
    if isinstance(box, _RefBoundingBox):
        box = (box.x, box.y, box.w, box.h)
    return None if box is None else _hex(box)


def _det_hex(det) -> tuple:
    """(valid, score bits, box bits) of a Detection or a _RefDetection."""
    return (det.valid, det.score.hex(), _box_hex(det.box))


# World coordinates: ordinary values, signed zeros, subnormals, huge values.
_WORLD = st.one_of(
    st.floats(-60.0, 60.0),
    st.sampled_from([0.0, -0.0, 0.05, 0.1, 5e-324, -5e-324, 1e-300, 1e6, -1e6, 1e300]),
)
# Headings as the loop passes them: already wrapped, the wrap edge included.
_HEADINGS = st.one_of(
    st.floats(-4.0, 4.0),
    st.sampled_from([math.pi, -math.pi, math.nextafter(-math.pi, 0.0), 0.0, -0.0, 0.57, -0.57]),
).map(_ref_wrap_angle)
_POSES = st.tuples(_WORLD, _WORLD, _HEADINGS)


@st.composite
def _usv_and_target(draw):
    """Two independent poses, or a target placed near the optical axis of the usv."""
    usv = draw(_POSES)
    if draw(st.booleans()):
        return usv, draw(_POSES)
    x, y, psi = usv
    d, bearing = draw(st.floats(0.05, 80.0)), draw(st.floats(-0.8, 0.8))
    return usv, (x + d * math.cos(psi + bearing), y + d * math.sin(psi + bearing), draw(_HEADINGS))


_EXTENTS = st.one_of(
    st.floats(1e-6, 50.0), st.sampled_from([5e-324, 1e-300, 2.0]), st.floats(1e-6, 5.0), st.sampled_from([0.0, -1.0])
)
_ORACLE_CAMS = st.sampled_from(
    [CAM, CameraIntrinsics(width=97, height=31, fx=0.3), CameraIntrinsics(width=640, height=480, fx=150.0)]
)


class TestProjectTargetOracle:
    @settings(max_examples=400, deadline=None)
    @given(_usv_and_target(), _EXTENTS, _ORACLE_CAMS)
    def test_bit_identical_to_the_dataclass_form(self, poses, extent, cam):
        usv, target = poses
        try:
            want = _ref_project_target(_RefPose2D(*usv), _RefPose2D(*target), extent, cam)
        except ValueError as exc:
            if str(exc).startswith("box size must be non-negative"):
                # BoundingBox rejected a clipped box that rounding left
                # narrower than zero; the tuple form calls it out of view.
                assert project_target(usv, target, extent, cam) is None
                return
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                project_target(usv, target, extent, cam)
            return
        if want is not None and not (want.w >= 1e-6 and want.h >= 1e-6):
            want = None  # a side under 1e-6 px, which six decimals cannot write: out of view
        assert _box_hex(project_target(usv, target, extent, cam)) == _box_hex(want)


_PIXELS = st.one_of(
    st.floats(0.0, 480.0), st.floats(-50.0, 700.0), st.sampled_from([0.0, -0.0, 320.0, 640.0, 480.0, 5e-324])
)
_PIXEL_SIZES = st.one_of(st.floats(0.0, 200.0), st.sampled_from([0.0, -0.0, 5e-324, 1.0]))
_BOXES = st.tuples(_PIXELS, _PIXELS, _PIXEL_SIZES, _PIXEL_SIZES)
# A truth box, or (one time in eight) None for a target out of view.
_TRUTHS = st.tuples(_BOXES, st.integers(0, 7)).map(lambda pair: None if pair[1] == 7 else pair[0])
_VISIBILITIES = st.one_of(
    st.floats(0.5, 1.0), st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 5e-324, 1e-300, 0.6])
)
_NOISES = st.builds(
    TrackerNoiseConfig,
    st.one_of(st.floats(0.0, 50.0), st.just(0.0)),
    st.one_of(st.floats(0.0, 2.0), st.just(0.0)),
    st.one_of(st.floats(0.0, 0.5), st.floats(0.0, 0.99), st.just(0.0)),
)


class TestEmulateTrackerOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(_TRUTHS, _VISIBILITIES), min_size=1, max_size=12),
        _NOISES,
        _ORACLE_CAMS,
        st.integers(0, 2**32),
    )
    def test_bit_identical_outputs_and_draws(self, calls, noise, cam, seed):
        rng, ref_rng = stream(seed, "tracker"), stream(seed, "tracker")
        for truth, visibility in calls:
            ref_truth = None if truth is None else _RefBoundingBox(*truth)
            want = _ref_emulate_tracker(ref_truth, visibility, noise, ref_rng, cam)
            got = emulate_tracker(truth, visibility, noise, rng, cam)
            assert _box_hex(got) == (_box_hex(want.box) if want.valid else None)
        # the three normals drawn at once leave the stream where three calls did
        assert _philox_state(rng.bit_generator.state) == _philox_state(ref_rng.bit_generator.state)

    @pytest.mark.parametrize("visibility", [-0.1, 1.5, math.nan])
    def test_bad_visibility_raises_before_drawing(self, visibility):
        rng, ref_rng = stream(1, "tracker"), stream(1, "tracker")
        for tracker, truth, generator in (
            (emulate_tracker, (1.0, 1.0, 2.0, 2.0), rng),
            (_ref_emulate_tracker, _RefBoundingBox(1.0, 1.0, 2.0, 2.0), ref_rng),
        ):
            with pytest.raises(ConfigError, match=r"visibility must lie in \[0, 1\]"):
                tracker(truth, visibility, TrackerNoiseConfig(), generator, CAM)
        assert rng.random() == ref_rng.random()


class TestLidarRangeOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        _POSES,
        _POSES,
        st.one_of(st.floats(1e-3, 100.0), st.sampled_from([10.0, 0.0, -1.0, 1e300])),
        st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=3),
    )
    def test_bit_identical_and_draws_alike(self, usv, target, max_range, draws):
        noise, ref_noise = iter(draws), iter(draws)
        try:
            want = _ref_lidar_range(_RefPose2D(*usv), _RefPose2D(*target), max_range, ref_noise)
        except ConfigError as exc:
            with pytest.raises(ConfigError, match=re.escape(str(exc))):
                lidar_range(usv, target, max_range, noise)
            return
        got = lidar_range(usv, target, max_range, noise)
        assert (got is None and want is None) or got.hex() == want.hex()
        assert list(noise) == list(ref_noise)


class TestRenderFrameOracle:
    @settings(max_examples=80, deadline=None)
    @given(render_cases())
    def test_bit_identical_frames_and_draws(self, case):
        rng, ref_rng = stream(case["seed"], "render"), stream(case["seed"], "render")
        usv, target, extent, cam = case["usv"], case["target"], case["extent"], case["cam"]
        kwargs = dict(noise_sigma=case["sigma"], roi=case["roi"])
        box = project_target(usv, target, extent, cam)
        got = render_frame(box, cam, case["visibility"], rng, **kwargs)
        want = _ref_render_frame(
            _RefPose2D(*usv), _RefPose2D(*target), extent, cam, case["visibility"], ref_rng, **kwargs
        )
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert _philox_state(rng.bit_generator.state) == _philox_state(ref_rng.bit_generator.state)


@st.composite
def ncc_scenes(draw):
    """A noisy frame with a textured target, a truth box around it, and its later shifts."""
    seed = draw(st.integers(0, 2**32))
    rng = np.random.default_rng(seed)
    h, w = draw(st.integers(24, 48)), draw(st.integers(24, 64))
    th, tw = draw(st.integers(3, 10)), draw(st.integers(3, 10))
    y, x = draw(st.integers(0, h - th)), draw(st.integers(0, w - tw))
    frame = np.clip(0.3 + draw(st.sampled_from([0.0, 0.02, 0.2])) * rng.standard_normal((h, w)), 0, 1)
    frame[y : y + th, x : x + tw] = rng.random((th, tw))
    # a truth box near the target, at a fractional offset and size
    truth = (
        x + draw(st.floats(-2.0, 2.0)),
        y + draw(st.floats(-2.0, 2.0)),
        tw + draw(st.floats(-1.0, 1.0)),
        th + draw(st.floats(-1.0, 1.0)),
    )
    shifts = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=5))
    return dict(
        frame=frame,
        truth=truth,
        shifts=shifts,
        threshold=draw(st.sampled_from([0.0, 0.2, 0.9, 1.0])),
        halfwidth=draw(st.sampled_from([None, 0, 2, 6])),
        margin=draw(st.sampled_from([0.0, 0.35, 1.0])),
        region=draw(st.booleans()),
    )


class TestNccOracle:
    """ncc_track and NccTracker.track on the oracle's windows, against the oracle on its frames."""

    @settings(max_examples=150, deadline=None)
    @given(ncc_scenes(), st.floats(-5.0, 70.0), st.floats(-5.0, 50.0), st.sampled_from([0.0, 1.0, 4.5, 9.0]))
    def test_ncc_track_bit_identical(self, scene, cx, cy, halfwidth):
        frame = scene["frame"]
        x, y, w, h = scene["truth"]
        template = frame[int(max(y, 0)) : int(max(y, 0)) + 4, int(max(x, 0)) : int(max(x, 0)) + 5]
        roi = search_roi((cx, cy), halfwidth, template.shape, _bounds(frame, None))
        got = ncc_track(_crop(frame, roi), template, (roi[0], roi[2]), scene["threshold"])
        want = _ref_ncc_track(frame, template, ((cx, cy), halfwidth), scene["threshold"])
        assert _det_hex(got) == _det_hex(want)

    @settings(max_examples=150, deadline=None)
    @given(ncc_scenes())
    def test_tracker_bit_identical(self, scene):
        # The oracle reads whole frames, or with region its own windows of them;
        # the tracker gets the oracle's windows either way.
        frame, truth = scene["frame"], scene["truth"]
        opts = (scene["threshold"], scene["halfwidth"], scene["margin"])
        tracker, ref = NccTracker(*opts), _RefNccTracker(*opts)
        ref_truth = _RefBoundingBox(*truth)
        roi = ref.window(frame.shape, ref_truth)
        try:
            if scene["region"]:
                ref.initialize(_crop(frame, roi), ref_truth, roi)
            else:
                ref.initialize(frame, ref_truth)
        except ConfigError as exc:
            cam = CameraIntrinsics(width=frame.shape[1], height=frame.shape[0])
            with pytest.raises(ConfigError, match=re.escape(str(exc))):
                tracker.observe(truth, cam, 1.0, stream(0, "render"), 0.0)
            return
        assert observe_start(tracker, truth, frame) == roi
        for shift in scene["shifts"]:
            moved = np.roll(frame, shift, axis=(0, 1))
            roi = ref.window(moved.shape)
            want = ref.track(_crop(moved, roi), roi) if scene["region"] else ref.track(moved)
            assert _det_hex(tracker.track(_crop(moved, roi), (roi[0], roi[2]))) == _det_hex(want)
            assert _hex(tracker._center) == _hex(ref._center)
            assert _hex(tracker._box_size) == _hex(ref._box_size)
