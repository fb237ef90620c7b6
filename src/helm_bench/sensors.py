"""Sensing chain: camera projection, tracker emulation, frame rendering,
a template NCC tracker, ranging and state measurement.

Every stochastic operation draws from a caller-supplied numpy Generator so
identical seeds give bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BodyState, BoundingBox, CameraIntrinsics, ConfigError, Pose2D, wrap_angle

_MIN_PROJECT_RANGE = 0.1  # m, closer targets are behind/inside the hull


@dataclass(frozen=True)
class Detection:
    """Single tracker output; box is meaningless when valid is False."""

    valid: bool
    box: BoundingBox | None = None
    score: float = 0.0


@dataclass(frozen=True)
class TrackerNoiseConfig:
    """Degradation knobs for the ground-truth tracker emulator."""

    sigma_center_px: float = 2.0  # px at visibility 1
    sigma_scale: float = 0.05  # relative size jitter
    p_drop_base: float = 0.05  # dropout probability at visibility 1

    def __post_init__(self) -> None:
        if self.sigma_center_px < 0.0 or self.sigma_scale < 0.0:
            raise ConfigError("noise sigmas must be >= 0")
        # -0.0 passes the check above, but rng.normal rejects it as a scale.
        for name in ("sigma_center_px", "sigma_scale"):
            object.__setattr__(self, name, abs(getattr(self, name)))
        if not 0.0 <= self.p_drop_base < 1.0:
            raise ConfigError("p_drop_base must lie in [0, 1)")


@dataclass(frozen=True)
class StateMeasurement:
    """Noisy onboard estimate of the own-ship state."""

    u: float  # m/s
    psi: float  # rad, wrapped
    r: float  # rad/s


def project_target(
    usv: Pose2D, target: Pose2D, extent: float, cam: CameraIntrinsics
) -> BoundingBox | None:
    """Pinhole image of a target of the given world extent, or None if out of view.

    The box is clipped to the image; a target to port always lands left of
    the principal point.
    """
    if not extent > 0.0:
        raise ConfigError("target extent must be > 0")
    dx = target.x - usv.x
    dy = target.y - usv.y
    d = math.hypot(dx, dy)
    beta = wrap_angle(math.atan2(dy, dx) - usv.psi)
    if abs(beta) >= cam.hfov / 2.0 or d <= _MIN_PROJECT_RANGE:
        return None
    center_x = cam.cx - cam.fx * math.tan(beta)
    center_y = cam.cy
    size = cam.fx * extent / d
    left = max(center_x - size / 2.0, 0.0)
    right = min(center_x + size / 2.0, float(cam.width))
    top = max(center_y - size / 2.0, 0.0)
    bottom = min(center_y + size / 2.0, float(cam.height))
    return BoundingBox(x=left, y=top, w=right - left, h=bottom - top)


def emulate_tracker(
    truth: BoundingBox | None,
    visibility: float,
    noise: TrackerNoiseConfig,
    rng: np.random.Generator,
    cam: CameraIntrinsics,
) -> Detection:
    """Degrade a ground-truth box the way a real tracker would.

    Draw order per call: one uniform for dropout, then (if kept) two normals
    for the center and one for the size. Dropout probability is
    1 - (1 - p_drop_base) * visibility; center jitter scales with
    1 / visibility. A detection whose jittered box the camera does not see
    (CameraIntrinsics.sees) is invalid: a tracker cannot report a target
    outside its frame. That is decided after the draws, so the stream stays
    aligned.
    """
    if not 0.0 <= visibility <= 1.0:
        raise ConfigError("visibility must lie in [0, 1]")
    if truth is None:
        return Detection(valid=False)
    p_drop = 1.0 - (1.0 - noise.p_drop_base) * visibility
    if rng.uniform() < p_drop:
        return Detection(valid=False)
    cx, cy = truth.center()
    sigma_c = noise.sigma_center_px / visibility
    cx += rng.normal(0.0, sigma_c)
    cy += rng.normal(0.0, sigma_c)
    scale = max(1.0 + rng.normal(0.0, noise.sigma_scale), 0.0)
    w = truth.w * scale
    h = truth.h * scale
    box = BoundingBox(cx - w / 2.0, cy - h / 2.0, w, h)
    if not cam.sees(box):
        return Detection(valid=False)
    return Detection(valid=True, box=box, score=1.0)


Roi = tuple[int, int, int, int]  # (y0, y1, x0, x1): rows y0..y1-1, columns x0..x1-1

NOISE_TILE = 32  # px, side of the square frame tiles that key the sensor noise
_TIE_TOLERANCE = 1e-12  # ZNCC scores closer than this to the peak tie with it


def render_frame(
    usv: Pose2D,
    target: Pose2D,
    extent: float,
    cam: CameraIntrinsics,
    visibility: float,
    rng: np.random.Generator,
    noise_sigma: float = 0.02,
    roi: Roi | None = None,
) -> np.ndarray:
    """Grayscale frame: sea at 0.3, target rectangle at 0.8, haze toward 0.6.

    Haze blends the scene with weight (1 - visibility); sensor noise of the
    given sigma is added after the blend, then intensities clip to [0, 1].
    Returns the (height, width) frame, or with roi only that region of it;
    an empty region is allowed.

    Each call draws one 64-bit frame key from rng, whatever the roi and the
    sigma. The noise of each NOISE_TILE-square tile of the frame comes from
    a Philox stream whose key is the frame key and whose counter is the
    tile's row-major index, so a region equals the same crop of the full
    frame bit for bit.
    """
    if not 0.0 <= visibility <= 1.0:
        raise ConfigError("visibility must lie in [0, 1]")
    y0, y1, x0, x1 = (0, cam.height, 0, cam.width) if roi is None else roi
    if not (0 <= y0 <= y1 <= cam.height and 0 <= x0 <= x1 <= cam.width):
        raise ValueError(f"roi {roi} does not lie inside the {cam.height}x{cam.width} frame")
    frame_key = int(rng.integers(0, 2**64, dtype=np.uint64))
    haze = (1.0 - visibility) * 0.6
    frame = np.full((y1 - y0, x1 - x0), visibility * 0.3 + haze)
    box = project_target(usv, target, extent, cam)
    if box is not None and box.w > 0.0 and box.h > 0.0:
        bx0 = max(int(math.floor(box.x)), x0)
        by0 = max(int(math.floor(box.y)), y0)
        bx1 = min(int(math.ceil(box.x + box.w)), x1)
        by1 = min(int(math.ceil(box.y + box.h)), y1)
        if bx1 > bx0 and by1 > by0:
            frame[by0 - y0 : by1 - y0, bx0 - x0 : bx1 - x0] = visibility * 0.8 + haze
    if noise_sigma > 0.0 and frame.size:
        _add_tile_noise(frame, (y0, y1, x0, x1), cam.width, frame_key, noise_sigma)
    return np.clip(frame, 0.0, 1.0, out=frame)


def _add_tile_noise(frame: np.ndarray, roi: Roi, width: int, frame_key: int, sigma: float) -> None:
    """Add sigma-scaled normals to the roi region of a frame width pixels wide.

    One bit generator serves every tile: resetting its state is cheaper than
    building a new one. A tile draws its normals in row-major order and
    stops after the last row the region needs.
    """
    y0, y1, x0, x1 = roi
    tile = NOISE_TILE
    tiles_per_row = -(-width // tile)
    bits = np.random.Philox(key=frame_key)
    normals = np.random.Generator(bits)
    state = bits.state
    counter = state["state"]["counter"]
    for ty in range(y0 // tile, (y1 - 1) // tile + 1):
        r0 = max(y0 - ty * tile, 0)
        r1 = min(y1 - ty * tile, tile)
        for tx in range(x0 // tile, (x1 - 1) // tile + 1):
            c0 = max(x0 - tx * tile, 0)
            c1 = min(x1 - tx * tile, tile)
            # The tile index sits in the counter's top word, so the blocks
            # of one tile never reach those of the next.
            counter[3] = ty * tiles_per_row + tx
            bits.state = state
            z = normals.standard_normal(r1 * tile).reshape(r1, tile)
            fy = ty * tile + r0 - y0
            fx = tx * tile + c0 - x0
            frame[fy : fy + r1 - r0, fx : fx + c1 - c0] += sigma * z[r0:r1, c0:c1]


def _box_sums(a: np.ndarray, h: int, w: int) -> np.ndarray:
    """Sum of every h x w box of a, indexed by its top-left corner.

    Read from a summed-area table in O(a.size) (J.P. Lewis, "Fast
    Normalized Cross-Correlation", Vision Interface 1995).
    """
    table = np.zeros((a.shape[0] + 1, a.shape[1] + 1))
    np.cumsum(a, axis=0, out=table[1:, 1:])
    np.cumsum(table[1:, 1:], axis=1, out=table[1:, 1:])
    return table[h:, w:] - table[:-h, w:] - table[h:, :-w] + table[:-h, :-w]


def _fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= n: a size pocketfft transforms fast."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


class TemplateCache:
    """A template's zero-mean pixels, their energy, and conjugate spectra.

    zncc_scores builds one per call unless it is given one; a tracker that
    matches one template over many frames keeps one, so the template is
    transformed once per padded size.
    """

    def __init__(self, template: np.ndarray) -> None:
        self.zero_mean = template - template.mean()
        self.energy = float(np.sum(self.zero_mean * self.zero_mean))
        self._spectra: dict[tuple[int, int], np.ndarray] = {}

    def spectrum(self, shape: tuple[int, int]) -> np.ndarray:
        """Conjugate of the zero-mean template's rfft2 padded to shape."""
        spec = self._spectra.get(shape)
        if spec is None:
            spec = self._spectra[shape] = np.fft.rfft2(self.zero_mean, s=shape).conj()
        return spec


def zncc_scores(
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
    sums = _box_sums(shifted, th, tw)
    sq_sums = _box_sums(shifted * shifted, th, tw)
    w_energy = np.maximum(sq_sums - sums * sums / (th * tw), 0.0)
    denom = np.sqrt(w_energy * cache.energy)
    scores = np.zeros_like(cross)
    np.divide(cross, denom, out=scores, where=denom > 0.0)
    return scores


def search_roi(
    center: tuple[float, float], halfwidth: float, template_shape: tuple[int, int], bounds: Roi
) -> Roi:
    """Pixels that a template of template_shape covers near center.

    The region holds every placement whose top-left corner lies within
    ±halfwidth of the one that centers the template on (cx, cy), clipped to
    bounds. It is empty when no whole placement fits.
    """
    cx, cy = center
    th, tw = template_shape
    by0, by1, bx0, bx1 = bounds
    base_x = cx - tw / 2.0
    base_y = cy - th / 2.0
    x0 = max(int(math.floor(base_x - halfwidth)), bx0)
    y0 = max(int(math.floor(base_y - halfwidth)), by0)
    x1 = min(int(math.ceil(base_x + halfwidth)) + tw, bx1)
    y1 = min(int(math.ceil(base_y + halfwidth)) + th, by1)
    if x1 - x0 < tw or y1 - y0 < th:
        return (by0, by0, bx0, bx0)
    return (y0, y1, x0, x1)


def template_roi(truth: BoundingBox, margin: float, bounds: Roi) -> Roi:
    """The truth box grown by margin times its size on each side, clipped to bounds.

    Empty when the box lies outside bounds.
    """
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


def _bounds(frame: np.ndarray, roi: Roi | None) -> Roi:
    """Where frame sits in the image: all of it, or the given region."""
    if roi is None:
        return (0, frame.shape[0], 0, frame.shape[1])
    y0, y1, x0, x1 = roi
    if frame.shape != (y1 - y0, x1 - x0):
        raise ValueError(f"frame of shape {frame.shape} does not match roi {roi}")
    return roi


def ncc_track(
    frame: np.ndarray,
    template: np.ndarray,
    search_window: tuple[tuple[float, float], float],
    peak_threshold: float = 0.2,
    roi: Roi | None = None,
    cache: TemplateCache | None = None,
) -> Detection:
    """Best ZNCC placement of template inside frame near a previous center.

    search_window is ((cx, cy), halfwidth): the template slides over every
    placement whose center stays within ±halfwidth pixels of (cx, cy), and
    the first row-major maximum (to within 1e-12) wins. frame is the whole
    image, or with roi only that region of it; the search stays inside the
    pixels given, and the center and the box are in image coordinates. The
    detection box has the template's size; a peak below peak_threshold (or
    a window too small to search) comes back with valid=False. cache, if
    given, is passed on to zncc_scores.
    """
    center, halfwidth = search_window
    th, tw = template.shape
    fy0, _, fx0, _ = bounds = _bounds(frame, roi)
    y0, y1, x0, x1 = search_roi(center, halfwidth, template.shape, bounds)
    if y1 == y0:
        return Detection(valid=False)
    window = frame[y0 - fy0 : y1 - fy0, x0 - fx0 : x1 - fx0]
    try:
        scores = zncc_scores(window, template, cache)
    except ValueError:
        return Detection(valid=False)
    # The summed-area sums round differently at different placements, so
    # identical patches can score a few ulps apart: scores this close to the
    # peak count as ties, and the first in row-major order wins.
    flat = int(np.argmax(scores >= scores.max() - _TIE_TOLERANCE))
    py, px = divmod(flat, scores.shape[1])
    peak = float(scores[py, px])
    box = BoundingBox(float(x0 + px), float(y0 + py), float(tw), float(th))
    if peak < peak_threshold:
        return Detection(valid=False, score=peak)
    return Detection(valid=True, box=box, score=peak)


class NccTracker:
    """Template tracker: frame-0 crop matched by ZNCC inside a search window.

    The template is the ground-truth box grown by a context margin so the
    object boundary carries structure; reported boxes keep the original box
    size centered on the match. A peak below the threshold flags the frame
    as lost and the search stays around the last confident location.

    window() names the region of the image that the next initialize or
    track call reads, so a caller can render just that region and pass it
    with its roi.
    """

    def __init__(
        self,
        peak_threshold: float = 0.2,
        search_halfwidth: int | None = None,
        context_margin: float = 0.35,
    ) -> None:
        if not 0.0 <= peak_threshold <= 1.0:
            raise ConfigError("peak_threshold must lie in [0, 1]")
        if context_margin < 0.0:
            raise ConfigError("context_margin must be >= 0")
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
        """((cx, cy), halfwidth) around the last confident location."""
        halfwidth = (
            self.search_halfwidth
            if self.search_halfwidth is not None
            else self._template.shape[1]
        )
        return self._center, halfwidth

    def window(self, frame_shape: tuple[int, int], truth: BoundingBox | None = None) -> Roi:
        """Region of a frame_shape image that the next call reads.

        Before initialize, the template crop around truth; after it, the
        search window around the last confident location.
        """
        bounds = (0, frame_shape[0], 0, frame_shape[1])
        if self._template is None:
            if truth is None:
                raise RuntimeError("an uninitialized tracker needs the ground-truth box")
            return template_roi(truth, self.context_margin, bounds)
        return search_roi(*self._search_window(), self._template.shape, bounds)

    def initialize(self, frame: np.ndarray, truth: BoundingBox, roi: Roi | None = None) -> None:
        """Crop the template around the frame-0 ground-truth box.

        frame is the whole image, or with roi only that region of it.
        """
        fy0, _, fx0, _ = bounds = _bounds(frame, roi)
        y0, y1, x0, x1 = template_roi(truth, self.context_margin, bounds)
        if y1 == y0:
            raise ConfigError("ground-truth box lies outside the frame")
        self._template = frame[y0 - fy0 : y1 - fy0, x0 - fx0 : x1 - fx0].copy()
        self._cache = TemplateCache(self._template)
        self._box_size = (truth.w, truth.h)
        self._center = truth.center()

    @property
    def initialized(self) -> bool:
        return self._template is not None

    def track(self, frame: np.ndarray, roi: Roi | None = None) -> Detection:
        """Match the template near the previous location; lost below threshold.

        frame is the whole image, or with roi only that region of it.
        """
        if self._template is None or self._center is None or self._box_size is None:
            raise RuntimeError("tracker used before initialize()")
        det = ncc_track(
            frame, self._template, self._search_window(), self.peak_threshold, roi, self._cache
        )
        if not det.valid or det.box is None:
            return Detection(valid=False, score=det.score)
        match_cx, match_cy = det.box.center()
        self._center = (match_cx, match_cy)
        bw, bh = self._box_size
        box = BoundingBox(match_cx - bw / 2.0, match_cy - bh / 2.0, bw, bh)
        return Detection(valid=True, box=box, score=det.score)


def lidar_range(
    usv: Pose2D,
    target: Pose2D,
    max_range: float,
    sigma: float,
    rng: np.random.Generator,
) -> float | None:
    """Range to the target with Gaussian noise, None beyond max_range."""
    if not max_range > 0.0 or sigma < 0.0:
        raise ConfigError("max_range must be > 0 and sigma >= 0")
    d = math.hypot(target.x - usv.x, target.y - usv.y)
    if d > max_range:
        return None
    return max(d + rng.normal(0.0, sigma), 0.0)


def measure_state(
    state: BodyState,
    sigma_u: float,
    sigma_psi: float,
    sigma_r: float,
    rng: np.random.Generator,
) -> StateMeasurement:
    """Additive-Gaussian state measurement; heading re-wrapped after noise.

    Three normals are drawn per call regardless of the sigmas, so the
    stream stays aligned across noise configurations.
    """
    if sigma_u < 0.0 or sigma_psi < 0.0 or sigma_r < 0.0:
        raise ConfigError("measurement sigmas must be >= 0")
    u = state.u + rng.normal(0.0, sigma_u)
    psi = state.pose.psi + rng.normal(0.0, sigma_psi)
    r = state.r + rng.normal(0.0, sigma_r)
    return StateMeasurement(u=u, psi=wrap_angle(psi), r=r)
