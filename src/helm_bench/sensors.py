"""Sensing chain: camera projection, tracker emulation, frame rendering,
a template NCC tracker, ranging and state measurement.

Every stochastic operation draws from a caller-supplied numpy Generator, or,
for ranging and state measurement, takes caller-drawn noise, so identical
seeds give bit-identical outputs. The NCC tracker's frame step,
NccTracker.observe, picks one region of each frame, renders just that region
and matches over exactly the pixels it rendered.
"""

from __future__ import annotations

import functools
import math
import threading
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .core import Box, CameraIntrinsics, ConfigError, Pose, box_center, wrap_angle

_MIN_PROJECT_RANGE = 0.1  # m, closer targets are behind/inside the hull
_MIN_BOX_SIZE = 1e-6  # px, the finest width or height six decimals write (metrics.format_boxes)


@dataclass(frozen=True)
class Detection:
    """Single NCC tracker output: an (x, y, w, h) box, None for a miss, and the peak score."""

    box: Box | None = None
    score: float = 0.0

    @property
    def valid(self) -> bool:
        return self.box is not None


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


def project_target(usv: Pose, target: Pose, extent: float, cam: CameraIntrinsics) -> Box | None:
    """Pinhole image of a target of the given world extent, or None if out of view.

    usv and target are (x, y, psi) poses. The (x, y, w, h) box is clipped to
    the image; a target to port always lands left of the principal point.
    A clipped box narrower or shorter than _MIN_BOX_SIZE is out of view too:
    a box file could not record it.
    """
    if not extent > 0.0:
        raise ConfigError("target extent must be > 0")
    ux, uy, upsi = usv
    dx = target[0] - ux
    dy = target[1] - uy
    d = math.hypot(dx, dy)
    beta = math.atan2(dy, dx) - upsi
    beta = beta if -math.pi < beta <= math.pi else wrap_angle(beta)
    if abs(beta) >= cam.hfov / 2.0 or d <= _MIN_PROJECT_RANGE:
        return None
    center_x = cam.cx - cam.fx * math.tan(beta)
    center_y = cam.cy
    half = cam.fx * extent / d / 2.0
    width, height = float(cam.width), float(cam.height)
    left = center_x - half
    left = 0.0 if 0.0 > left else left
    right = center_x + half
    right = width if width < right else right
    top = center_y - half
    top = 0.0 if 0.0 > top else top
    bottom = center_y + half
    bottom = height if height < bottom else bottom
    w, h = right - left, bottom - top
    if not (w >= _MIN_BOX_SIZE and h >= _MIN_BOX_SIZE):
        return None
    return (left, top, w, h)


def emulate_tracker(
    truth: Box | None,
    visibility: float,
    noise: TrackerNoiseConfig,
    rng: np.random.Generator,
    cam: CameraIntrinsics,
) -> Box | None:
    """Degrade a ground-truth (x, y, w, h) box the way a real tracker would.

    Returns the reported box, or None for a miss. Draw order per call: one
    uniform for dropout, then (if kept) two normals for the center and one
    for the size, drawn together. rng.random(), and 0.0 + s * z for each z
    of rng.standard_normal(3), give the values of rng.uniform() and of three
    rng.normal(0.0, s) calls bit for bit through cheaper numpy entry points,
    and leave the generator in the same state. Dropout probability is
    1 - (1 - p_drop_base) * visibility; center jitter scales with
    1 / visibility. A jittered box whose center lies off the image (edges
    count as on it) is a miss: a tracker cannot report a target
    outside its frame. That is decided after the draws, so the stream stays
    aligned.
    """
    if not 0.0 <= visibility <= 1.0:
        raise ConfigError("visibility must lie in [0, 1]")
    if truth is None:
        return None
    p_drop = 1.0 - (1.0 - noise.p_drop_base) * visibility
    if rng.random() < p_drop:
        return None
    zx, zy, zs = rng.standard_normal(3).tolist()
    x, y, w, h = truth
    sigma_c = noise.sigma_center_px / visibility
    cx = x + w / 2.0 + (0.0 + sigma_c * zx)
    cy = y + h / 2.0 + (0.0 + sigma_c * zy)
    scale = 1.0 + (0.0 + noise.sigma_scale * zs)
    scale = 0.0 if 0.0 > scale else scale
    w *= scale
    h *= scale
    x = cx - w / 2.0
    y = cy - h / 2.0
    seen = 0.0 <= x + w / 2.0 <= cam.width and 0.0 <= y + h / 2.0 <= cam.height  # center in the image, edges included
    return (x, y, w, h) if seen else None


Roi = tuple[int, int, int, int]  # (y0, y1, x0, x1): rows y0..y1-1, columns x0..x1-1

NOISE_STRIP = 64  # px, width of the frame's column strips that key the sensor noise
NOISE_LANES = 2**16  # values a pixel's 16-bit noise lane takes
_TIE_TOLERANCE = 1e-12  # ZNCC scores closer than this to the peak tie with it


def render_frame(
    box: Box | None,
    cam: CameraIntrinsics,
    visibility: float,
    rng: np.random.Generator,
    noise_sigma: float = 0.02,
    roi: Roi | None = None,
) -> np.ndarray:
    """Grayscale frame: sea at 0.3, target rectangle at 0.8, haze toward 0.6.

    box is the target's (x, y, w, h) box as project_target gives it, or None.
    Haze blends the scene with weight (1 - visibility); sensor noise of the
    given sigma is added after the blend, then intensities clip to [0, 1].
    Returns the (height, width) frame, or with roi only that region of it;
    an empty region is allowed.

    Each call draws one 64-bit frame key from rng, whatever the roi and the
    sigma. Each NOISE_STRIP-wide column strip of the frame has its own raw
    Philox stream, keyed by the frame key, with the strip index in the
    counter's top word. A pixel's noise is sigma times the normal quantile
    that one 16-bit lane of its strip's stream picks, and the lane is fixed
    by the pixel's row and column alone (_add_strip_noise). So a region
    equals the same crop of the full frame bit for bit, and a render draws
    only the rows of the strips that its region touches.
    """
    if not 0.0 <= visibility <= 1.0:
        raise ConfigError("visibility must lie in [0, 1]")
    y0, y1, x0, x1 = (0, cam.height, 0, cam.width) if roi is None else roi
    if not (0 <= y0 <= y1 <= cam.height and 0 <= x0 <= x1 <= cam.width):
        raise ValueError(f"roi {roi} does not lie inside the {cam.height}x{cam.width} frame")
    frame_key = int(rng.integers(0, 2**64, dtype=np.uint64))
    haze = (1.0 - visibility) * 0.6
    frame = np.full((y1 - y0, x1 - x0), visibility * 0.3 + haze)
    if box is not None and box[2] > 0.0 and box[3] > 0.0:
        bx, by, bw, bh = box
        bx0 = max(int(math.floor(bx)), x0)
        by0 = max(int(math.floor(by)), y0)
        bx1 = min(int(math.ceil(bx + bw)), x1)
        by1 = min(int(math.ceil(by + bh)), y1)
        if bx1 > bx0 and by1 > by0:
            frame[by0 - y0 : by1 - y0, bx0 - x0 : bx1 - x0] = visibility * 0.8 + haze
    if noise_sigma > 0.0 and frame.size:
        _add_strip_noise(frame, (y0, y1, x0, x1), frame_key, noise_sigma)
    return np.clip(frame, 0.0, 1.0, out=frame)


_philox = threading.local()


def _keyed_philox(key: int) -> tuple[np.random.Philox, dict]:
    """This thread's raw Philox in the state np.random.Philox(key=key) starts in, and that state.

    Building np.random.Philox(key=...) also reads OS entropy for a seed
    sequence that the key then discards, so each thread keeps one bit
    generator and re-keys it. Each call sets the whole state, so no word
    carries over from the last caller. A key below 2**64 is the low word of
    Philox's two. A caller that moves the counter of the returned state
    assigns it back to .state.
    """
    bits = getattr(_philox, "bits", None)
    if bits is None:
        bits = _philox.bits = np.random.Philox(0)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64), "key": np.array([key, 0], np.uint64)},
        "buffer": np.zeros(4, np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    bits.state = state
    return bits, state


@functools.cache
def _gaussian_quantiles() -> np.ndarray:
    """The N(0, 1) quantiles at the midpoints (k + 0.5) / 65536 of 65,536 equal-probability bins.

    A 16-bit lane k stands for the normal draw Q[k]; the tails are cut at
    Q[0] = -Q[65535] ~ -4.32. The lower half comes from
    statistics.NormalDist().inv_cdf and the upper half is its negation, so
    Q[k] == -Q[65535 - k] exactly. Built on first use; read-only.
    """
    import statistics  # only the renderer needs it, and only once

    inv_cdf = statistics.NormalDist().inv_cdf
    half = NOISE_LANES // 2
    lower = np.fromiter((inv_cdf((k + 0.5) / NOISE_LANES) for k in range(half)), np.float64, half)
    table = np.concatenate([lower, -lower[::-1]])
    table.flags.writeable = False
    return table


def _add_strip_noise(frame: np.ndarray, roi: Roi, frame_key: int, sigma: float) -> None:
    """Add sigma-scaled quantized normals to the roi region of a frame.

    The noise of pixel (y, x) is sigma * Q[lane], with Q the
    _gaussian_quantiles table. The lane is the little-endian 16-bit lane
    x % 4 of word (64*y + x % 64) // 4 of the raw Philox stream keyed
    (frame_key, 0) whose counter's top word is the strip index x // 64. A
    strip's row y starts at block 4*y of its stream, so each strip the
    region touches draws just the region's rows, in one call. The strips'
    words fill one array whose lanes are mapped, scaled and added once.
    """
    y0, y1, x0, x1 = roi
    strip = NOISE_STRIP
    row_words = strip // 4  # 16-bit lanes, four to a 64-bit word
    s0, s1 = x0 // strip, (x1 - 1) // strip + 1
    bits, state = _keyed_philox(frame_key)
    counter = state["state"]["counter"]
    # A row is row_words // 4 blocks of four words. numpy's Philox steps the
    # counter before it makes a block, so counter b starts at block b.
    counter[0] = row_words // 4 * y0
    words = np.empty((y1 - y0, s1 - s0, row_words), np.uint64)
    for sx in range(s0, s1):
        # The strip index sits in the counter's top word, so the blocks of one
        # strip never reach those of the next.
        counter[3] = sx
        bits.state = state
        words[:, sx - s0] = bits.random_raw(row_words * (y1 - y0)).reshape(y1 - y0, row_words)
    # Lanes by explicit byte order, so the host's cannot move them.
    lanes = words.astype("<u8", copy=False).view("<u2").reshape(y1 - y0, (s1 - s0) * strip)
    noise = _gaussian_quantiles().take(lanes[:, x0 - s0 * strip : x1 - s0 * strip])
    noise *= sigma
    frame += noise


def _box_sums(a: np.ndarray, h: int, w: int) -> np.ndarray:
    """Sum of every h x w box of a, indexed by its top-left corner.

    Read from a summed-area table in O(a.size) (J.P. Lewis, "Fast
    Normalized Cross-Correlation", Vision Interface 1995). The corners read
    only the table rows 0..p-1 and h..H, for p placements down a column of
    an H-row a, so the cumulative sums along the rows are taken over those
    rows alone (row 0 is all zeros).
    """
    p = a.shape[0] - h + 1
    table = np.zeros((a.shape[0] + 1, a.shape[1] + 1))
    np.cumsum(a, axis=0, out=table[1:, 1:])
    for band in (table[1:p, 1:], table[max(h, p) :, 1:]):
        np.cumsum(band, axis=1, out=band)
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
    factors. The window sums come from summed-area tables. Only the rows of
    the inverse transform and of the tables that a placement reads are
    finished; each value kept is bit for bit that of the whole transform.
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
    # irfft2's two passes, the second only over the rows a placement reads.
    columns = np.fft.ifft(product, axis=0)
    cross = np.fft.irfft(columns[: wh - th + 1], n=shape[1], axis=1)[:, : ww - tw + 1]
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


def template_roi(truth: Box, margin: float, bounds: Roi) -> Roi:
    """The (x, y, w, h) truth box grown by margin times its size on each side, clipped to bounds.

    Empty when the box lies outside bounds.
    """
    by0, by1, bx0, bx1 = bounds
    x, y, w, h = truth
    mx = margin * w
    my = margin * h
    x0 = int(math.floor(max(x - mx, bx0)))
    y0 = int(math.floor(max(y - my, by0)))
    x1 = int(math.ceil(min(x + w + mx, bx1)))
    y1 = int(math.ceil(min(y + h + my, by1)))
    if x1 - x0 < 1 or y1 - y0 < 1:
        return (by0, by0, bx0, bx0)
    return (y0, y1, x0, x1)


def ncc_track(
    window: np.ndarray,
    template: np.ndarray,
    origin: tuple[int, int],
    peak_threshold: float = 0.2,
    cache: TemplateCache | None = None,
) -> Detection:
    """Best ZNCC placement of template inside window.

    origin is the image (y, x) of the window's top-left pixel. Every
    placement of the template inside the window is scored, and the first
    row-major maximum (to within 1e-12) wins. The detection's (x, y, w, h)
    box is in image coordinates and has the template's size; a peak below
    peak_threshold, a window smaller than the template or a flat template
    comes back with box None. cache, if given, is passed on to zncc_scores.
    """
    th, tw = template.shape
    try:
        scores = zncc_scores(window, template, cache)
    except ValueError:
        return Detection()
    # The summed-area sums round differently at different placements, so
    # identical patches can score a few ulps apart: scores this close to the
    # peak count as ties, and the first in row-major order wins.
    flat = int(np.argmax(scores >= scores.max() - _TIE_TOLERANCE))
    py, px = divmod(flat, scores.shape[1])
    peak = float(scores[py, px])
    if peak < peak_threshold:
        return Detection(score=peak)
    y0, x0 = origin
    return Detection((float(x0 + px), float(y0 + py), float(tw), float(th)), peak)


class NccTracker:
    """Template tracker: frame-0 crop matched by ZNCC inside a search window.

    The template is the ground-truth box grown by a context margin so the
    object boundary carries structure; reported boxes keep the original box
    size centered on the match. A peak below the threshold flags the frame
    as lost and the search stays around the last confident location.

    observe() is the frame step: it picks the frame's one region (the
    template crop before the start, the search window after it), renders
    just that region and matches over exactly the pixels it rendered.
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
        if search_halfwidth is not None and search_halfwidth < 0:
            # a negative half-width leaves no placement of the template to match
            raise ConfigError("search_halfwidth must be >= 0, or None for the template width")
        self.peak_threshold = peak_threshold
        self.search_halfwidth = search_halfwidth
        self.context_margin = context_margin
        self._template: np.ndarray | None = None
        self._cache: TemplateCache | None = None
        self._box_size: tuple[float, float] | None = None
        self._center: tuple[float, float] | None = None

    def track(self, window: np.ndarray, origin: tuple[int, int]) -> Detection:
        """Match the template inside window, whose top-left pixel is image (y, x) origin; lost below threshold."""
        if self._template is None:
            raise RuntimeError("tracker used before it started")
        det = ncc_track(window, self._template, origin, self.peak_threshold, self._cache)
        if det.box is None:
            return det
        self._center = box_center(det.box)
        match_cx, match_cy = self._center
        bw, bh = self._box_size
        box = (match_cx - bw / 2.0, match_cy - bh / 2.0, bw, bh)
        return Detection(box, det.score)

    def observe(
        self, truth: Box | None, cam: CameraIntrinsics, visibility: float, rng: np.random.Generator, noise_sigma: float
    ) -> Box | None:
        """One camera frame: render the region this tracker reads, then start on truth or track.

        truth is the frame's projected box, or None. The tracker starts on, and reports, the first
        truth box at least a pixel each way; before that it reports None. Raises ConfigError when
        that box lies outside the frame.
        """
        bounds = (0, cam.height, 0, cam.width)
        if self._template is not None:
            th, tw = self._template.shape
            halfwidth = tw if self.search_halfwidth is None else self.search_halfwidth
            roi = search_roi(self._center, halfwidth, (th, tw), bounds)
            window = render_frame(truth, cam, visibility, rng, noise_sigma=noise_sigma, roi=roi)
            return self.track(window, (roi[0], roi[2])).box  # None while the track is lost
        if truth is None or not (truth[2] >= 1.0 and truth[3] >= 1.0):
            # A frame with nothing to read still draws its key, so later frames keep their noise.
            render_frame(truth, cam, visibility, rng, noise_sigma=noise_sigma, roi=(0, 0, 0, 0))
            return None
        roi = template_roi(truth, self.context_margin, bounds)
        if roi[1] == roi[0]:
            raise ConfigError("ground-truth box lies outside the frame")
        self._template = render_frame(truth, cam, visibility, rng, noise_sigma=noise_sigma, roi=roi)
        self._cache = TemplateCache(self._template)
        self._box_size = truth[2:]
        self._center = box_center(truth)
        return truth


def lidar_range(usv: Pose, target: Pose, max_range: float, noise: Iterator[float]) -> float | None:
    """Range to the target plus the next value of noise, clipped at 0; None beyond max_range.

    usv and target are (x, y, psi) poses. noise yields the Gaussian range
    errors, for instance seeding.normal_rows(rng, sigma, n); a value is
    taken only when the target is in range.
    """
    if not max_range > 0.0:
        raise ConfigError("max_range must be > 0")
    d = math.hypot(target[0] - usv[0], target[1] - usv[1])
    if d > max_range:
        return None
    d += next(noise)
    return 0.0 if 0.0 > d else d


def measure_state(u: float, psi: float, r: float, noise: Sequence[float]) -> tuple[float, float, float]:
    """Additive-Gaussian state measurement (u, psi, r); heading re-wrapped after noise.

    The result is the noisy onboard estimate: m/s, rad on (-pi, pi] and
    rad/s. noise is this step's (u, psi, r) error, one row of
    seeding.normal_rows(rng, (sigma_u, sigma_psi, sigma_r), n). A row holds
    three draws whatever the sigmas, so the stream stays aligned across
    noise configurations.
    """
    du, dpsi, dr = noise
    psi += dpsi
    return u + du, psi if -math.pi < psi <= math.pi else wrap_angle(psi), r + dr
