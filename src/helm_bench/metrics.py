"""Offline benchmark metrics for box tracking plus the closed-loop cost.

Conventions: success uses IoU >= threshold over 101 thresholds k/100; AUC is
the mean of that curve (percent). Precision counts center errors <= 20 px;
normalized precision scales the center error by the ground-truth box size
with threshold 0.2. Missing predictions score IoU 0 and center error inf.

A sequence of boxes is one type from simulator to scorer: `Boxes`, an
(n, 4) float64 array plus a presence mask. `sim.RunLog` exports its ground
truth and detections as `Boxes`, `format_boxes` writes them, `load_boxes`
parses a box file into them with one numpy text-reader call, and the one
scorer, `evaluate_pairs`, takes only them. It scores many sequences in one
array pass, and every curve is counted per sequence from a histogram of the
threshold index at which each frame starts or stops passing. The threshold
grids are uniform, so that index is computed from the grid and corrected by
one comparison on each side, not searched for. IoUs and center offsets keep
the float operations and their order of a per-box loop (min/max overlaps,
`core.box_center`). Center errors come from `np.hypot`, and `math.hypot`
recomputes those near a threshold, so every threshold count is the loop's,
though a raw error may differ in the last ulp. The reports, and so the
report and curves bytes, are bit-identical to that loop's;
`tests/test_metrics.py` keeps it verbatim as the `_ref_*` oracle.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .core import Box, ConfigError, EvaluationError
from .io_utils import read_utf8

SUCCESS_THRESHOLDS = np.array([k / 100.0 for k in range(101)])
PRECISION_THRESHOLDS = np.array([float(k) for k in range(51)])  # px
NORM_PRECISION_THRESHOLDS = np.array([k / 100.0 for k in range(51)])


@dataclass(frozen=True, eq=False)
class Boxes:
    """A sequence of boxes: (n, 4) float64 rows of x, y, w, h, and which rows hold a box."""

    xywh: np.ndarray
    present: np.ndarray  # bool, (n,)

    @classmethod
    def of(cls, boxes: list[Box | None]) -> Boxes:
        """The array form of a list of (x, y, w, h) boxes, None marking a miss."""
        present = np.array([b is not None for b in boxes], dtype=bool)
        rows = [(math.nan,) * 4 if b is None else b for b in boxes]
        return cls(np.array(rows, dtype=float).reshape(-1, 4), present)

    def __len__(self) -> int:
        return len(self.present)


def _overlaps(a0: np.ndarray, a_len: np.ndarray, b0: np.ndarray, b_len: np.ndarray) -> np.ndarray:
    """max(0.0, min(a0 + a_len, b0 + b_len) - max(a0, b0)) per element.

    np.where(b < a, b, a) is Python's min(a, b) and np.where(b > a, b, a) its
    max(a, b), NaN and signed zeros included; np.minimum and np.maximum
    differ from them on both.
    """
    a1, b1 = a0 + a_len, b0 + b_len
    d = np.where(b1 < a1, b1, a1) - np.where(b0 > a0, b0, a0)
    return np.where(d > 0.0, d, 0.0)


def _ious(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise IoU of two (n, 4) box arrays; 0 where the union is not positive."""
    with np.errstate(all="ignore"):  # inf and nan boxes score as Python floats do
        inter = _overlaps(a[:, 0], a[:, 2], b[:, 0], b[:, 2]) * _overlaps(a[:, 1], a[:, 3], b[:, 1], b[:, 3])
        union = a[:, 2] * a[:, 3] + b[:, 2] * b[:, 3] - inter
        # `union <= 0.0`, not `union > 0.0`: a nan union (an inf box) keeps inter / union.
        return np.where(union <= 0.0, 0.0, inter / union)


def _center_offsets(gt: np.ndarray, pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prediction center minus ground-truth center, per row, as core.box_center computes them."""
    with np.errstate(all="ignore"):
        dx = (pred[:, 0] + pred[:, 2] / 2.0) - (gt[:, 0] + gt[:, 2] / 2.0)
        dy = (pred[:, 1] + pred[:, 3] / 2.0) - (gt[:, 1] + gt[:, 3] / 2.0)
    return dx, dy


def _distances(dx: np.ndarray, dy: np.ndarray, hit: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Center errors where `hit`, inf elsewhere, that pass each threshold as math.hypot(dx, dy) does.

    np.hypot computes every error, and math.hypot recomputes the few that lie
    within a relative 1e-12 of a multiple of the grid step (every threshold is
    one), or are zero or not finite. The two hypots differ by a few ulps at
    most, so no threshold lies between them anywhere else: each `<=` count is
    math.hypot's, though a raw error may differ in the last ulp.
    """
    with np.errstate(all="ignore"):
        d = np.hypot(dx, dy)
        q = d / (thresholds[1] - thresholds[0])
        # nan fails every comparison, inf - inf is nan, and 0.0 > 0.0 fails: all three are redone.
        redo = np.flatnonzero(hit & ~(np.abs(q - np.rint(q)) > 1e-12 * q))
    d[redo] = list(map(math.hypot, dx[redo].tolist(), dy[redo].tolist()))
    return np.where(hit, d, math.inf)


def _first_passing(values: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """np.searchsorted(thresholds, values) for an ascending, uniformly spaced grid.

    The index of the first threshold >= each value is guessed from the grid,
    ceil((v - t0) / step), clipped to [0, len]: nan and inf go last, -inf
    first. The guess is off by at most one, where rounding puts a value and a
    threshold within an ulp or so of each other, so one comparison with the
    threshold on each side corrects it. The nan padding never compares true.
    """
    n = len(thresholds)
    with np.errstate(all="ignore"):
        guess = np.ceil((values - thresholds[0]) / (thresholds[1] - thresholds[0]))
    guess = np.where(guess < n, guess, n)
    first = np.where(guess > 0, guess, 0).astype(np.intp)
    first -= np.concatenate(([math.nan], thresholds))[first] >= values  # thresholds[first - 1] passes too
    first += np.concatenate((thresholds, [math.nan]))[first] < values  # thresholds[first] does not pass
    return first


def _pass_percents(values: np.ndarray, sizes: np.ndarray, thresholds: np.ndarray, at_least: bool = False) -> np.ndarray:
    """Percent of each sequence's values that pass each threshold, (len(sizes), len(thresholds)).

    `values` holds the sequences back to back, `sizes[s]` values each. A value
    passes t when value <= t, or value >= t with `at_least`; nan passes none.
    The thresholds ascend, so under <= a value passes a suffix of them (nan
    sorts last and passes the empty one), and under >= a prefix, counted as
    -value <= -t. A histogram per sequence of where each suffix starts,
    cumulated, counts every threshold at once. 100 * (count / n) is
    bit-identical to 100 * np.mean(values <= t), which sums exact 0/1 counts
    in float64 and divides once by n.
    """
    if at_least:
        values, thresholds = -values, -thresholds[::-1]
    width = len(thresholds) + 1
    first = _first_passing(values, thresholds)  # values[i] passes thresholds[first[i]:]
    offsets = np.repeat(np.arange(0, len(sizes) * width, width), sizes)
    hist = np.bincount(offsets + first, minlength=len(sizes) * width).reshape(len(sizes), width)
    counts = hist[:, :-1].cumsum(axis=1)
    if at_least:
        counts = counts[:, ::-1]
    return 100.0 * (counts / sizes[:, None])  # a new C-contiguous array, whatever the strides of counts


@dataclass(frozen=True)
class CostWeights:
    """Diagonal weights of the closed-loop tracking cost integrand."""

    q_pixel: tuple[float, float] = (1.0, 1.0)  # on (e_psi^2, e_y^2)
    q_distance: float = 0.04  # on e_d^2
    r_effort: tuple[float, float] = (1e-4, 1e-4)  # on (T1^2, T2^2)

    def __post_init__(self) -> None:
        object.__setattr__(self, "q_pixel", tuple(map(float, self.q_pixel)))
        object.__setattr__(self, "r_effort", tuple(map(float, self.r_effort)))
        if len(self.q_pixel) != 2 or len(self.r_effort) != 2:
            raise ConfigError("q_pixel and r_effort need 2 weights each")
        nonnegative = all(w >= 0.0 for w in (*self.q_pixel, self.q_distance))
        if not (nonnegative and all(w > 0.0 for w in self.r_effort)):
            raise ConfigError("q_pixel and q_distance must be >= 0 and r_effort > 0")


def tracking_cost(log, w: CostWeights) -> float:
    """Trapezoidal integral of the weighted error/effort quadratic over a run.

    `log` must expose uniformly sampled arrays t, e_psi, e_y, e_d, T1, T2
    (a RunLog does). Non-uniform timestamps raise EvaluationError.
    """
    t = np.asarray(log.t, dtype=float)
    if t.size < 2:
        raise EvaluationError("cost needs at least two samples")
    dts = np.diff(t)
    dt = dts[0]
    if not dt > 0.0 or np.any(np.abs(dts - dt) > 1e-9 * max(1.0, abs(dt))):
        raise EvaluationError("cost needs uniformly increasing timestamps")

    e_psi, e_y, e_d, T1, T2 = (np.asarray(getattr(log, c), float) for c in ("e_psi", "e_y", "e_d", "T1", "T2"))
    (q_psi, q_y), (r_1, r_2) = w.q_pixel, w.r_effort
    integrand = (
        ((e_psi * q_psi) * e_psi + (e_y * q_y) * e_y)
        + w.q_distance * e_d**2
        + ((T1 * r_1) * T1 + (T2 * r_2) * T2)
    )
    return float(dt * (integrand[0] / 2.0 + integrand[1:-1].sum() + integrand[-1] / 2.0))


@dataclass(eq=False)
class MetricReport:
    """Scalar metrics plus the curves behind them for one evaluation unit."""

    auc: float
    op50: float
    op75: float
    precision: float
    norm_precision: float
    n_frames: int
    success_curve: np.ndarray
    precision_curve: np.ndarray
    norm_precision_curve: np.ndarray


# The report's columns: the sequence name, then MetricReport's scalar fields
# in order, n_frames last. The *_curve fields go to the curves CSV.
_SCALARS = tuple(f.name for f in dataclasses.fields(MetricReport) if not f.name.endswith("_curve"))
REPORT_COLUMNS = ("sequence", *_SCALARS)

# The curves CSV's curves: (curve name, MetricReport field, threshold cells formatted once).
_CURVES = (
    ("success", "success_curve", [f"{t:.2f}" for t in SUCCESS_THRESHOLDS.tolist()]),
    ("precision", "precision_curve", [f"{t:.0f}" for t in PRECISION_THRESHOLDS.tolist()]),
    ("norm_precision", "norm_precision_curve", [f"{t:.2f}" for t in NORM_PRECISION_THRESHOLDS.tolist()]),
)


def evaluate_pairs(pairs: Iterable[tuple[Boxes, Boxes]]) -> list[MetricReport]:
    """Score each (ground truth, predictions) pair, all pairs in one array pass.

    Lengths must match. Frames with missing ground truth (target out of
    view) are excluded from scoring; missing predictions on scored frames
    count as IoU 0 / center error inf. Each pair is checked as it is drawn,
    so a bad pair raises before a lazy `pairs` reads the next one.
    """
    gts, preds, sizes = [], [], []
    for gt, pred in pairs:
        if len(gt) != len(pred):
            raise EvaluationError(f"frame count mismatch: gt {len(gt)} vs pred {len(pred)}")
        n_kept = np.count_nonzero(gt.present)
        if n_kept == 0:
            raise EvaluationError("no frames with ground truth to evaluate")
        bad = gt.present & ((gt.xywh[:, 2] <= 0.0) | (gt.xywh[:, 3] <= 0.0))
        if bad.any():
            k = int(bad.argmax())
            box = tuple(gt.xywh[k].tolist())
            raise EvaluationError(f"frame {np.count_nonzero(gt.present[:k])}: degenerate ground-truth box (x, y, w, h) = {box}")
        gts.append(gt)
        preds.append(pred)
        sizes.append(n_kept)
    if not sizes:
        return []
    kept = np.concatenate([gt.present for gt in gts])
    g = np.concatenate([gt.xywh for gt in gts])[kept]
    p = np.concatenate([pred.xywh for pred in preds])[kept]
    hit = np.concatenate([pred.present for pred in preds])[kept]
    sizes = np.array(sizes)

    ious = np.where(hit, _ious(g, p), 0.0)
    dx, dy = _center_offsets(g, p)
    with np.errstate(all="ignore"):
        norm_dx, norm_dy = dx / g[:, 2], dy / g[:, 3]
    success = _pass_percents(ious, sizes, SUCCESS_THRESHOLDS, at_least=True)
    precision = _pass_percents(_distances(dx, dy, hit, PRECISION_THRESHOLDS), sizes, PRECISION_THRESHOLDS)
    norm_errors = _distances(norm_dx, norm_dy, hit, NORM_PRECISION_THRESHOLDS)
    norm_precision = _pass_percents(norm_errors, sizes, NORM_PRECISION_THRESHOLDS)
    aucs = success.mean(axis=1)  # each the mean of one C-contiguous row, as np.mean(curve) is
    # The other scalars are curve columns: SUCCESS_THRESHOLDS[50] == 0.5 and
    # [75] == 0.75, PRECISION_THRESHOLDS[20] == 20.0 px, NORM_PRECISION_THRESHOLDS[20] == 0.2.
    scalars = (aucs, success[:, 50], success[:, 75], precision[:, 20], norm_precision[:, 20], sizes)
    # One row per sequence, in MetricReport's field order.
    rows = zip(*(c.tolist() for c in scalars), success, precision, norm_precision)
    return [MetricReport(*row) for row in rows]


def evaluate_boxes(gt: Boxes, pred: Boxes) -> MetricReport:
    """Score one sequence of predictions against ground truth: `evaluate_pairs` of one pair."""
    return evaluate_pairs([(gt, pred)])[0]


def aggregate_reports(reports: list[MetricReport]) -> MetricReport:
    """Unweighted mean of per-sequence metrics (curves included); n_frames is summed."""
    if not reports:
        raise EvaluationError("nothing to aggregate")
    agg = {}
    for f in dataclasses.fields(MetricReport):
        values = [getattr(r, f.name) for r in reports]
        mean = sum(values) if f.name == "n_frames" else np.mean(values, axis=0)
        agg[f.name] = float(mean) if isinstance(mean, np.floating) else mean
    return MetricReport(**agg)


# --- box-file and report IO ---------------------------------------------


def load_boxes(path) -> Boxes:
    """Read one box per line (`x,y,w,h`; `nan,nan,nan,nan` marks a miss).

    The file is read as UTF-8. Fields may be separated by commas, tabs or
    spaces, and blank lines are skipped. The whole file is parsed in one
    pass; a file that fails any check is parsed again line by line, which
    names the first bad line.
    """
    text = read_utf8(path, EvaluationError)
    boxes = _parse_whole(text)
    return boxes if boxes is not None else _parse_lines(path, text.split("\n"))


def _parse_whole(text: str) -> Boxes | None:
    """Parse a well-formed box file with numpy's C reader; None when any check fails.

    The reader splits fields on the whitespace str.split splits on, and
    converts each with PyOS_string_to_double, the routine behind float().
    Where they differ it refuses: float() also takes `1_0` and non-ASCII
    digits, and those files go to the line loop. The reader skips a line of
    whitespace or separators only, which the line loop skips or rejects, so
    every non-empty line must give a row, or the line loop decides.
    """
    fields = text.replace(",", " ")
    if not fields.strip():
        return None  # loadtxt warns on input without rows
    rows = fields.split("\n")
    try:
        xywh = np.loadtxt(rows, comments=None, ndmin=2)
    except ValueError:
        return None
    if xywh.shape != (len(rows) - rows.count(""), 4):
        return None
    nan = np.isnan(xywh)
    miss = nan[:, 0]
    if (nan != miss[:, None]).any() or (xywh[:, 2:] < 0.0).any():
        return None  # a partly nan box, or a negative size
    return Boxes(xywh, ~miss)


def _parse_lines(path, lines: list[str]) -> Boxes:
    """Line-by-line parse that raises EvaluationError for the first bad line."""
    rows: list[list[float]] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        fields = line.replace(",", " ").replace("\t", " ").split()
        if len(fields) != 4:
            raise EvaluationError(f"{path}:{lineno}: expected 4 fields, got {len(fields)}")
        try:
            values = [float(v) for v in fields]
        except ValueError as exc:
            raise EvaluationError(f"{path}:{lineno}: {exc}") from None
        nans = [math.isnan(v) for v in values]
        if any(nans) and not all(nans):
            raise EvaluationError(f"{path}:{lineno}: partial nan box")
        w, h = values[2:]
        if w < 0.0 or h < 0.0:  # a negative size is no box; nan passes this check
            raise EvaluationError(f"{path}:{lineno}: box size must be non-negative: w={w}, h={h}")
        rows.append(values)
    if not rows:
        raise EvaluationError(f"{path}: no boxes found")
    xywh = np.array(rows)
    return Boxes(xywh, ~np.isnan(xywh[:, 0]))


def format_boxes(boxes: Boxes) -> str:
    """One `x,y,w,h` line per box with six decimals; `nan,nan,nan,nan` marks a miss."""
    lines = [
        f"{x:.6f},{y:.6f},{w:.6f},{h:.6f}" if hit else "nan,nan,nan,nan"
        for (x, y, w, h), hit in zip(boxes.xywh.tolist(), boxes.present.tolist())
    ]
    return "\n".join(lines) + "\n"


def evaluate_sequence(gt_path, pred_path) -> MetricReport:
    """Score a prediction file against a ground-truth file."""
    return evaluate_boxes(load_boxes(gt_path), load_boxes(pred_path))


def format_report(rows: list[tuple[str, MetricReport]], extra: dict[str, list[float]] | None = None) -> str:
    """Render report rows as CSV in the fixed column order, every metric to four decimals.

    `extra` maps an additional column name to per-row values (used for the
    relative-to-best aggregate column).
    """
    extra = extra or {}
    lines = [",".join([*REPORT_COLUMNS, *extra])]
    for idx, (name, r) in enumerate(rows):
        cells = [name, *(f"{getattr(r, c):.4f}" for c in _SCALARS[:-1]), str(r.n_frames)]
        cells += [f"{values[idx]:.4f}" for values in extra.values()]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def format_curves(rows: list[tuple[str, MetricReport]]) -> str:
    """Long-form CSV of the success/precision/normalized-precision curves."""
    lines = ["sequence,curve,threshold,value"]
    # tolist() gives Python floats, which format faster than numpy scalars.
    for name, r in rows:
        for curve, attr, taus in _CURVES:
            lines += [f"{name},{curve},{tau},{v:.4f}" for tau, v in zip(taus, getattr(r, attr).tolist())]
    return "\n".join(lines) + "\n"
