"""Offline benchmark metrics for box tracking plus the closed-loop cost.

Conventions: success uses IoU >= threshold over 101 thresholds k/100; AUC is
the mean of that curve (percent). Precision counts center errors <= 20 px;
normalized precision scales the center error by the ground-truth box size
with threshold 0.2. Missing predictions score IoU 0 and center error inf.

A sequence of boxes is one type from simulator to scorer: `Boxes`, an
(n, 4) float64 array plus a presence mask. `sim.RunLog` exports its ground
truth and detections as `Boxes`, `format_boxes` writes them, `load_boxes`
parses a box file into them with one numpy text-reader call, and the scorers
take only them. `evaluate_pairs` scores many sequences in one array pass, and
every curve is counted per sequence from a histogram of the threshold index
at which each frame starts or stops passing. Every array step keeps the float
operations and their order of the per-box formulas (`iou`,
`BoundingBox.center`, `math.hypot`), so scores are bit-identical to a
per-box loop.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .core import BoundingBox, ConfigError, EvaluationError
from .io_utils import read_utf8

SUCCESS_THRESHOLDS = np.array([k / 100.0 for k in range(101)])
PRECISION_THRESHOLDS = np.array([float(k) for k in range(51)])  # px
NORM_PRECISION_THRESHOLDS = np.array([k / 100.0 for k in range(51)])

REPORT_COLUMNS = ("sequence", "auc", "op50", "op75", "precision", "norm_precision", "n_frames")


@dataclass(frozen=True, eq=False)
class Boxes:
    """A sequence of boxes: (n, 4) float64 rows of x, y, w, h, and which rows hold a box.

    Indexing gives the k-th box as a BoundingBox, or None for a miss.
    """

    xywh: np.ndarray
    present: np.ndarray  # bool, (n,)

    @classmethod
    def of(cls, boxes: list[BoundingBox | None]) -> Boxes:
        """The array form of a list of BoundingBox | None (None marks a miss)."""
        present = np.array([b is not None for b in boxes], dtype=bool)
        rows = [(math.nan,) * 4 if b is None else (b.x, b.y, b.w, b.h) for b in boxes]
        return cls(np.array(rows, dtype=float).reshape(-1, 4), present)

    def __len__(self) -> int:
        return len(self.present)

    def __getitem__(self, k: int) -> BoundingBox | None:
        return BoundingBox(*self.xywh[k].tolist()) if self.present[k] else None


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


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes; 0 when the union is empty."""
    return float(_ious(Boxes.of([a]).xywh, Boxes.of([b]).xywh)[0])


def _center_offsets(gt: np.ndarray, pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prediction center minus ground-truth center, per row, as BoundingBox.center computes them."""
    with np.errstate(all="ignore"):
        dx = (pred[:, 0] + pred[:, 2] / 2.0) - (gt[:, 0] + gt[:, 2] / 2.0)
        dy = (pred[:, 1] + pred[:, 3] / 2.0) - (gt[:, 1] + gt[:, 3] / 2.0)
    return dx, dy


def _distances(dx: np.ndarray, dy: np.ndarray, hit: np.ndarray) -> np.ndarray:
    """math.hypot(dx, dy) where `hit`, inf elsewhere.

    np.hypot differs from math.hypot in the last ulp on some inputs, and one
    ulp can move a frame across a `<=` threshold, so the scalar stays.
    """
    return np.where(hit, np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()), float, len(dx)), math.inf)


def _normalized_distances(gt: np.ndarray, dx: np.ndarray, dy: np.ndarray, hit: np.ndarray) -> np.ndarray:
    with np.errstate(all="ignore"):
        return _distances(dx / gt[:, 2], dy / gt[:, 3], hit)


def _degenerate(gt: np.ndarray) -> np.ndarray:
    return (gt[:, 2] <= 0.0) | (gt[:, 3] <= 0.0)


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
    first = np.searchsorted(thresholds, values)  # values[i] passes thresholds[first[i]:]
    offsets = np.repeat(np.arange(0, len(sizes) * width, width), sizes)
    hist = np.bincount(offsets + first, minlength=len(sizes) * width).reshape(len(sizes), width)
    counts = hist[:, :-1].cumsum(axis=1)
    if at_least:
        counts = counts[:, ::-1]
    return 100.0 * (counts / sizes[:, None])  # a new C-contiguous array, whatever the strides of counts


def _percents(values, thresholds: np.ndarray, at_least: bool = False) -> np.ndarray:
    """One sequence's percent of values passing each threshold; an empty one raises EvaluationError."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise EvaluationError("cannot evaluate an empty sequence")
    percents = _pass_percents(values, np.array([values.size]), thresholds, at_least)[0]
    percents[np.isnan(thresholds)] = 0.0  # no value compares true with nan; searchsorted would pass them all
    return percents


def success_curve(ious: np.ndarray) -> np.ndarray:
    """Percent of frames with IoU >= tau for the 101 standard thresholds."""
    return _percents(ious, SUCCESS_THRESHOLDS, at_least=True)


def success_auc(ious: np.ndarray) -> tuple[np.ndarray, float]:
    """Success curve plus its area: the mean over the 101 thresholds, in percent."""
    curve = success_curve(ious)
    return curve, float(np.mean(curve))


def op_at(ious: np.ndarray, tau: float) -> float:
    """Overlap precision: percent of frames with IoU >= tau."""
    return float(_percents(ious, np.array([tau]), at_least=True)[0])


def precision_at(center_errors: np.ndarray, tau_px: float = 20.0) -> float:
    """Percent of frames with center error <= tau_px (inf never counts)."""
    return float(_percents(center_errors, np.array([tau_px]))[0])


def _check_lengths(gt: Boxes, pred: Boxes) -> None:
    if len(gt) != len(pred):
        raise EvaluationError(f"frame count mismatch: gt {len(gt)} vs pred {len(pred)}")


def norm_center_errors(gt: Boxes, pred: Boxes) -> np.ndarray:
    """Center errors scaled per-axis by the ground-truth box size.

    Missing predictions give inf. A missing ground-truth box, or one with
    zero width or height, cannot normalize and raises EvaluationError.
    """
    _check_lengths(gt, pred)
    bad = ~gt.present | _degenerate(gt.xywh)
    if bad.any():
        k = int(bad.argmax())
        if not gt.present[k]:
            raise EvaluationError(f"frame {k}: missing ground truth cannot be normalized")
        raise EvaluationError(f"frame {k}: degenerate ground-truth box {gt[k]}")
    return _normalized_distances(gt.xywh, *_center_offsets(gt.xywh, pred.xywh), pred.present)


def norm_precision_at(gt: Boxes, pred: Boxes, tau: float = 0.2) -> tuple[float, np.ndarray]:
    """Normalized precision at tau plus its 51-point curve over [0, 0.5]."""
    errors = norm_center_errors(gt, pred)
    return float(_percents(errors, np.array([tau]))[0]), _percents(errors, NORM_PRECISION_THRESHOLDS)


@dataclass(frozen=True)
class CostWeights:
    """Weights of the closed-loop tracking cost integrand."""

    Q_pixel: np.ndarray = field(default_factory=lambda: np.eye(2))  # on (e_psi, e_y)
    Q_distance: float = 0.04  # on e_d^2
    R_effort: np.ndarray = field(default_factory=lambda: 1e-4 * np.eye(2))  # on (T1, T2)

    def __post_init__(self) -> None:
        Qp = np.asarray(self.Q_pixel, dtype=float)
        Re = np.asarray(self.R_effort, dtype=float)
        object.__setattr__(self, "Q_pixel", Qp)
        object.__setattr__(self, "R_effort", Re)
        if Qp.shape != (2, 2) or Re.shape != (2, 2):
            raise ConfigError("Q_pixel and R_effort must be 2x2")
        if not np.allclose(Qp, Qp.T) or np.linalg.eigvalsh(Qp).min() < -1e-12:
            raise ConfigError("Q_pixel must be symmetric PSD")
        if not np.allclose(Re, Re.T) or np.linalg.eigvalsh(Re).min() <= 0.0:
            raise ConfigError("R_effort must be symmetric PD")
        if self.Q_distance < 0.0:
            raise ConfigError("Q_distance must be >= 0")


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

    e_body = np.stack([np.asarray(log.e_psi, float), np.asarray(log.e_y, float)])
    effort = np.stack([np.asarray(log.T1, float), np.asarray(log.T2, float)])
    integrand = (
        np.einsum("it,ij,jt->t", e_body, w.Q_pixel, e_body)
        + w.Q_distance * np.asarray(log.e_d, float) ** 2
        + np.einsum("it,ij,jt->t", effort, w.R_effort, effort)
    )
    return float(dt * (integrand[0] / 2.0 + integrand[1:-1].sum() + integrand[-1] / 2.0))


@dataclass
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


def evaluate_pairs(pairs: Iterable[tuple[Boxes, Boxes]]) -> list[MetricReport]:
    """Score each (ground truth, predictions) pair, all pairs in one array pass.

    Lengths must match. Frames with missing ground truth (target out of
    view) are excluded from scoring; missing predictions on scored frames
    count as IoU 0 / center error inf. Each pair is checked as it is drawn,
    so a bad pair raises before a lazy `pairs` reads the next one.
    """
    gts, preds, sizes = [], [], []
    for gt, pred in pairs:
        _check_lengths(gt, pred)
        n_kept = np.count_nonzero(gt.present)
        if n_kept == 0:
            raise EvaluationError("no frames with ground truth to evaluate")
        bad = gt.present & _degenerate(gt.xywh)
        if bad.any():
            k = int(bad.argmax())
            raise EvaluationError(f"frame {np.count_nonzero(gt.present[:k])}: degenerate ground-truth box {gt[k]}")
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
    success = _pass_percents(ious, sizes, SUCCESS_THRESHOLDS, at_least=True)
    precision = _pass_percents(_distances(dx, dy, hit), sizes, PRECISION_THRESHOLDS)
    norm_precision = _pass_percents(_normalized_distances(g, dx, dy, hit), sizes, NORM_PRECISION_THRESHOLDS)
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
    """Unweighted mean of per-sequence metrics (curves included)."""
    if not reports:
        raise EvaluationError("nothing to aggregate")
    return MetricReport(
        auc=float(np.mean([r.auc for r in reports])),
        op50=float(np.mean([r.op50 for r in reports])),
        op75=float(np.mean([r.op75 for r in reports])),
        precision=float(np.mean([r.precision for r in reports])),
        norm_precision=float(np.mean([r.norm_precision for r in reports])),
        n_frames=int(sum(r.n_frames for r in reports)),
        success_curve=np.mean([r.success_curve for r in reports], axis=0),
        precision_curve=np.mean([r.precision_curve for r in reports], axis=0),
        norm_precision_curve=np.mean([r.norm_precision_curve for r in reports], axis=0),
    )


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
    return boxes if boxes is not None else Boxes.of(_parse_lines(path, text.split("\n")))


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


def _parse_lines(path, lines: list[str]) -> list[BoundingBox | None]:
    """Line-by-line parse that raises EvaluationError for the first bad line."""
    boxes: list[BoundingBox | None] = []
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
        if all(nans):
            boxes.append(None)
        elif any(nans):
            raise EvaluationError(f"{path}:{lineno}: partial nan box")
        else:
            try:
                boxes.append(BoundingBox(*values))
            except ValueError as exc:
                raise EvaluationError(f"{path}:{lineno}: {exc}") from None
    if not boxes:
        raise EvaluationError(f"{path}: no boxes found")
    return boxes


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
    """Render report rows as CSV in the fixed column order.

    `extra` maps an additional column name to per-row values (used for the
    relative-to-best aggregate column).
    """
    header = list(REPORT_COLUMNS)
    extra = extra or {}
    for name in extra:
        header.append(name)
    lines = [",".join(header)]
    for idx, (name, r) in enumerate(rows):
        cells = [
            name,
            f"{r.auc:.4f}",
            f"{r.op50:.4f}",
            f"{r.op75:.4f}",
            f"{r.precision:.4f}",
            f"{r.norm_precision:.4f}",
            str(r.n_frames),
        ]
        for col in extra:
            cells.append(f"{extra[col][idx]:.4f}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def format_curves(rows: list[tuple[str, MetricReport]]) -> str:
    """Long-form CSV of the success/precision/normalized-precision curves."""
    lines = ["sequence,curve,threshold,value"]
    # tolist() gives Python floats, which format faster than numpy scalars.
    for name, r in rows:
        for tau, v in zip(SUCCESS_THRESHOLDS.tolist(), r.success_curve.tolist()):
            lines.append(f"{name},success,{tau:.2f},{v:.4f}")
        for tau, v in zip(PRECISION_THRESHOLDS.tolist(), r.precision_curve.tolist()):
            lines.append(f"{name},precision,{tau:.0f},{v:.4f}")
        for tau, v in zip(NORM_PRECISION_THRESHOLDS.tolist(), r.norm_precision_curve.tolist()):
            lines.append(f"{name},norm_precision,{tau:.2f},{v:.4f}")
    return "\n".join(lines) + "\n"
