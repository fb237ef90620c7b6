"""Offline benchmark metrics for box tracking plus the closed-loop cost.

Conventions: success uses IoU >= threshold over 101 thresholds k/100; AUC is
the mean of that curve (percent). Precision counts center errors <= 20 px;
normalized precision scales the center error by the ground-truth box size
with threshold 0.2. Missing predictions score IoU 0 and center error inf.

Scoring works on arrays: a sequence's boxes are one (n, 4) float64 array
plus a presence mask (`Boxes`), each box file is parsed in one pass, and
each curve is one broadcast comparison. Every array step keeps the float
operations and their order of the per-box formulas (`iou`,
`BoundingBox.center`, `math.hypot`), so scores are bit-identical to a
per-box loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .core import BoundingBox, ConfigError, EvaluationError

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
    def of(cls, boxes) -> Boxes:
        """`boxes` itself if it is a Boxes, else the array form of a list of BoundingBox | None."""
        if isinstance(boxes, Boxes):
            return boxes
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
    return np.where(hit, list(map(math.hypot, dx.tolist(), dy.tolist())), math.inf)


def _normalized_distances(gt: np.ndarray, dx: np.ndarray, dy: np.ndarray, hit: np.ndarray) -> np.ndarray:
    with np.errstate(all="ignore"):
        return _distances(dx / gt[:, 2], dy / gt[:, 3], hit)


def _degenerate(gt: np.ndarray) -> np.ndarray:
    return (gt[:, 2] <= 0.0) | (gt[:, 3] <= 0.0)


def _percent(hits: np.ndarray) -> np.ndarray:
    """100 * (count / n) of True along the last axis.

    Bit-identical to 100 * np.mean(hits): the mean of a bool array sums exact
    0/1 counts in float64 and divides once by n.
    """
    return 100.0 * (hits.sum(axis=-1) / hits.shape[-1])


def _nonempty(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise EvaluationError("cannot evaluate an empty sequence")
    return values


def success_curve(ious: np.ndarray) -> np.ndarray:
    """Percent of frames with IoU >= tau for the 101 standard thresholds."""
    return _percent(_nonempty(ious) >= SUCCESS_THRESHOLDS[:, None])


def success_auc(ious: np.ndarray) -> tuple[np.ndarray, float]:
    """Success curve plus its area: the mean over the 101 thresholds, in percent."""
    curve = success_curve(ious)
    return curve, float(np.mean(curve))


def op_at(ious: np.ndarray, tau: float) -> float:
    """Overlap precision: percent of frames with IoU >= tau."""
    return float(_percent(_nonempty(ious) >= tau))


def precision_at(center_errors: np.ndarray, tau_px: float = 20.0) -> float:
    """Percent of frames with center error <= tau_px (inf never counts)."""
    return float(_percent(_nonempty(center_errors) <= tau_px))


def _check_lengths(gt: Boxes, pred: Boxes) -> None:
    if len(gt) != len(pred):
        raise EvaluationError(f"frame count mismatch: gt {len(gt)} vs pred {len(pred)}")


def norm_center_errors(
    gt: list[BoundingBox | None] | Boxes, pred: list[BoundingBox | None] | Boxes
) -> np.ndarray:
    """Center errors scaled per-axis by the ground-truth box size.

    Missing predictions give inf. A missing ground-truth box, or one with
    zero width or height, cannot normalize and raises EvaluationError.
    """
    g, p = Boxes.of(gt), Boxes.of(pred)
    _check_lengths(g, p)
    bad = ~g.present | _degenerate(g.xywh)
    if bad.any():
        k = int(bad.argmax())
        if not g.present[k]:
            raise EvaluationError(f"frame {k}: missing ground truth cannot be normalized")
        raise EvaluationError(f"frame {k}: degenerate ground-truth box {gt[k]}")
    return _normalized_distances(g.xywh, *_center_offsets(g.xywh, p.xywh), p.present)


def _norm_precision(errors: np.ndarray, tau: float) -> tuple[float, np.ndarray]:
    errors = _nonempty(errors)
    return float(_percent(errors <= tau)), _percent(errors <= NORM_PRECISION_THRESHOLDS[:, None])


def norm_precision_at(
    gt: list[BoundingBox | None] | Boxes,
    pred: list[BoundingBox | None] | Boxes,
    tau: float = 0.2,
) -> tuple[float, np.ndarray]:
    """Normalized precision at tau plus its 51-point curve over [0, 0.5]."""
    return _norm_precision(norm_center_errors(gt, pred), tau)


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


def evaluate_boxes(
    gt: list[BoundingBox | None] | Boxes, pred: list[BoundingBox | None] | Boxes
) -> MetricReport:
    """Score one sequence of predictions against ground truth.

    Lengths must match. Frames with missing ground truth (target out of
    view) are excluded from scoring; missing predictions on scored frames
    count as IoU 0 / center error inf.
    """
    gt_boxes, pred_boxes = Boxes.of(gt), Boxes.of(pred)
    _check_lengths(gt_boxes, pred_boxes)
    kept = np.flatnonzero(gt_boxes.present)
    if kept.size == 0:
        raise EvaluationError("no frames with ground truth to evaluate")
    g = gt_boxes.xywh[kept]
    p = pred_boxes.xywh[kept]
    hit = pred_boxes.present[kept]
    bad = _degenerate(g)
    if bad.any():
        k = int(bad.argmax())
        raise EvaluationError(f"frame {k}: degenerate ground-truth box {gt[kept[k]]}")

    ious = np.where(hit, _ious(g, p), 0.0)
    dx, dy = _center_offsets(g, p)
    center_err = _distances(dx, dy, hit)
    s_curve, auc = success_auc(ious)
    norm_prec, np_curve = _norm_precision(_normalized_distances(g, dx, dy, hit), 0.2)
    return MetricReport(
        auc=auc,
        op50=op_at(ious, 0.5),
        op75=op_at(ious, 0.75),
        precision=precision_at(center_err),
        norm_precision=norm_prec,
        n_frames=int(kept.size),
        success_curve=s_curve,
        precision_curve=_percent(center_err <= PRECISION_THRESHOLDS[:, None]),
        norm_precision_curve=np_curve,
    )


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
    spaces, and empty lines are skipped. The whole file is parsed in one
    pass; a file that fails any check is parsed again line by line, which
    names the first bad line.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise EvaluationError(f"{path}: not UTF-8 text ({exc.reason})") from None
    lines = text.split("\n")
    boxes = _parse_whole(text, lines)
    return boxes if boxes is not None else Boxes.of(_parse_lines(path, lines))


def _parse_whole(text: str, lines: list[str]) -> Boxes | None:
    """One-pass parse of a well-formed box file; None when any check fails."""
    rows = list(map(str.split, text.replace(",", " ").replace("\t", " ").split("\n")))
    fields = [row for row in rows if row]
    # Every field-less line must be empty, and every other line hold 4 fields.
    if len(rows) - len(fields) != lines.count("") or set(map(len, fields)) != {4}:
        return None
    try:
        values = np.fromiter(map(float, chain.from_iterable(fields)), float, count=4 * len(fields))
    except ValueError:
        return None
    xywh = values.reshape(-1, 4)
    n_nan = np.isnan(xywh).sum(axis=1)
    present = n_nan == 0
    if (n_nan[~present] < 4).any() or (xywh[present, 2:] < 0.0).any():
        return None  # a partly nan box, or a negative size
    return Boxes(xywh, present)


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


def format_boxes(boxes: list[BoundingBox | None]) -> str:
    lines = []
    for b in boxes:
        if b is None:
            lines.append("nan,nan,nan,nan")
        else:
            lines.append(f"{b.x:.6f},{b.y:.6f},{b.w:.6f},{b.h:.6f}")
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
