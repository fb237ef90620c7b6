"""Overlap/precision metrics, the integrated tracking cost, and box-file round trips."""

import math
import os
import tempfile
import threading
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helm_bench import metrics
from helm_bench.cli import main
from helm_bench.core import BoundingBox, EvaluationError
from helm_bench.metrics import (
    NORM_PRECISION_THRESHOLDS,
    PRECISION_THRESHOLDS,
    REPORT_COLUMNS,
    SUCCESS_THRESHOLDS,
    Boxes,
    CostWeights,
    MetricReport,
    aggregate_reports,
    evaluate_boxes,
    evaluate_pairs,
    evaluate_sequence,
    format_boxes,
    format_curves,
    format_report,
    iou,
    load_boxes,
    norm_center_errors,
    norm_precision_at,
    op_at,
    precision_at,
    success_auc,
    success_curve,
    tracking_cost,
)


def random_box(rng) -> BoundingBox:
    return BoundingBox(rng.uniform(-50, 50), rng.uniform(-50, 50),
                       rng.uniform(0, 30), rng.uniform(0, 30))


class TestIou:
    def test_identical(self):
        b = BoundingBox(3.0, 4.0, 10.0, 5.0)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(BoundingBox(0, 0, 2, 2), BoundingBox(10, 10, 2, 2)) == 0.0

    def test_quarter_overlap(self):
        # intersection 1, union 4 + 4 - 1 = 7
        val = iou(BoundingBox(0, 0, 2, 2), BoundingBox(1, 1, 2, 2))
        assert val == pytest.approx(1.0 / 7.0, abs=1e-12)

    def test_integer_pixel_count_cross_check(self):
        a, b = BoundingBox(0, 0, 2, 2), BoundingBox(1, 1, 2, 2)
        # count unit cells on a fine grid covering both boxes
        n = 400  # cells per unit
        xs = (np.arange(3 * n) + 0.5) / n
        ys = (np.arange(3 * n) + 0.5) / n
        X, Y = np.meshgrid(xs, ys)
        in_a = (X > a.x) & (X < a.x + a.w) & (Y > a.y) & (Y < a.y + a.h)
        in_b = (X > b.x) & (X < b.x + b.w) & (Y > b.y) & (Y < b.y + b.h)
        approx = in_a.__and__(in_b).sum() / (in_a | in_b).sum()
        assert iou(a, b) == pytest.approx(approx, abs=1e-3)

    def test_zero_area_union(self):
        z = BoundingBox(0, 0, 0, 0)
        assert iou(z, z) == 0.0

    def test_symmetry_and_range_fuzz(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            a, b = random_box(rng), random_box(rng)
            v = iou(a, b)
            assert v == iou(b, a)
            assert 0.0 <= v <= 1.0


class TestSuccess:
    def test_perfect_tracker(self):
        curve, auc = success_auc(np.ones(10))
        assert auc == 100.0
        assert np.all(curve == 100.0)

    def test_all_zero_overlap(self):
        _, auc = success_auc(np.zeros(10))
        assert auc == pytest.approx(100.0 / 101.0, abs=1e-12)

    def test_single_half_overlap(self):
        _, auc = success_auc(np.array([0.5]))
        assert auc == pytest.approx(51.0 / 101.0 * 100.0, abs=1e-12)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        ious = rng.uniform(0, 1, size=777)
        curve, auc = success_auc(ious)
        want = [100.0 * sum(1 for v in ious if v >= k / 100.0) / len(ious) for k in range(101)]
        assert np.allclose(curve, want, atol=0)
        assert auc == pytest.approx(float(np.mean(want)), abs=1e-12)

    def test_curve_non_increasing(self):
        curve = success_curve(np.random.default_rng(1).uniform(0, 1, 200))
        assert np.all(np.diff(curve) <= 0.0)

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            success_auc(np.array([]))


class TestOpAt:
    def test_examples(self):
        assert op_at(np.array([0.6, 0.8]), 0.5) == 100.0
        assert op_at(np.array([0.6, 0.8]), 0.75) == 50.0
        assert op_at(np.array([0.5]), 0.5) == 100.0  # boundary counts
        assert op_at(np.array([0.6, 0.8]), math.nan) == 0.0

    def test_op50_dominates_op75(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            ious = rng.uniform(0, 1, size=rng.integers(1, 60))
            assert op_at(ious, 0.5) >= op_at(ious, 0.75)


class TestPrecision:
    def test_examples(self):
        assert precision_at(np.zeros(5)) == 100.0
        assert precision_at(np.array([10.0, 30.0])) == 50.0
        assert precision_at(np.array([math.inf, 5.0])) == 50.0
        assert precision_at(np.array([math.inf, 5.0]), math.nan) == 0.0

    def test_boundary_counts(self):
        assert precision_at(np.array([20.0])) == 100.0

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            precision_at(np.array([]))


class TestNormPrecision:
    def test_perfect_centers(self):
        gt = [BoundingBox(0, 0, 10, 10)] * 4
        value, curve = norm_precision_at(Boxes.of(gt), Boxes.of(gt))
        assert value == 100.0
        assert curve.shape == (51,)

    def test_hand_arithmetic_counts(self):
        gt = [BoundingBox(100, 100, 50, 40)]
        pred = [BoundingBox(105, 104, 50, 40)]  # center offset (5, 4)
        errs = norm_center_errors(Boxes.of(gt), Boxes.of(pred))
        assert errs[0] == pytest.approx(math.hypot(5 / 50, 4 / 40), abs=1e-12)
        value, _ = norm_precision_at(Boxes.of(gt), Boxes.of(pred))
        assert value == 100.0

    def test_hand_arithmetic_excluded(self):
        gt = [BoundingBox(100, 100, 50, 40)]
        pred = [BoundingBox(125, 100, 50, 40)]  # offset (25, 0): e = 0.5
        value, _ = norm_precision_at(Boxes.of(gt), Boxes.of(pred))
        assert value == 0.0

    def test_degenerate_gt_rejected(self):
        gt = [BoundingBox(0, 0, 0, 10)]
        with pytest.raises(EvaluationError):
            norm_center_errors(Boxes.of(gt), Boxes.of([BoundingBox(0, 0, 10, 10)]))

    def test_missing_prediction_is_infinite(self):
        errs = norm_center_errors(Boxes.of([BoundingBox(0, 0, 10, 10)]), Boxes.of([None]))
        assert errs[0] == math.inf


def constant_log(n=101, dt=0.02, e_psi=0.0, e_y=0.0, e_d=0.0, T1=0.0, T2=0.0):
    return SimpleNamespace(
        t=np.arange(n) * dt,
        e_psi=np.full(n, e_psi),
        e_y=np.full(n, e_y),
        e_d=np.full(n, e_d),
        T1=np.full(n, T1),
        T2=np.full(n, T2),
    )


class TestTrackingCost:
    def test_zero_log(self):
        assert tracking_cost(constant_log(), CostWeights()) == 0.0

    def test_hand_trapezoid_of_constant(self):
        w = CostWeights(Q_pixel=np.eye(2), Q_distance=1.0, R_effort=1e-4 * np.eye(2))
        log = constant_log(n=201, dt=0.01, e_psi=1.0, e_d=2.0)  # 2 s span
        assert tracking_cost(log, w) == pytest.approx(10.0, abs=1e-9)  # (1+4)*2

    def test_effort_term_linear_in_weight(self):
        base = CostWeights(Q_pixel=np.zeros((2, 2)), Q_distance=0.0, R_effort=np.eye(2))
        double = CostWeights(Q_pixel=np.zeros((2, 2)), Q_distance=0.0, R_effort=2 * np.eye(2))
        log = constant_log(e_psi=0.3, T1=2.0, T2=-1.0)
        assert tracking_cost(log, double) == pytest.approx(2 * tracking_cost(log, base))

    def test_trapezoid_matches_numpy_oracle(self):
        rng = np.random.default_rng(9)
        n = 400
        log = SimpleNamespace(
            t=np.arange(n) * 0.02,
            e_psi=rng.normal(size=n),
            e_y=rng.normal(size=n),
            e_d=rng.normal(size=n),
            T1=rng.normal(size=n),
            T2=rng.normal(size=n),
        )
        w = CostWeights()
        e = np.stack([log.e_psi, log.e_y])
        u = np.stack([log.T1, log.T2])
        integrand = (
            np.einsum("it,ij,jt->t", e, w.Q_pixel, e)
            + w.Q_distance * log.e_d**2
            + np.einsum("it,ij,jt->t", u, w.R_effort, u)
        )
        want = np.trapezoid(integrand, log.t)
        assert tracking_cost(log, w) == pytest.approx(want, rel=1e-12)

    def test_non_uniform_timestamps_rejected(self):
        log = constant_log()
        log.t = np.concatenate([log.t[:-1], [log.t[-1] + 0.01]])
        with pytest.raises(EvaluationError):
            tracking_cost(log, CostWeights())

    def test_too_short_rejected(self):
        with pytest.raises(EvaluationError):
            tracking_cost(constant_log(n=1), CostWeights())

    def test_weight_validation(self):
        from helm_bench.core import ConfigError

        with pytest.raises(ConfigError):
            CostWeights(Q_distance=-1.0)
        with pytest.raises(ConfigError):
            CostWeights(R_effort=np.zeros((2, 2)))


class TestEvaluateBoxes:
    def test_perfect_prediction(self):
        gt = Boxes.of([BoundingBox(float(k), 0.0, 20.0, 20.0) for k in range(30)])
        rep = evaluate_boxes(gt, gt)
        assert rep.auc == 100.0
        assert rep.op50 == rep.op75 == rep.precision == rep.norm_precision == 100.0
        assert rep.n_frames == 30

    def test_shifted_prediction_scores_zero(self):
        gt = [BoundingBox(0.0, 0.0, 20.0, 20.0)] * 10
        pred = [BoundingBox(100.0, 0.0, 20.0, 20.0)] * 10
        rep = evaluate_boxes(Boxes.of(gt), Boxes.of(pred))
        assert rep.op50 == 0.0 and rep.precision == 0.0

    def test_length_mismatch(self):
        gt = [BoundingBox(0, 0, 1, 1)]
        with pytest.raises(EvaluationError):
            evaluate_boxes(Boxes.of(gt), Boxes.of(gt * 2))

    def test_gt_gaps_excluded_from_scoring(self):
        gt = [BoundingBox(0, 0, 10, 10), None, BoundingBox(0, 0, 10, 10)]
        pred = [BoundingBox(0, 0, 10, 10), BoundingBox(5, 5, 10, 10), None]
        rep = evaluate_boxes(Boxes.of(gt), Boxes.of(pred))
        assert rep.n_frames == 2  # the frame without ground truth is dropped
        assert rep.op50 == 50.0  # one hit, one missing prediction

    def test_all_gt_missing_rejected(self):
        with pytest.raises(EvaluationError):
            evaluate_boxes(Boxes.of([None, None]), Boxes.of([None, None]))

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        gt = [random_box(rng) for _ in range(40)]
        pred = [random_box(rng) for _ in range(40)]
        base = evaluate_boxes(Boxes.of(gt), Boxes.of(pred))
        moved = evaluate_boxes(
            Boxes.of([BoundingBox(b.x + 17, b.y - 23, b.w, b.h) for b in gt]),
            Boxes.of([BoundingBox(b.x + 17, b.y - 23, b.w, b.h) for b in pred]),
        )
        assert base.auc == moved.auc
        assert base.precision == moved.precision
        assert base.norm_precision == moved.norm_precision

    def test_uniform_scaling_invariance_split(self):
        rng = np.random.default_rng(4)
        gt = [BoundingBox(rng.uniform(0, 50), rng.uniform(0, 50), 20, 20) for _ in range(40)]
        pred = [BoundingBox(b.x + rng.uniform(-15, 15), b.y + rng.uniform(-15, 15), 20, 20)
                for b in gt]
        s = 3.0
        scale = lambda b: BoundingBox(s * b.x, s * b.y, s * b.w, s * b.h)  # noqa: E731
        base = evaluate_boxes(Boxes.of(gt), Boxes.of(pred))
        scaled = evaluate_boxes(Boxes.of([scale(b) for b in gt]), Boxes.of([scale(b) for b in pred]))
        assert scaled.auc == pytest.approx(base.auc, abs=1e-12)  # IoU scale-free
        assert scaled.norm_precision == pytest.approx(base.norm_precision, abs=1e-12)
        assert scaled.precision != base.precision  # raw pixel errors scale


class TestAggregate:
    def test_mean_convention(self):
        gt_a = Boxes.of([BoundingBox(0, 0, 10, 10)] * 10)
        rep_a = evaluate_boxes(gt_a, gt_a)  # AUC 100
        pred_b = Boxes.of([BoundingBox(100, 100, 10, 10)] * 10)
        rep_b = evaluate_boxes(gt_a, pred_b)
        combined = aggregate_reports([rep_a, rep_b])
        assert combined.auc == pytest.approx((rep_a.auc + rep_b.auc) / 2)
        assert combined.n_frames == 20

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            aggregate_reports([])


class TestBoxFiles:
    def test_round_trip(self, tmp_path):
        boxes = [BoundingBox(1.25, -3.5, 10.0, 20.0), None, BoundingBox(0, 0, 5, 5)]
        p = tmp_path / "boxes.txt"
        p.write_text(format_boxes(Boxes.of(boxes)))
        back = load_boxes(p)
        assert back[1] is None
        assert back[0].x == 1.25 and back[0].y == -3.5
        assert back[2].w == 5.0

    def test_separator_tolerance(self, tmp_path):
        p = tmp_path / "boxes.txt"
        p.write_text("1,2,3,4\n5\t6\t7\t8\n9 10 11 12\n")
        boxes = load_boxes(p)
        assert len(boxes) == 3 and boxes[1].x == 5.0 and boxes[2].h == 12.0

    def test_partial_nan_rejected_with_line_number(self, tmp_path):
        p = tmp_path / "boxes.txt"
        p.write_text("1,2,3,4\nnan,2,3,4\n")
        with pytest.raises(EvaluationError, match=r"boxes\.txt:2"):
            load_boxes(p)

    def test_bad_field_count_rejected(self, tmp_path):
        p = tmp_path / "boxes.txt"
        p.write_text("1,2,3\n")
        with pytest.raises(EvaluationError, match=":1"):
            load_boxes(p)

    def test_negative_size_rejected(self, tmp_path):
        p = tmp_path / "boxes.txt"
        p.write_text("1,2,-3,4\n")
        with pytest.raises(EvaluationError):
            load_boxes(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "boxes.txt"
        p.write_text("")
        with pytest.raises(EvaluationError):
            load_boxes(p)

    def test_evaluate_sequence_perfect(self, tmp_path):
        boxes = Boxes.of([BoundingBox(float(k), 2.0, 8.0, 8.0) for k in range(20)])
        (tmp_path / "gt.txt").write_text(format_boxes(boxes))
        (tmp_path / "pred.txt").write_text(format_boxes(boxes))
        rep = evaluate_sequence(tmp_path / "gt.txt", tmp_path / "pred.txt")
        assert rep.auc == 100.0 and rep.n_frames == 20


class TestReportFormatting:
    def _report(self):
        gt = Boxes.of([BoundingBox(0, 0, 10, 10)] * 5)
        return evaluate_boxes(gt, gt)

    def test_header_matches_columns(self):
        text = format_report([("seq", self._report())])
        assert text.splitlines()[0] == ",".join(REPORT_COLUMNS)

    def test_cells_four_decimals(self):
        line = format_report([("seq", self._report())]).splitlines()[1]
        assert line.split(",")[1] == "100.0000"

    def test_extra_columns_appended(self):
        text = format_report([("s", self._report())], extra={"precision_rel_best": [100.0]})
        head, row = text.splitlines()
        assert head.endswith(",precision_rel_best")
        assert row.endswith(",100.0000")

    def test_curves_long_form(self):
        text = format_curves([("s", self._report())])
        lines = text.splitlines()
        assert lines[0] == "sequence,curve,threshold,value"
        n = len(SUCCESS_THRESHOLDS) + len(PRECISION_THRESHOLDS) + len(NORM_PRECISION_THRESHOLDS)
        assert len(lines) == 1 + n

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=203, max_size=203))
    def test_curves_text_matches_numpy_scalar_formatting(self, values):
        curves = np.array(values)
        report = MetricReport(0.0, 0.0, 0.0, 0.0, 0.0, 1, curves[:101], curves[101:152], curves[152:])
        rows = [("s", report), ("mean", aggregate_reports([report, self._report()]))]
        assert format_curves(rows) == _ref_format_curves(rows)


# --- oracle: the per-box scorer and parser that the array code replaced, kept verbatim ---


def _ref_iou(a: BoundingBox, b: BoundingBox) -> float:
    ix = max(0.0, min(a.x + a.w, b.x + b.w) - max(a.x, b.x))
    iy = max(0.0, min(a.y + a.h, b.y + b.h) - max(a.y, b.y))
    inter = ix * iy
    union = a.w * a.h + b.w * b.h - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def _ref_success_curve(ious):
    ious = np.asarray(ious, dtype=float)
    if ious.size == 0:
        raise EvaluationError("cannot evaluate an empty sequence")
    return np.array([100.0 * np.mean(ious >= tau) for tau in SUCCESS_THRESHOLDS])


def _ref_success_auc(ious):
    curve = _ref_success_curve(ious)
    return curve, float(np.mean(curve))


def _ref_op_at(ious, tau):
    ious = np.asarray(ious, dtype=float)
    if ious.size == 0:
        raise EvaluationError("cannot evaluate an empty sequence")
    return float(100.0 * np.mean(ious >= tau))


def _ref_precision_at(center_errors, tau_px=20.0):
    errors = np.asarray(center_errors, dtype=float)
    if errors.size == 0:
        raise EvaluationError("cannot evaluate an empty sequence")
    return float(100.0 * np.mean(errors <= tau_px))


def _ref_norm_center_errors(gt, pred):
    out = np.empty(len(gt))
    for k, (g, p) in enumerate(zip(gt, pred)):
        if g is None:
            raise EvaluationError(f"frame {k}: missing ground truth cannot be normalized")
        if g.w <= 0.0 or g.h <= 0.0:
            raise EvaluationError(f"frame {k}: degenerate ground-truth box {g}")
        if p is None:
            out[k] = math.inf
            continue
        gcx, gcy = g.center()
        pcx, pcy = p.center()
        out[k] = math.hypot((pcx - gcx) / g.w, (pcy - gcy) / g.h)
    return out


def _ref_norm_precision_at(gt, pred, tau=0.2):
    errors = _ref_norm_center_errors(gt, pred)
    if errors.size == 0:
        raise EvaluationError("cannot evaluate an empty sequence")
    curve = np.array([100.0 * np.mean(errors <= t) for t in NORM_PRECISION_THRESHOLDS])
    return float(100.0 * np.mean(errors <= tau)), curve


def _ref_evaluate_boxes(gt, pred):
    if len(gt) != len(pred):
        raise EvaluationError(f"frame count mismatch: gt {len(gt)} vs pred {len(pred)}")
    pairs = [(g, p) for g, p in zip(gt, pred) if g is not None]
    if not pairs:
        raise EvaluationError("no frames with ground truth to evaluate")
    kept_gt = [g for g, _ in pairs]
    kept_pred = [p for _, p in pairs]

    ious = np.array([0.0 if p is None else _ref_iou(g, p) for g, p in pairs])
    center_err = np.empty(len(pairs))
    for k, (g, p) in enumerate(pairs):
        if p is None:
            center_err[k] = math.inf
        else:
            gcx, gcy = g.center()
            pcx, pcy = p.center()
            center_err[k] = math.hypot(pcx - gcx, pcy - gcy)

    s_curve, auc = _ref_success_auc(ious)
    p_curve = np.array([100.0 * np.mean(center_err <= t) for t in PRECISION_THRESHOLDS])
    norm_prec, np_curve = _ref_norm_precision_at(kept_gt, kept_pred)
    return MetricReport(
        auc=auc,
        op50=_ref_op_at(ious, 0.5),
        op75=_ref_op_at(ious, 0.75),
        precision=_ref_precision_at(center_err),
        norm_precision=norm_prec,
        n_frames=len(pairs),
        success_curve=s_curve,
        precision_curve=p_curve,
        norm_precision_curve=np_curve,
    )


def _ref_load_boxes(path):
    boxes = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
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


def _ref_format_curves(rows):
    lines = ["sequence,curve,threshold,value"]
    for name, r in rows:
        for tau, v in zip(SUCCESS_THRESHOLDS, r.success_curve):
            lines.append(f"{name},success,{tau:.2f},{v:.4f}")
        for tau, v in zip(PRECISION_THRESHOLDS, r.precision_curve):
            lines.append(f"{name},precision,{tau:.0f},{v:.4f}")
        for tau, v in zip(NORM_PRECISION_THRESHOLDS, r.norm_precision_curve):
            lines.append(f"{name},norm_precision,{tau:.2f},{v:.4f}")
    return "\n".join(lines) + "\n"


# --- equivalence of the array scorer with the oracle ---------------------


def _bits(report: MetricReport) -> list:
    scalars = (report.auc, report.op50, report.op75, report.precision, report.norm_precision)
    curves = (report.success_curve, report.precision_curve, report.norm_precision_curve)
    return [v.hex() for v in scalars] + [report.n_frames] + [c.tobytes() for c in curves]


def _box_bits(boxes) -> list:
    return [None if b is None else tuple(v.hex() for v in (b.x, b.y, b.w, b.h)) for b in boxes]


def _outcome(load, evaluate, gt_path, pred_path):
    """Report bits and bytes of scoring two box files, or the EvaluationError text."""
    try:
        gt, pred = load(gt_path), load(pred_path)
        boxes = [_box_bits(gt), _box_bits(pred)]
        report = evaluate(gt, pred)
    except EvaluationError as exc:
        return str(exc)
    rows = [("seq", report)]
    return boxes, _bits(report), metrics.format_report(rows), metrics.format_curves(rows)


_COORDS = st.one_of(
    st.floats(-400.0, 400.0),
    st.sampled_from([0.0, -0.0, 1e308, -1e308, math.inf, -math.inf, 5e-324]),
)
_SIZES = st.one_of(st.floats(0.0, 200.0), st.sampled_from([0.0, -0.0, 1e308, math.inf, 5e-324]))
_GT_SIZES = st.one_of(st.floats(0.5, 200.0), st.sampled_from([1e308, math.inf, 5e-324]))
_PRED_BOXES = st.one_of(st.none(), st.tuples(_COORDS, _COORDS, _SIZES, _SIZES))
_GT_BOXES = st.one_of(st.none(), st.tuples(_COORDS, _COORDS, _GT_SIZES, _GT_SIZES))
_DEGENERATE_SIZES = st.sampled_from([(0.0, 5.0), (-0.0, 5.0), (5.0, -0.0), (3.0, 0.0)])
_SEPARATORS = st.sampled_from([",", "\t", " ", ", ", " ,\t"])
_BLANKS = st.sampled_from(["", "", "", "  ", "\t"])
_BAD_LINES = st.sampled_from([
    "1,2,3", "1,2,3,4,5", ",,,", "1,2,abc,4", "nan,1,2,3", "1,2,-3,4", "1,2,3,-inf",
    ",", ", ,", "\t,\t", "1,2\r3,4", "1,2,#,4", "# 1,2,3,4",
])
# Box lines that str.split and float() read: numpy's text reader refuses the first
# three (the line loop then parses the file) and splits the last two the same way.
_ODD_LINES = st.sampled_from(["1_0,2,3,4", "\u0663,2,3,4", "1,2,3,\u0664", "1\xa02\xa03\xa04", "1,2,3,4\u3000"])
_BLANK_FILES = st.sampled_from(["", "\n", "  \n\t\n", " ", "\r\n\r\n"])


def _format(value: float, style: int) -> str:
    return repr(value) if style == 0 else f"{value:.6f}" if style == 1 else f"{value:.17g}"


@st.composite
def _box_text(draw, boxes):
    """A box file holding `boxes`, with mixed separators, blank lines and line ends."""
    lines = []
    for box in boxes:
        while draw(st.integers(0, 9)) == 7:
            lines.append(draw(_BLANKS))
        values = (math.nan,) * 4 if box is None else box
        style = draw(st.integers(0, 2))
        lines.append(draw(_SEPARATORS).join(_format(v, style) for v in values))
    if draw(st.integers(0, 9)) == 7:
        lines.insert(draw(st.integers(0, len(lines))), draw(_BAD_LINES))
    if draw(st.integers(0, 9)) == 7:
        lines.insert(draw(st.integers(0, len(lines))), draw(_ODD_LINES))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


@st.composite
def _box_file_pair(draw):
    frames = draw(st.lists(st.tuples(_GT_BOXES, _PRED_BOXES), min_size=1, max_size=12))
    gt = [g for g, _ in frames]
    pred = [p for _, p in frames]
    if draw(st.integers(0, 9)) == 7:
        pred = pred[:-1]  # a frame count mismatch
    if gt and draw(st.integers(0, 9)) == 7:
        gt[draw(st.integers(0, len(gt) - 1))] = (1.0, 2.0, *draw(_DEGENERATE_SIZES))
    texts = [draw(_box_text(gt)), draw(_box_text(pred))]
    if draw(st.integers(0, 9)) == 7:
        texts[draw(st.integers(0, 1))] = draw(_BLANK_FILES)
    return texts


# Frames whose scores sit exactly on a threshold: IoU k/100 (0.5 and 0.75 among
# them), a center error of 20 px, a normalized one of 0.2, a zero-size
# prediction, and a nan union (inf - inf).
_EXACT_FRAMES = st.sampled_from(
    [((0.0, 0.0, 100.0, 1.0), (0.0, 0.0, float(k), 1.0)) for k in (0, 1, 29, 50, 57, 75, 100)]
    + [
        ((0.0, 0.0, 10.0, 10.0), (20.0, 0.0, 10.0, 10.0)),
        ((0.0, 0.0, 10.0, 10.0), (12.0, 16.0, 10.0, 10.0)),
        ((0.0, 0.0, 100.0, 100.0), (20.0, 0.0, 100.0, 100.0)),
        ((0.0, 0.0, 50.0, 50.0), (0.0, 0.0, -0.0, 0.0)),
        ((0.0, 0.0, math.inf, math.inf), (1.0, 1.0, math.inf, math.inf)),
    ]
)


@st.composite
def _scored_sequence(draw):
    """Ground truth and predictions, as BoundingBox | None lists, that score without error."""
    frames = draw(st.lists(st.one_of(st.tuples(_GT_BOXES, _PRED_BOXES), _EXACT_FRAMES), min_size=1, max_size=30))
    gt = [None if g is None else BoundingBox(*g) for g, _ in frames]
    pred = [None if p is None else BoundingBox(*p) for _, p in frames]
    if all(g is None for g in gt):
        gt[0] = BoundingBox(0.0, 0.0, 10.0, 10.0)
    if draw(st.integers(0, 9)) == 7:
        pred = [None] * len(gt)  # an all-miss prediction file
    return gt, pred


def _write(directory: Path, name: str, text: str) -> Path:
    path = directory / name
    path.write_bytes(text.encode())
    return path


class TestEvaluateOracle:
    @settings(max_examples=150, deadline=None)
    @given(_box_file_pair())
    def test_box_files_score_as_the_per_box_loop(self, texts):
        with tempfile.TemporaryDirectory() as tmp:
            gt = _write(Path(tmp), "gt.txt", texts[0])
            pred = _write(Path(tmp), "pred.txt", texts[1])
            want = _outcome(_ref_load_boxes, _ref_evaluate_boxes, gt, pred)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert _outcome(load_boxes, evaluate_boxes, gt, pred) == want

    @pytest.mark.parametrize(
        "text",
        [
            "1,2,3,4\n,\n5,6,7,8\n",  # a line of separators only
            ", ,\n1,2,3,4\n",
            ",\n",
            "1,2\r3,4\n",  # a bare \r ends a line
            "1,2,3,4\r\n5,6,7,8\r",
            "1,2,#,4\n",
            "#\n1,2,3,4\n",
            "1_0,2,3,4\n",  # float() reads these two, numpy's reader refuses them
            "\u0663,2,3,4\n",
            "1\xa02\xa03\xa04\n5\u30006\u30007\u30008\n",  # both split on these
            "1,2,3,4\x00\n",
            "1e500,2,3,4\n",
            "nan,nan,nan,nan\n-nan,NaN,nan,nan\n",
            "-0.0,0,-0.0,0\n",
            "",
            "\n\n",
            " \t \n  \n",
        ],
    )
    def test_fast_path_hazards_parse_as_the_line_loop(self, tmp_path, text):
        path = _write(tmp_path, "boxes.txt", text)
        try:
            want = _box_bits(_ref_load_boxes(path))
        except EvaluationError as exc:
            want = str(exc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = _box_bits(load_boxes(path))
            except EvaluationError as exc:
                got = str(exc)
        assert got == want

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,2,3,4\n1,2,3\n", r":2: expected 4 fields, got 3$"),
            ("1,2,3,4\n,\n", r":2: expected 4 fields, got 0$"),
            ("1,2,3,4\n1,2,abc,4\n", r":2: could not convert string to float: 'abc'$"),
            ("nan,nan,nan,nan\n1,nan,3,4\n", r":2: partial nan box$"),
            ("1,2,3,4\n1,2,3,-4\n", r":2: box size must be non-negative: w=3.0, h=-4.0$"),
            ("\n  \n\t\n", r"bad\.txt: no boxes found$"),
        ],
    )
    def test_each_malformed_file_message(self, tmp_path, text, message):
        path = _write(tmp_path, "bad.txt", text)
        with pytest.raises(EvaluationError, match=message) as got:
            load_boxes(path)
        with pytest.raises(EvaluationError) as want:
            _ref_load_boxes(path)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("first", ["1,2,3", "x,2,3,4", "nan,2,3,4", "1,2,-3,4"])
    @pytest.mark.parametrize("second", ["1,2,3,4,5", "1,y,3,4", "1,2,nan,4", "1,2,3,-4"])
    def test_first_bad_line_wins(self, tmp_path, first, second):
        path = _write(tmp_path, "bad.txt", f"1,2,3,4\n{first}\n\n{second}\n")
        with pytest.raises(EvaluationError, match=r"bad\.txt:2: ") as got:
            load_boxes(path)
        with pytest.raises(EvaluationError) as want:
            _ref_load_boxes(path)
        assert str(got.value) == str(want.value)

    def test_whitespace_only_lines_are_blank(self, tmp_path):
        path = _write(tmp_path, "boxes.txt", "1,2,3,4\n  \n\t\nnan nan nan nan\n")
        boxes = load_boxes(path)
        assert list(boxes) == _ref_load_boxes(path)
        assert boxes.present.tolist() == [True, False]

    @pytest.mark.parametrize("field", ["x", "y", "w", "h"])
    def test_nan_fields_of_a_box_object_score_as_before(self, field):
        rng = np.random.default_rng(11)
        gt = [random_box(rng) for _ in range(12)]
        pred = [random_box(rng) for _ in range(12)]
        pred[3] = BoundingBox(**{**vars(pred[3]), field: math.nan})
        gt[5] = BoundingBox(**{**vars(gt[5]), field: math.nan})
        pred[7] = None
        assert _bits(evaluate_boxes(Boxes.of(gt), Boxes.of(pred))) == _bits(_ref_evaluate_boxes(gt, pred))

    def test_center_error_keeps_math_hypot(self):
        # math.hypot puts these offsets at 20.000000000000004 px, np.hypot at 20.0,
        # so np.hypot would count them within the 20 px precision threshold.
        offsets = [(4.946824408097116, 19.378568788108545), (11.013386307265915, 16.694469804307285)]
        gt = [BoundingBox(-5.0, -5.0, 10.0, 10.0)] * len(offsets)
        pred = [BoundingBox(dx, dy, 0.0, 0.0) for dx, dy in offsets]
        report = evaluate_boxes(Boxes.of(gt), Boxes.of(pred))
        assert report.precision == 0.0
        assert _bits(report) == _bits(_ref_evaluate_boxes(gt, pred))

    def test_degenerate_ground_truth_message(self):
        gt = Boxes.of([None, BoundingBox(0, 0, 10, 10), BoundingBox(1, 2, 0, 4)])
        pred = Boxes.of([None, None, BoundingBox(0, 0, 1, 1)])
        with pytest.raises(EvaluationError) as want:
            _ref_evaluate_boxes(list(gt), list(pred))
        with pytest.raises(EvaluationError) as got:
            evaluate_boxes(gt, pred)
        assert str(got.value) == str(want.value) == "frame 1: degenerate ground-truth box BoundingBox(x=1.0, y=2.0, w=0.0, h=4.0)"

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_scored_sequence(), min_size=1, max_size=6))
    def test_batch_scores_each_sequence_as_the_per_box_loop(self, sequences):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = evaluate_pairs((Boxes.of(gt), Boxes.of(pred)) for gt, pred in sequences)
        assert [_bits(r) for r in got] == [_bits(_ref_evaluate_boxes(gt, pred)) for gt, pred in sequences]

    def test_iou_matches_oracle_on_extreme_boxes(self):
        values = [0.0, -0.0, 1.0, 1e308, -1e308, math.inf, -math.inf, math.nan, 5e-324]
        rng = np.random.default_rng(12)
        for _ in range(500):
            a = BoundingBox(*rng.choice(values, 2).tolist(), *np.abs(rng.choice(values, 2)).tolist())
            b = BoundingBox(*rng.choice(values, 2).tolist(), *np.abs(rng.choice(values, 2)).tolist())
            assert iou(a, b).hex() == _ref_iou(a, b).hex()


def _oracle_evaluate(gt_dir: Path, pred_dir: Path) -> tuple[str, str]:
    """Report and curves text of `evaluate --curves` over tracker dirs, from the oracle."""
    rows = []
    for tracker in sorted(d for d in pred_dir.iterdir() if d.is_dir()):
        reports = [
            _ref_evaluate_boxes(_ref_load_boxes(gt), _ref_load_boxes(tracker / gt.name))
            for gt in sorted(gt_dir.glob("*.txt"))
        ]
        rows.append((tracker.name, metrics.aggregate_reports(reports)))
    return metrics.format_report(rows), _ref_format_curves(rows)


class TestEvaluateCommand:
    def _tree(self, root: Path) -> tuple[Path, Path]:
        rng = np.random.default_rng(21)
        gt_dir, pred_dir = root / "gt", root / "pred"
        gt_dir.mkdir()
        for s in range(4):
            gt = [None if rng.uniform() < 0.1 else random_box(rng) for _ in range(40)]
            (gt_dir / f"seq{s}.txt").write_text(format_boxes(Boxes.of(gt)))
            for tracker in ("a", "b", "c"):
                pred = [None if rng.uniform() < 0.2 else random_box(rng) for _ in gt]
                (pred_dir / tracker).mkdir(parents=True, exist_ok=True)
                (pred_dir / tracker / f"seq{s}.txt").write_text(format_boxes(Boxes.of(pred)))
        return gt_dir, pred_dir

    # evaluate no longer reads HELM_BENCH_THREADS; a stale value must change nothing.
    @pytest.mark.parametrize("threads", ["1", "3"])
    def test_trackers_match_oracle_and_read_ground_truth_once(self, tmp_path, monkeypatch, threads):
        gt_dir, pred_dir = self._tree(tmp_path)
        reads: list[str] = []
        load = metrics.load_boxes

        def counting_load(path):
            reads.append(Path(path).parent.name + "/" + Path(path).name)
            return load(path)

        monkeypatch.setattr(metrics, "load_boxes", counting_load)
        monkeypatch.setenv("HELM_BENCH_THREADS", threads)
        out = tmp_path / "report.csv"
        argv = ["evaluate", "--gt", str(gt_dir), "--pred", str(pred_dir), "--out", str(out), "--curves"]
        assert main(argv) == 0
        assert (out.read_text(), (tmp_path / "report_curves.csv").read_text()) == _oracle_evaluate(gt_dir, pred_dir)
        assert sorted(r for r in reads if r.startswith("gt/")) == [f"gt/seq{s}.txt" for s in range(4)]
        assert len(reads) == 4 + 3 * 4

    def _evaluate_error(self, tmp_path, capsys, files: dict[str, str]) -> str:
        for name, text in files.items():
            _write(tmp_path, name, text)
        argv = ["evaluate", "--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"),
                "--out", str(tmp_path / "report.csv")]
        assert main(argv) == 1
        assert not (tmp_path / "report.csv").exists()
        return capsys.readouterr().err

    def test_early_mismatch_beats_a_later_malformed_file(self, tmp_path, capsys):
        (tmp_path / "gt").mkdir()
        (tmp_path / "pred" / "a").mkdir(parents=True)
        err = self._evaluate_error(tmp_path, capsys, {
            "gt/s0.txt": "1,2,3,4\n1,2,3,4\n", "pred/a/s0.txt": "1,2,3,4\n",
            "gt/s1.txt": "1,2,3,4\n", "pred/a/s1.txt": "1,2,3\n",
        })
        assert err == "helm-bench: frame count mismatch: gt 2 vs pred 1\n"

    def test_degenerate_ground_truth_beats_a_later_missing_frames_error(self, tmp_path, capsys):
        (tmp_path / "gt").mkdir()
        (tmp_path / "pred" / "a").mkdir(parents=True)
        err = self._evaluate_error(tmp_path, capsys, {
            "gt/s0.txt": "nan,nan,nan,nan\n1,2,3,4\n1,2,0,4\n", "pred/a/s0.txt": "1,2,3,4\n" * 3,
            "gt/s1.txt": "nan,nan,nan,nan\n", "pred/a/s1.txt": "1,2,3,4\n",
        })
        assert err == "helm-bench: frame 1: degenerate ground-truth box BoundingBox(x=1.0, y=2.0, w=0.0, h=4.0)\n"

    def test_starts_no_thread(self, tmp_path, monkeypatch):
        gt_dir, pred_dir = self._tree(tmp_path)

        def no_thread(self):
            raise AssertionError("evaluate started a thread")

        monkeypatch.delenv("HELM_BENCH_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)  # as on a multi-core machine
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        out = tmp_path / "report.csv"
        argv = ["evaluate", "--gt", str(gt_dir), "--pred", str(pred_dir), "--out", str(out), "--curves"]
        assert main(argv) == 0
        assert (out.read_text(), (tmp_path / "report_curves.csv").read_text()) == _oracle_evaluate(gt_dir, pred_dir)
