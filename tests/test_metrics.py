"""Overlap/precision metrics, the integrated tracking cost, and box-file round trips."""

import functools
import math
import os
import tempfile
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helm_bench import metrics
from helm_bench.cli import main
from helm_bench.core import Box, EvaluationError
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
    load_boxes,
    tracking_cost,
)


def random_box(rng) -> Box:
    return (rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(0, 30), rng.uniform(0, 30))


def _iou(a: Box, b: Box) -> float:
    """metrics._ious on one-row arrays."""
    return float(metrics._ious(Boxes.of([a]).xywh, Boxes.of([b]).xywh)[0])


def _with_ious(percents) -> MetricReport:
    """The report of frames whose IoU is k / 100 for each integer k in `percents`.

    Each frame is a 100 x 1 ground-truth box and a k x 1 prediction sharing
    its left edge: intersection k, union 100, both exact.
    """
    gt = [(0.0, 0.0, 100.0, 1.0)] * len(percents)
    return evaluate_boxes(Boxes.of(gt), Boxes.of([(0.0, 0.0, float(k), 1.0) for k in percents]))


def _with_center_errors(errors) -> MetricReport:
    """The report of frames whose center error is each of `errors` px (inf: a miss).

    Each prediction is a 10 x 10 ground-truth box at the origin shifted by the
    error along x.
    """
    gt = [(0.0, 0.0, 10.0, 10.0)] * len(errors)
    pred = [None if math.isinf(e) else (e, 0.0, 10.0, 10.0) for e in errors]
    return evaluate_boxes(Boxes.of(gt), Boxes.of(pred))


class TestIou:
    def test_identical(self):
        b = (3.0, 4.0, 10.0, 5.0)
        assert _iou(b, b) == 1.0

    def test_disjoint(self):
        assert _iou((0, 0, 2, 2), (10, 10, 2, 2)) == 0.0

    def test_quarter_overlap(self):
        # intersection 1, union 4 + 4 - 1 = 7
        val = _iou((0, 0, 2, 2), (1, 1, 2, 2))
        assert val == pytest.approx(1.0 / 7.0, abs=1e-12)

    def test_integer_pixel_count_cross_check(self):
        a, b = (0, 0, 2, 2), (1, 1, 2, 2)
        # count unit cells on a fine grid covering both boxes
        n = 400  # cells per unit
        xs = (np.arange(3 * n) + 0.5) / n
        ys = (np.arange(3 * n) + 0.5) / n
        X, Y = np.meshgrid(xs, ys)
        (ax, ay, aw, ah), (bx, by, bw, bh) = a, b
        in_a = (X > ax) & (X < ax + aw) & (Y > ay) & (Y < ay + ah)
        in_b = (X > bx) & (X < bx + bw) & (Y > by) & (Y < by + bh)
        approx = in_a.__and__(in_b).sum() / (in_a | in_b).sum()
        assert _iou(a, b) == pytest.approx(approx, abs=1e-3)

    def test_zero_area_union(self):
        z = (0, 0, 0, 0)
        assert _iou(z, z) == 0.0

    def test_symmetry_and_range_fuzz(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            a, b = random_box(rng), random_box(rng)
            v = _iou(a, b)
            assert v == _iou(b, a)
            assert 0.0 <= v <= 1.0


class TestSuccess:
    def test_perfect_tracker(self):
        gt = Boxes.of([(float(k), 1.0, 10.0, 5.0) for k in range(10)])
        rep = evaluate_boxes(gt, gt)
        assert rep.auc == 100.0
        assert np.all(rep.success_curve == 100.0)

    def test_all_zero_overlap(self):
        gt = [(0.0, 0.0, 10.0, 10.0)] * 10
        pred = [(50.0, 0.0, 10.0, 10.0)] * 10
        rep = evaluate_boxes(Boxes.of(gt), Boxes.of(pred))
        assert rep.auc == pytest.approx(100.0 / 101.0, abs=1e-12)

    def test_single_half_overlap(self):
        rep = _with_ious([50])
        assert rep.auc == pytest.approx(51.0 / 101.0 * 100.0, abs=1e-12)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        gt = [random_box(rng) for _ in range(777)]
        pred = [(x + rng.uniform(-10, 10), y + rng.uniform(-10, 10), w, h) for x, y, w, h in gt]
        ious = [_ref_iou(g, p) for g, p in zip(_ref(gt), _ref(pred))]
        rep = evaluate_boxes(Boxes.of(gt), Boxes.of(pred))
        want = [100.0 * sum(1 for v in ious if v >= k / 100.0) / len(ious) for k in range(101)]
        assert np.allclose(rep.success_curve, want, atol=0)
        assert rep.auc == pytest.approx(float(np.mean(want)), abs=1e-12)

    def test_curve_non_increasing(self):
        rng = np.random.default_rng(1)
        gt = [random_box(rng) for _ in range(200)]
        pred = [random_box(rng) for _ in range(200)]
        curve = evaluate_boxes(Boxes.of(gt), Boxes.of(pred)).success_curve
        assert np.all(np.diff(curve) <= 0.0)

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError, match="no frames with ground truth"):
            evaluate_boxes(Boxes.of([]), Boxes.of([]))


class TestOpAt:
    def test_examples(self):
        rep = _with_ious([60, 80])
        assert rep.op50 == 100.0
        assert rep.op75 == 50.0
        assert _with_ious([50]).op50 == 100.0  # boundary counts
        assert _with_ious([75]).op75 == 100.0
        assert _with_ious([49]).op50 == _with_ious([74]).op75 == 0.0

    def test_op50_dominates_op75(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            rep = evaluate_boxes(Boxes.of([random_box(rng) for _ in range(n)]),
                                 Boxes.of([random_box(rng) for _ in range(n)]))
            assert rep.op50 >= rep.op75


class TestPrecision:
    def test_examples(self):
        assert _with_center_errors([0.0] * 5).precision == 100.0
        assert _with_center_errors([10.0, 30.0]).precision == 50.0
        assert _with_center_errors([math.inf, 5.0]).precision == 50.0

    def test_boundary_counts(self):
        assert _with_center_errors([20.0]).precision == 100.0

    def test_empty_rejected(self):
        # Frames without ground truth are not scored, so no frame is left.
        with pytest.raises(EvaluationError, match="no frames with ground truth"):
            evaluate_boxes(Boxes.of([None]), Boxes.of([(0, 0, 5, 5)]))


class TestNormPrecision:
    def test_perfect_centers(self):
        gt = Boxes.of([(0, 0, 10, 10)] * 4)
        rep = evaluate_boxes(gt, gt)
        assert rep.norm_precision == 100.0
        assert rep.norm_precision_curve.shape == (51,)

    def test_hand_arithmetic_counts(self):
        gt = [(100, 100, 50, 40)]
        pred = [(105, 104, 50, 40)]  # center offset (5, 4)
        rep = evaluate_boxes(Boxes.of(gt), Boxes.of(pred))
        # e = hypot(5 / 50, 4 / 40) = 0.1414...: it passes the thresholds from 0.15 up
        assert 0.14 < math.hypot(5 / 50, 4 / 40) <= 0.15
        assert rep.norm_precision_curve.tolist() == [0.0] * 15 + [100.0] * 36
        assert rep.norm_precision == 100.0
        # offset (20, 0) on a 100 px box: e = 0.2, on the threshold, counts
        edge = [(0, 0, 100, 100)], [(20, 0, 100, 100)]
        assert evaluate_boxes(*map(Boxes.of, edge)).norm_precision == 100.0

    def test_hand_arithmetic_excluded(self):
        gt = [(100, 100, 50, 40)]
        pred = [(125, 100, 50, 40)]  # offset (25, 0): e = 0.5
        rep = evaluate_boxes(Boxes.of(gt), Boxes.of(pred))
        assert rep.norm_precision == 0.0
        assert rep.norm_precision_curve.tolist() == [0.0] * 50 + [100.0]  # e <= 0.5 only
        near = [(0, 0, 100, 100)], [(20.5, 0, 100, 100)]  # e = 0.205
        assert evaluate_boxes(*map(Boxes.of, near)).norm_precision == 0.0

    def test_degenerate_gt_rejected(self):
        gt = [(0, 0, 0, 10)]
        with pytest.raises(EvaluationError):
            evaluate_boxes(Boxes.of(gt), Boxes.of([(0, 0, 10, 10)]))

    def test_missing_prediction_is_infinite(self):
        rep = evaluate_boxes(Boxes.of([(0, 0, 10, 10)]), Boxes.of([None]))
        # inf passes no threshold, not even the largest; the miss scores IoU 0
        assert not rep.precision_curve.any() and not rep.norm_precision_curve.any()
        assert rep.success_curve.tolist() == [100.0] + [0.0] * 100


def constant_log(n=101, dt=0.02, e_psi=0.0, e_y=0.0, e_d=0.0, T1=0.0, T2=0.0):
    return SimpleNamespace(
        t=np.arange(n) * dt,
        e_psi=np.full(n, e_psi),
        e_y=np.full(n, e_y),
        e_d=np.full(n, e_d),
        T1=np.full(n, T1),
        T2=np.full(n, T2),
    )


_COST_SAMPLES = st.one_of(st.floats(-1e4, 1e4), st.sampled_from([0.0, -0.0]))
_COST_WEIGHTS = st.floats(1e-6, 1e6)


def _ref_tracking_cost(log, Q_pixel: np.ndarray, Q_distance: float, R_effort: np.ndarray) -> float:
    """The einsum form of tracking_cost on full weight matrices, kept verbatim as an oracle."""
    t = np.asarray(log.t, dtype=float)
    dt = np.diff(t)[0]
    e_body = np.stack([np.asarray(log.e_psi, float), np.asarray(log.e_y, float)])
    effort = np.stack([np.asarray(log.T1, float), np.asarray(log.T2, float)])
    integrand = (
        np.einsum("it,ij,jt->t", e_body, Q_pixel, e_body)
        + Q_distance * np.asarray(log.e_d, float) ** 2
        + np.einsum("it,ij,jt->t", effort, R_effort, effort)
    )
    return float(dt * (integrand[0] / 2.0 + integrand[1:-1].sum() + integrand[-1] / 2.0))


class TestTrackingCost:
    def test_zero_log(self):
        assert tracking_cost(constant_log(), CostWeights()) == 0.0

    def test_hand_trapezoid_of_constant(self):
        w = CostWeights(q_pixel=(1.0, 1.0), q_distance=1.0, r_effort=(1e-4, 1e-4))
        log = constant_log(n=201, dt=0.01, e_psi=1.0, e_d=2.0)  # 2 s span
        assert tracking_cost(log, w) == pytest.approx(10.0, abs=1e-9)  # (1+4)*2

    def test_effort_term_linear_in_weight(self):
        base = CostWeights(q_pixel=(0.0, 0.0), q_distance=0.0, r_effort=(1.0, 1.0))
        double = CostWeights(q_pixel=(0.0, 0.0), q_distance=0.0, r_effort=(2.0, 2.0))
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
            np.einsum("it,ij,jt->t", e, np.diag(w.q_pixel), e)
            + w.q_distance * log.e_d**2
            + np.einsum("it,ij,jt->t", u, np.diag(w.r_effort), u)
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
            CostWeights(q_distance=-1.0)
        with pytest.raises(ConfigError):
            CostWeights(r_effort=(0.0, 1.0))
        with pytest.raises(ConfigError):
            CostWeights(q_pixel=(1.0, -1e-13))
        with pytest.raises(ConfigError):
            CostWeights(q_pixel=(1.0, 1.0, 1.0))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(*[_COST_SAMPLES] * 5), min_size=2, max_size=40),
        st.sampled_from([0.01, 0.02, 0.1]),
        st.lists(_COST_WEIGHTS, min_size=5, max_size=5),
    )
    def test_bit_identical_to_the_einsum_form(self, rows, dt, weights):
        # rows of (e_psi, e_y, e_d, T1, T2); weights (q_psi, q_y, q_distance, r_1, r_2)
        e_psi, e_y, e_d, T1, T2 = np.array(rows, dtype=float).T
        log = SimpleNamespace(t=np.arange(len(rows)) * dt, e_psi=e_psi, e_y=e_y, e_d=e_d, T1=T1, T2=T2)
        q_psi, q_y, q_distance, r_1, r_2 = weights
        w = CostWeights(q_pixel=(q_psi, q_y), q_distance=q_distance, r_effort=(r_1, r_2))
        want = _ref_tracking_cost(log, np.diag(w.q_pixel), w.q_distance, np.diag(w.r_effort))
        assert tracking_cost(log, w).hex() == want.hex()


_GRIDS = {
    "success": SUCCESS_THRESHOLDS,
    "precision": PRECISION_THRESHOLDS,
    "norm_precision": NORM_PRECISION_THRESHOLDS,
}


class TestFirstPassing:
    """metrics._first_passing is np.searchsorted on each grid, and on the negated grids of `at_least`."""

    @pytest.mark.parametrize("negated", [False, True])
    @pytest.mark.parametrize("name", sorted(_GRIDS))
    def test_matches_searchsorted(self, name, negated):
        grid = -_GRIDS[name][::-1] if negated else _GRIDS[name]
        near = np.concatenate([grid, np.nextafter(grid, math.inf), np.nextafter(grid, -math.inf)])
        special = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
                   2.2250738585072009e-308, -2.2250738585072009e-308, 1e308, -1e308]
        step = grid[1] - grid[0]
        spread = np.random.default_rng(13).uniform(grid[0] - 3 * step, grid[-1] + 3 * step, 20_000)
        values = np.concatenate([near, -near, special, spread, (grid[:-1] + grid[1:]) / 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = metrics._first_passing(values, grid)
        assert got.dtype == np.intp
        assert got.tolist() == np.searchsorted(grid, values).tolist()


class TestEvaluateBoxes:
    def test_perfect_prediction(self):
        gt = Boxes.of([(float(k), 0.0, 20.0, 20.0) for k in range(30)])
        rep = evaluate_boxes(gt, gt)
        assert rep.auc == 100.0
        assert rep.op50 == rep.op75 == rep.precision == rep.norm_precision == 100.0
        assert rep.n_frames == 30

    def test_shifted_prediction_scores_zero(self):
        gt = [(0.0, 0.0, 20.0, 20.0)] * 10
        pred = [(100.0, 0.0, 20.0, 20.0)] * 10
        rep = evaluate_boxes(Boxes.of(gt), Boxes.of(pred))
        assert rep.op50 == 0.0 and rep.precision == 0.0

    def test_length_mismatch(self):
        gt = [(0, 0, 1, 1)]
        with pytest.raises(EvaluationError):
            evaluate_boxes(Boxes.of(gt), Boxes.of(gt * 2))

    def test_gt_gaps_excluded_from_scoring(self):
        gt = [(0, 0, 10, 10), None, (0, 0, 10, 10)]
        pred = [(0, 0, 10, 10), (5, 5, 10, 10), None]
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
            Boxes.of([(x + 17, y - 23, w, h) for x, y, w, h in gt]),
            Boxes.of([(x + 17, y - 23, w, h) for x, y, w, h in pred]),
        )
        assert base.auc == moved.auc
        assert base.precision == moved.precision
        assert base.norm_precision == moved.norm_precision

    def test_uniform_scaling_invariance_split(self):
        rng = np.random.default_rng(4)
        gt = [(rng.uniform(0, 50), rng.uniform(0, 50), 20, 20) for _ in range(40)]
        pred = [(x + rng.uniform(-15, 15), y + rng.uniform(-15, 15), 20, 20) for x, y, _, _ in gt]
        s = 3.0
        scale = lambda b: tuple(s * v for v in b)  # noqa: E731
        base = evaluate_boxes(Boxes.of(gt), Boxes.of(pred))
        scaled = evaluate_boxes(Boxes.of([scale(b) for b in gt]), Boxes.of([scale(b) for b in pred]))
        assert scaled.auc == pytest.approx(base.auc, abs=1e-12)  # IoU scale-free
        assert scaled.norm_precision == pytest.approx(base.norm_precision, abs=1e-12)
        assert scaled.precision != base.precision  # raw pixel errors scale


class TestAggregate:
    def test_mean_convention(self):
        gt_a = Boxes.of([(0, 0, 10, 10)] * 10)
        rep_a = evaluate_boxes(gt_a, gt_a)  # AUC 100
        pred_b = Boxes.of([(100, 100, 10, 10)] * 10)
        rep_b = evaluate_boxes(gt_a, pred_b)
        combined = aggregate_reports([rep_a, rep_b])
        assert combined.auc == pytest.approx((rep_a.auc + rep_b.auc) / 2)
        assert combined.n_frames == 20

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            aggregate_reports([])


class TestMetricReport:
    def test_equality_is_identity(self):
        # the curves are arrays with no single truth value, so == compares identity and never raises
        gt = Boxes.of([(0, 0, 10, 10)] * 10)
        report, again = evaluate_boxes(gt, gt), evaluate_boxes(gt, gt)
        assert (report == report) is True
        assert (report == again) is False


class TestBoxes:
    def test_of_takes_tuples_and_none(self):
        boxes = Boxes.of([(1.25, -3.5, 10.0, 20.0), None, (0, 0, 5, 5)])
        assert len(boxes) == 3 and boxes.xywh.dtype == np.float64
        assert boxes.present.tolist() == [True, False, True]
        assert boxes.xywh[[0, 2]].tolist() == [[1.25, -3.5, 10.0, 20.0], [0.0, 0.0, 5.0, 5.0]]
        assert np.isnan(boxes.xywh[1]).all()
        assert Boxes.of([]).xywh.shape == (0, 4)


class TestBoxFiles:
    def test_round_trip(self, tmp_path):
        boxes = [(1.25, -3.5, 10.0, 20.0), None, (0, 0, 5, 5)]
        p = tmp_path / "boxes.txt"
        p.write_text(format_boxes(Boxes.of(boxes)))
        assert _rows(load_boxes(p)) == [(1.25, -3.5, 10.0, 20.0), None, (0.0, 0.0, 5.0, 5.0)]

    def test_separator_tolerance(self, tmp_path):
        p = tmp_path / "boxes.txt"
        p.write_text("1,2,3,4\n5\t6\t7\t8\n9 10 11 12\n")
        assert _rows(load_boxes(p)) == [(1.0, 2.0, 3.0, 4.0), (5.0, 6.0, 7.0, 8.0), (9.0, 10.0, 11.0, 12.0)]

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
        boxes = Boxes.of([(float(k), 2.0, 8.0, 8.0) for k in range(20)])
        (tmp_path / "gt.txt").write_text(format_boxes(boxes))
        (tmp_path / "pred.txt").write_text(format_boxes(boxes))
        rep = evaluate_sequence(tmp_path / "gt.txt", tmp_path / "pred.txt")
        assert rep.auc == 100.0 and rep.n_frames == 20


class TestReportFormatting:
    def _report(self):
        gt = Boxes.of([(0, 0, 10, 10)] * 5)
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


# --- oracle: the per-box scorer and parser that the array code replaced, kept verbatim,
# with a copy of the box dataclass it used ---


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

    def __str__(self) -> str:
        # The scorer's degenerate-box error writes a box this way; the oracle's matches it.
        return f"(x, y, w, h) = {(self.x, self.y, self.w, self.h)}"


def _ref(boxes: list[Box | None]) -> list[_RefBoundingBox | None]:
    """The oracle's form of a list of (x, y, w, h) boxes."""
    return [None if b is None else _RefBoundingBox(*b) for b in boxes]


def _ref_iou(a: _RefBoundingBox, b: _RefBoundingBox) -> float:
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
                    boxes.append(_RefBoundingBox(*values))
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


def _rows(boxes) -> list[Box | None]:
    """Each frame's (x, y, w, h) box or None, from a Boxes or an oracle list."""
    if isinstance(boxes, Boxes):
        return [tuple(row) if p else None for row, p in zip(boxes.xywh.tolist(), boxes.present.tolist())]
    return [None if b is None else (b.x, b.y, b.w, b.h) for b in boxes]


def _box_bits(boxes) -> list:
    return [None if b is None else tuple(v.hex() for v in b) for b in _rows(boxes)]


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
    """Ground truth and predictions, as (x, y, w, h) | None lists, that score without error."""
    frames = draw(st.lists(st.one_of(st.tuples(_GT_BOXES, _PRED_BOXES), _EXACT_FRAMES), min_size=1, max_size=30))
    gt = [g for g, _ in frames]
    pred = [p for _, p in frames]
    if all(g is None for g in gt):
        gt[0] = (0.0, 0.0, 10.0, 10.0)
    if draw(st.integers(0, 9)) == 7:
        pred = [None] * len(gt)  # an all-miss prediction file
    return gt, pred


def _walk_ulps(f, x: float, target: float) -> float:
    """Step x an ulp at a time toward f(x) == target, for f non-decreasing in x; stop at or just past it."""
    for _ in range(64):
        if f(x) < target:
            x = math.nextafter(x, math.inf)
        elif f(x) > target and f(math.nextafter(x, -math.inf)) >= target:
            x = math.nextafter(x, -math.inf)
        else:
            break
    return x


def _ulps(value: float, n: int) -> float:
    """value moved n ulps (toward +inf when n > 0)."""
    for _ in range(abs(n)):
        value = math.nextafter(value, math.copysign(math.inf, n))
    return value


def _offsets_at(target: float, theta: float, sx: float, sy: float) -> tuple[float, float]:
    """Offsets (dx, dy) at angle theta with math.hypot(dx / sx, dy / sy) at target, or next to it.

    The larger offset is walked an ulp at a time; the error grows with its magnitude.
    """
    dx, dy = sx * target * math.cos(theta), sy * target * math.sin(theta)
    if abs(dx) >= abs(dy):
        dx = math.copysign(_walk_ulps(lambda m: math.hypot(m / sx, dy / sy), abs(dx), target), dx)
    else:
        dy = math.copysign(_walk_ulps(lambda m: math.hypot(dx / sx, m / sy), abs(dy), target), dy)
    return dx, dy


_SPECIAL_FIELDS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
_STRADDLE_SCALES = {"px": (1.0, 1.0), "norm": (37.0, 23.0)}


@functools.cache
def _hypot_straddles() -> list[tuple[str, float, float]]:
    """(kind, dx, dy) where np.hypot and math.hypot put the error on either side of a threshold.

    Found by trying 2,000 angles per threshold (about one in 400 splits);
    these are the frames that np.hypot alone would count wrongly. The
    offsets are in pixels, before `norm` divides them by (37, 23).
    """
    rng = np.random.default_rng(17)
    found = []
    for kind, (sx, sy) in _STRADDLE_SCALES.items():
        for k in range(1, 51):
            t = float(k) if kind == "px" else k / 100.0
            theta = rng.uniform(0.0, 2.0 * math.pi, 2000)
            dx, dy = sx * t * np.cos(theta), sy * t * np.sin(theta)
            ex, ey = dx / sx, dy / sy
            fast = np.hypot(ex, ey) <= t
            exact = np.array(list(map(math.hypot, ex.tolist(), ey.tolist()))) <= t
            found += [(kind, float(dx[i]), float(dy[i])) for i in np.flatnonzero(fast != exact)[:1]]
    return found


@st.composite
def _boundary_frame(draw):
    """A (ground truth, prediction) frame whose scores sit within a few ulps of a threshold.

    A center error within 4 ulps (by math.hypot) of k px, or a normalized one
    within 4 ulps of k/100, or one that np.hypot puts on the other side of
    its threshold, or an IoU at k/100 or one ulp either side; now and then a
    field set to +-0.0, +-inf or nan.
    """
    kind = draw(st.sampled_from(["px", "norm", "iou", "straddle"]))
    gw, gh = draw(st.sampled_from([(10.0, 10.0), (37.0, 23.0), (0.75, 3.0), (123.456, 64.0)]))
    if kind == "straddle":
        kind, dx, dy = draw(st.sampled_from(_hypot_straddles()))
        gw, gh = _STRADDLE_SCALES["norm"] if kind == "norm" else (gw, gh)
        frame = [(-gw / 2.0, -gh / 2.0, gw, gh), (dx, dy, 0.0, 0.0)]
    elif kind == "iou":
        k = draw(st.integers(0, 100))
        target = abs(_ulps(k / 100.0, draw(st.integers(-1, 1))))
        gt = (0.0, 0.0, 100.0, 1.0)
        w = _walk_ulps(lambda w: _ref_iou(_RefBoundingBox(*gt), _RefBoundingBox(0.0, 0.0, w, 1.0)), float(k), target)
        frame = [gt, (0.0, 0.0, w, 1.0)]
    else:
        # The ground-truth center is (0, 0) exactly, and a zero-size prediction's
        # center is its corner, so the offsets are the prediction's x and y.
        k = draw(st.integers(0, 50))
        t = float(k) if kind == "px" else k / 100.0
        target = abs(_ulps(t, draw(st.integers(-4, 4))))  # an error is never below 0
        scale = (1.0, 1.0) if kind == "px" else (gw, gh)
        dx, dy = _offsets_at(target, draw(st.floats(0.0, 2.0 * math.pi)), *scale)
        frame = [(-gw / 2.0, -gh / 2.0, gw, gh), (dx, dy, 0.0, 0.0)]
    if draw(st.integers(0, 7)) == 7:
        box = draw(st.integers(0, 1))
        field = draw(st.integers(0, 3))
        value = draw(_SPECIAL_FIELDS)
        if field >= 2 and (value < 0.0 or (box == 0 and value == 0.0)):
            value = math.inf  # a negative size is no box, a zero-size ground truth a degenerate one
        frame[box] = tuple(value if i == field else v for i, v in enumerate(frame[box]))
    return frame[0], frame[1]


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
        assert _rows(boxes) == _rows(_ref_load_boxes(path))
        assert boxes.present.tolist() == [True, False]

    @pytest.mark.parametrize("field", ["x", "y", "w", "h"])
    def test_nan_fields_of_a_box_object_score_as_before(self, field):
        rng = np.random.default_rng(11)
        gt = [random_box(rng) for _ in range(12)]
        pred = [random_box(rng) for _ in range(12)]
        i = "xywh".index(field)
        pred[3] = tuple(math.nan if j == i else v for j, v in enumerate(pred[3]))
        gt[5] = tuple(math.nan if j == i else v for j, v in enumerate(gt[5]))
        pred[7] = None
        assert _bits(evaluate_boxes(Boxes.of(gt), Boxes.of(pred))) == _bits(_ref_evaluate_boxes(_ref(gt), _ref(pred)))

    def test_center_error_keeps_math_hypot(self):
        # math.hypot puts these offsets at 20.000000000000004 px, np.hypot at 20.0,
        # so np.hypot would count them within the 20 px precision threshold.
        offsets = [(4.946824408097116, 19.378568788108545), (11.013386307265915, 16.694469804307285)]
        gt = [(-5.0, -5.0, 10.0, 10.0)] * len(offsets)
        pred = [(dx, dy, 0.0, 0.0) for dx, dy in offsets]
        report = evaluate_boxes(Boxes.of(gt), Boxes.of(pred))
        assert report.precision == 0.0
        assert _bits(report) == _bits(_ref_evaluate_boxes(_ref(gt), _ref(pred)))

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_boundary_frame(), min_size=1, max_size=40))
    def test_scores_within_ulps_of_a_threshold_match_the_per_box_loop(self, frames):
        gt = [g for g, _ in frames]
        pred = [p for _, p in frames]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = evaluate_boxes(Boxes.of(gt), Boxes.of(pred))
        assert _bits(got) == _bits(_ref_evaluate_boxes(_ref(gt), _ref(pred)))

    def test_boundary_frames_reach_their_thresholds(self):
        # The walks of _boundary_frame land on their targets: a pixel error
        # exactly, a normalized one (whose offsets are divided first) within an
        # ulp; at every center threshold and 4 ulps either side, at a few
        # angles. Each IoU threshold is hit exactly.
        for k in range(51):
            for t, (sx, sy) in ((float(k), (1.0, 1.0)), (k / 100.0, (37.0, 23.0)), (k / 100.0, (0.75, 3.0))):
                for n in (-4, -1, 0, 1, 4):
                    target = abs(_ulps(t, n))
                    for theta in (0.0, 0.3, 1.0, 2.2, 3.9, 5.5):
                        dx, dy = _offsets_at(target, theta, sx, sy)
                        slack = 0.0 if sx == 1.0 else math.ulp(target)
                        assert abs(math.hypot(dx / sx, dy / sy) - target) <= slack
        for k in range(101):
            gt = _RefBoundingBox(0.0, 0.0, 100.0, 1.0)
            w = _walk_ulps(lambda w: _ref_iou(gt, _RefBoundingBox(0.0, 0.0, w, 1.0)), float(k), k / 100.0)
            assert _ref_iou(gt, _RefBoundingBox(0.0, 0.0, w, 1.0)) == k / 100.0

    def test_degenerate_ground_truth_message(self):
        gt = [None, (0.0, 0.0, 10.0, 10.0), (1.0, 2.0, 0.0, 4.0)]
        pred = [None, None, (0.0, 0.0, 1.0, 1.0)]
        with pytest.raises(EvaluationError) as want:
            _ref_evaluate_boxes(_ref(gt), _ref(pred))
        with pytest.raises(EvaluationError) as got:
            evaluate_boxes(Boxes.of(gt), Boxes.of(pred))
        assert str(got.value) == str(want.value) == "frame 1: degenerate ground-truth box (x, y, w, h) = (1.0, 2.0, 0.0, 4.0)"

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_scored_sequence(), min_size=1, max_size=6))
    def test_batch_scores_each_sequence_as_the_per_box_loop(self, sequences):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = evaluate_pairs((Boxes.of(gt), Boxes.of(pred)) for gt, pred in sequences)
        assert [_bits(r) for r in got] == [_bits(_ref_evaluate_boxes(_ref(gt), _ref(pred))) for gt, pred in sequences]

    def test_iou_matches_oracle_on_extreme_boxes(self):
        values = [0.0, -0.0, 1.0, 1e308, -1e308, math.inf, -math.inf, math.nan, 5e-324]
        rng = np.random.default_rng(12)
        for _ in range(500):
            a = (*rng.choice(values, 2).tolist(), *np.abs(rng.choice(values, 2)).tolist())
            b = (*rng.choice(values, 2).tolist(), *np.abs(rng.choice(values, 2)).tolist())
            assert _iou(a, b).hex() == _ref_iou(_RefBoundingBox(*a), _RefBoundingBox(*b)).hex()


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
        assert err == "helm-bench: frame 1: degenerate ground-truth box (x, y, w, h) = (1.0, 2.0, 0.0, 4.0)\n"

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
