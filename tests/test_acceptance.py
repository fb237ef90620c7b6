"""Acceptance checklist: one test per shipped guarantee.

Each test records an `[acceptance] ...: PASS/FAIL` line; conftest echoes the
checklist after the run (pytest captures at the fd level, so plain prints
from passing tests never reach piped logs).
Golden digests pin whole run-log CSVs for the shipped scenarios at their
shipped seeds; runtime budgets are asserted with wide margins (each criterion
currently runs at least an order of magnitude inside its budget).

The sliding-mode settling check is expected to fail and is marked strict
xfail: with the shipped gains the yaw switching term balances the equivalent
control at |e_psi| = eta_psi / (Izz * lambda_psi) ~ 0.39 rad, an attracting
stall the controller cannot leave (see README, "Acceptance suite"). The test
asserts the unmodified requirement so any behavior change is flagged. So is
the width check on ncc_approach: the NCC tracker reports the frame-0 box size,
so its width falls short as the target nears (README, "NCC tracker"). And so is
the lost-frame count at a frame stride above 1: guidance counts control steps,
so it searches after half the missed frames at stride 2 (README, "Acceptance
suite").
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from helm_bench.cli import main
from helm_bench.config import load_keys, load_scenario, sweep_variant
from helm_bench.control import LqrWeights, SmcGains, lqr_gain
from helm_bench.core import BodyState, Box, CameraIntrinsics, Pose2D, UsvParams, box_center
from helm_bench.dynamics import SeaState, step
from helm_bench.metrics import (
    NORM_PRECISION_THRESHOLDS,
    PRECISION_THRESHOLDS,
    REPORT_COLUMNS,
    SUCCESS_THRESHOLDS,
    Boxes,
    _ious,
    evaluate_boxes,
    format_boxes,
)
from helm_bench.sensors import TrackerNoiseConfig, emulate_tracker
from helm_bench.sim import (
    LOG_COLUMNS,
    ControllerKind,
    ControllerSpec,
    RunSummary,
    SensorNoise,
    run_scenario,
    summarize,
)

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
PARAMS = UsvParams()

# sha256 of RunLog.to_csv() for each shipped scenario at its shipped seed,
# with the controller swapped in ("SMC0" = sliding mode, phi = 0; identical
# to the default because this trajectory never enters the boundary layer).
GOLDEN_SHA256 = {
    ("calm_line", "PID"): "98c8306b4af25be836538bcb32b892afeb9fe9051a31b9d97b549a847a5872b4",
    ("calm_line", "SMC"): "acdb56e127b7ddcd33f2ddc8c0f6c2e149fb0332bdbd670292481052f1c4bca8",
    ("calm_line", "SMC0"): "acdb56e127b7ddcd33f2ddc8c0f6c2e149fb0332bdbd670292481052f1c4bca8",
    ("calm_line", "LQR"): "780e513d8c8768b7ba0bcfbeeee7e23d287da32cd68a93464d84a62a177bbe8d",
    ("sea_line", "PID"): "b445c605793e5eb30176f835a10608618f43e75e84ca5c73b86f86edda1c94ff",
    ("sea_line", "SMC"): "08dd33740cd989b0e21195e99127db2f9fd7a4a057dc35253c06be147dd52798",
    ("sea_line", "LQR"): "6e0e45baf864d9fdac02c0ce946d49bc1da354f96b8f57d3063964cc5a9cc58d",
    ("sea_triangle", "PID"): "7af3edfda0346ef4a75ea176ce9dc9ce99941c40e3edbdfac45d53ce4eb1a2b1",
    ("sea_triangle", "SMC"): "afde1b8d69838edcf11df99441090a7bc945f0fdbb207d97472f293e8c7919f3",
    ("sea_triangle", "LQR"): "c64f6b7124175be52ae324021cee7abf30190b228036d3a8c84158636eca8053",
}

# sha256 of RunLog.to_csv() for ncc_standoff at its shipped seed, keyed by
# [sea] visibility. Pins the rendered-frame noise keying and the ZNCC tracker;
# the digests also depend on numpy's raw Philox words and on the quantile
# table that maps each 16-bit lane of them to a normal draw (its own digest is
# pinned in test_sensors), not on any numpy normal sampler.
NCC_GOLDEN_SHA256 = {
    1.0: "fa9573e4a3acbcbe36b02c428b47a7ad362abb09a103211084bc8cc59fca0d23",
    0.1: "64e1195f2b3ce2af770804e70a1624b6dd2c7d6bb4a839f9ee7187e8143907e0",
}

# sha256 of RunLog.to_csv() for calm_line made noisy (see _noisy_calm_line),
# keyed by controller. The goldens above draw no tracker or sensor noise, so
# only these pin the tracker, IMU and lidar draw order. Kept apart from
# GOLDEN_SHA256, which the benchmark harness reads.
NOISY_GOLDEN_SHA256 = {
    "PID": "dd798d48624d8cc2a1703df1647155be4eeb6d9109ebc79cb2ae2a0d7cdb0c79",
    "SMC": "8478e1a66fe280c3802fa0d7cb0186c7bb653c1a0eef901c685d92cf706c7637",
    "LQR": "83059b0023503b10ce0e518a2c5c1d428f9d1ecbdb63ac1a70584cda27c07e60",
}

# sha256 of RunLog.to_csv() for sea_line made noisy and hazy, starting turned
# away from its target (see _noisy_sea_line), keyed by controller. Besides
# dropouts, holding and searching, it pins what the noisy calm_line runs reach
# only in part: a jittered box that leaves the frame (twice, under PID) and
# the noisy heading measurement's wrap across +-pi under every law.
NOISY_SEA_LINE_SHA256 = {
    "PID": "06bac188973b1f894daf6db7aa5f68635dbd133b4ffa4d749e20ba0ae470486e",
    "SMC": "158d1d1c957a087559a15f13930cf934aff41c88d5ef43359725e216f9629bf5",
    "LQR": "f888f5a2278c13ef3d3617b1f14e26d023310bf35266cc9c58c3d34bda48d6dd",
}

# sha256 of RunLog.to_csv() for scenarios that pin a behavior of the trackers
# rather than a controller comparison. ncc_approach closes on the target, so
# its apparent size grows while the NCC tracker reports the frame-0 size.
# Kept apart from GOLDEN_SHA256, which the benchmark harness reads.
TRACKER_GOLDEN_SHA256 = {
    "ncc_approach": "e9dfe0d4533293d039279be4121618fe6eed7a8feb8f3a22a32ccd29911cacfe",
}


CHECKLIST: list[str] = []  # echoed after the run by conftest.pytest_terminal_summary


def _report(name: str, passed: bool, note: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    if note:
        status += f" ({note})"
    line = f"[acceptance] {name}: {status}"
    CHECKLIST.append(line)
    print(line, file=sys.__stderr__)


@contextmanager
def _criterion(name: str):
    """Print the checklist line for `name` whichever way the body exits."""
    try:
        yield
    except BaseException:
        _report(name, False, "assertion failed")
        raise
    _report(name, True)


@functools.lru_cache(maxsize=None)
def _scenario_run(scenario: str, kind: str) -> tuple[str, RunSummary]:
    """Run a shipped scenario with the controller swapped; cache per kind."""
    base = load_scenario(str(SCENARIOS / f"{scenario}.ini"))
    if kind == "SMC0":
        spec = ControllerSpec(kind=ControllerKind.SMC, smc=SmcGains(phi=0.0))
    else:
        spec = ControllerSpec(kind=ControllerKind[kind])
    log = run_scenario(dataclasses.replace(base, controller=spec))
    digest = hashlib.sha256(log.to_csv().encode()).hexdigest()
    return digest, summarize(log, base.cost)


def test_criterion_1_riccati_solver_properties():
    """Residual, symmetry, definiteness, stability, and the exact scalar gain."""
    with _criterion("criterion 1 — Riccati solver properties (100 random weight pairs)"):
        t0 = time.perf_counter()
        # the plant and the residual in matrix form, as the reference
        A = np.zeros((3, 3))
        A[1, 2] = 1.0
        B = np.zeros((3, 2))
        B[0, 0] = 1.0 / PARAMS.m
        B[2, 1] = PARAMS.l / PARAMS.Izz
        rng = np.random.default_rng(20260816)
        for _ in range(100):
            q_u = rng.uniform(0.1, 50.0)
            m2 = rng.uniform(-3.0, 3.0, size=(2, 2))
            q = (q_u, *np.diag(m2.T @ m2 + 1e-3 * np.eye(2)))
            r = rng.uniform(0.01, 5.0, size=2)
            Q, R = np.diag(q), np.diag(r)
            gain = lqr_gain(PARAMS, LqrWeights(q=q, r=r))
            P = gain.P
            assert np.linalg.norm(A.T @ P + P @ A - P @ B @ np.linalg.solve(R, B.T @ P) + Q) < 1e-9
            assert np.array_equal(gain.P, gain.P.T)
            assert np.linalg.eigvalsh(gain.P).min() >= -1e-9
            assert np.linalg.eigvals(A - B @ gain.K).real.max() < -1e-6
            # decoupled surge channel collapses to K_u = sqrt(Q_u / R_1)
            assert abs(gain.K[0, 0] - math.sqrt(q_u / R[0, 0])) < 1e-12
        unit = lqr_gain(PARAMS, LqrWeights(q=(1.0, 1.0, 1.0), r=(1.0, 1.0)))
        assert abs(unit.K[0, 0] - 1.0) < 1e-12
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"


def test_criterion_2_dynamics_oracles():
    """RK4 against closed forms: coasting circle and constant-thrust ramp."""
    with _criterion("criterion 2 — dynamics closed-form oracles (circle + thrust ramp)"):
        t0 = time.perf_counter()
        calm = SeaState()
        dt = 0.02

        # zero thrust, u = 1, r = 0.5: circle of radius u/|r| about (0, u/r)
        x, y, psi, u, r = 0.0, 0.0, 0.0, 1.0, 0.5
        radius = u / abs(r)
        center = (0.0, radius)
        t = 0.0
        for _ in range(math.ceil(2.0 * math.pi / abs(r) / dt)):
            x, y, psi, u, r = step(x, y, psi, u, r, 0.0, 0.0, calm, t, dt, PARAMS)
            t += dt
            dev = abs(math.hypot(x - center[0], y - center[1]) - radius)
            assert dev < 1e-6 * radius

        # both thrusters at 10 N from rest: u(t) = (T_L + T_R) / m * t
        x = y = psi = u = r = 0.0
        t = 0.0
        for _ in range(50):
            x, y, psi, u, r = step(x, y, psi, u, r, 10.0, 10.0, calm, t, dt, PARAMS)
            t += dt
        assert abs(u - 20.0 / PARAMS.m * 1.0) < 1e-6

        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"criterion 2 took {elapsed:.2f}s"


def test_criterion_3_metric_oracles(tmp_path):
    """Counting-loop recomputation of every metric, exactly, plus evaluate on pred == gt."""
    with _criterion("criterion 3 — metric brute-force equivalence (1000 sequences)"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(31337)
        for _ in range(1000):
            n = int(rng.integers(1, 41))
            gt: list[Box] = []
            pred: list[Box | None] = []
            for _ in range(n):
                gx, gy = rng.uniform(0, 300, size=2)
                gw, gh = rng.uniform(5, 80, size=2)
                gt.append((gx, gy, gw, gh))
                if rng.uniform() < 0.15:
                    pred.append(None)
                else:
                    pred.append((gx + rng.normal(0, 10), gy + rng.normal(0, 10), gw * rng.uniform(0.8, 1.2), gh))
            report = evaluate_boxes(Boxes.of(gt), Boxes.of(pred))

            # per box pair: IoU, center error and normalized center error
            ious, errs, norm_errs = [], [], []
            for g, p in zip(gt, pred):
                if p is None:
                    ious.append(0.0)
                    errs.append(math.inf)
                    norm_errs.append(math.inf)
                    continue
                (gx, gy, gw, gh), (px, py, pw, ph) = g, p
                ix = max(0.0, min(gx + gw, px + pw) - max(gx, px))
                iy = max(0.0, min(gy + gh, py + ph) - max(gy, py))
                union = gw * gh + pw * ph - ix * iy
                ious.append(0.0 if union <= 0.0 else ix * iy / union)
                gcx, gcy = box_center(g)
                pcx, pcy = box_center(p)
                errs.append(math.hypot(pcx - gcx, pcy - gcy))
                norm_errs.append(math.hypot((pcx - gcx) / gw, (pcy - gcy) / gh))

            def percent(values, passes) -> float:
                return 100.0 * (sum(1 for v in values if passes(v)) / n)

            success = [percent(ious, lambda v: v >= tau) for tau in SUCCESS_THRESHOLDS]
            assert np.array_equal(report.success_curve, np.array(success))
            assert report.auc == float(np.mean(np.array(success)))
            assert report.op50 == percent(ious, lambda v: v >= 0.5)
            assert report.op75 == percent(ious, lambda v: v >= 0.75)
            assert report.precision == percent(errs, lambda e: e <= 20.0)
            assert np.array_equal(
                report.precision_curve,
                np.array([percent(errs, lambda e: e <= tau) for tau in PRECISION_THRESHOLDS]),
            )
            assert report.norm_precision == percent(norm_errs, lambda e: e <= 0.2)
            assert np.array_equal(
                report.norm_precision_curve,
                np.array([percent(norm_errs, lambda e: e <= tau) for tau in NORM_PRECISION_THRESHOLDS]),
            )
            assert report.n_frames == n

        # overlap 1x1 on a 2x2-vs-2x2 offset pair: count unit grid cells
        a, b = (0, 0, 2, 2), (1, 1, 2, 2)

        def covered(box: Box, i: int, j: int) -> bool:
            x, y, w, h = box
            return x <= i and i + 1 <= x + w and y <= j and j + 1 <= y + h

        cells = [(i, j) for i in range(-2, 5) for j in range(-2, 5)]
        inter = sum(1 for i, j in cells if covered(a, i, j) and covered(b, i, j))
        union = sum(1 for i, j in cells if covered(a, i, j) or covered(b, i, j))
        assert (inter, union) == (1, 7)
        assert abs(_ious(Boxes.of([a]).xywh, Boxes.of([b]).xywh)[0] - inter / union) < 1e-12

        # the full evaluate pipeline on predictions identical to ground truth
        boxes = [(3.0 * k, 2.0 * k, 24.0, 18.0) for k in range(30)]
        for name in ("alpha", "beta"):
            for d in ("gt", "pred"):
                path = tmp_path / d / f"{name}.txt"
                path.parent.mkdir(exist_ok=True)
                path.write_text(format_boxes(Boxes.of(boxes)))
        report = tmp_path / "report.csv"
        assert main(["evaluate", "--gt", str(tmp_path / "gt"), "--pred",
                     str(tmp_path / "pred"), "--out", str(report)]) == 0
        lines = report.read_text().splitlines()
        assert [ln.split(",")[0] for ln in lines[1:]] == ["alpha", "beta", "mean"]
        for ln in lines[1:]:
            assert ln.split(",")[1:6] == ["100.0000"] * 5

        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"criterion 3 took {elapsed:.2f}s"


def test_criterion_4_calm_controller_ordering():
    """Calm-water step response: overshoot and smoothness ordering, pinned CSVs."""
    with _criterion("criterion 4 — calm-water controller ordering + golden checksums"):
        t0 = time.perf_counter()
        runs = {kind: _scenario_run("calm_line", kind) for kind in ("PID", "SMC", "SMC0", "LQR")}
        for kind, (digest, _) in runs.items():
            assert digest == GOLDEN_SHA256[("calm_line", kind)], f"calm_line/{kind} drifted"

        pid, smc0, lqr = runs["PID"][1], runs["SMC0"][1], runs["LQR"][1]
        assert pid.overshoot_pct > lqr.overshoot_pct
        assert lqr.tv_total < pid.tv_total
        assert lqr.tv_total < smc0.tv_total
        assert pid.settling_time_s <= 15.0
        assert lqr.settling_time_s <= 15.0  # sliding mode: see test_criterion_4c

        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"criterion 4 took {elapsed:.2f}s"


@pytest.mark.xfail(
    strict=True,
    reason="sliding-mode yaw channel stalls where the switching term balances the "
    "equivalent control: |e_psi| -> eta_psi/(Izz*lambda_psi) ~ 0.39 rad with the "
    "shipped gains, so the 0.05 rad band is never reached",
)
def test_criterion_4c_smc_settling():
    """The unmodified settling requirement for the sliding-mode controller."""
    summary = _scenario_run("calm_line", "SMC")[1]
    settled = summary.settling_time_s <= 15.0
    _report(
        "criterion 4c — sliding-mode settles within 15 s",
        settled,
        "" if settled else "documented: yaw error stalls near 0.39 rad with shipped gains",
    )
    assert settled, f"sliding-mode settling_time_s = {summary.settling_time_s}"


def test_criterion_5_disturbance_robustness():
    """Waves + wind: the regulator holds heading best and at the lowest cost."""
    with _criterion("criterion 5 — rough-sea robustness ordering + golden checksums"):
        t0 = time.perf_counter()
        for scenario in ("sea_line", "sea_triangle"):
            runs = {kind: _scenario_run(scenario, kind) for kind in ("PID", "SMC", "LQR")}
            for kind, (digest, _) in runs.items():
                assert digest == GOLDEN_SHA256[(scenario, kind)], f"{scenario}/{kind} drifted"
            pid, smc, lqr = runs["PID"][1], runs["SMC"][1], runs["LQR"][1]
            assert lqr.rms_e_psi_ss <= pid.rms_e_psi_ss
            assert lqr.rms_e_psi_ss <= smc.rms_e_psi_ss
            assert lqr.cost_J < pid.cost_J
            assert lqr.cost_J < smc.cost_J

        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"criterion 5 took {elapsed:.2f}s"


def test_criterion_6_tracker_degradation():
    """Template tracker vs haze, plus the emulator's dropout closed form."""
    with _criterion("criterion 6 — tracker degradation (AUC, track loss, dropout rate)"):
        t0 = time.perf_counter()
        base = load_scenario(str(SCENARIOS / "ncc_standoff.ini"))
        assert base.sea.visibility == 1.0

        log = run_scenario(base)
        report = evaluate_boxes(log.gt_boxes(), log.pred_boxes())
        assert report.auc >= 95.0

        hazy = dataclasses.replace(base, sea=dataclasses.replace(base.sea, visibility=0.1))
        log_hazy = run_scenario(hazy)
        lost_fraction = 1.0 - float(np.mean(log_hazy.det_valid))
        assert lost_fraction >= 0.5

        # dropout probability 1 - (1 - p_drop_base) * visibility = 0.52 here
        noise = TrackerNoiseConfig(p_drop_base=0.2)
        box = (100.0, 100.0, 40.0, 40.0)
        rng = np.random.default_rng(2026)
        cam = CameraIntrinsics()
        drops = sum(1 for _ in range(10_000) if emulate_tracker(box, 0.6, noise, rng, cam) is None)
        assert abs(drops / 10_000 - 0.52) <= 0.01

        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"criterion 6 took {elapsed:.2f}s"


@pytest.mark.parametrize("visibility", sorted(NCC_GOLDEN_SHA256))
def test_ncc_standoff_golden(visibility):
    """The template-tracker scenario's run log at its shipped seed."""
    base = load_scenario(str(SCENARIOS / "ncc_standoff.ini"))
    sc = dataclasses.replace(base, sea=dataclasses.replace(base.sea, visibility=visibility))
    digest = hashlib.sha256(run_scenario(sc).to_csv().encode()).hexdigest()
    assert digest == NCC_GOLDEN_SHA256[visibility]


@functools.lru_cache(maxsize=None)
def _shipped_run(scenario: str):
    """The run log of a shipped scenario as it stands; cached per scenario."""
    return run_scenario(load_scenario(str(SCENARIOS / f"{scenario}.ini")))


@pytest.mark.parametrize("scenario", sorted(TRACKER_GOLDEN_SHA256))
def test_tracker_scenario_golden(scenario):
    """Tracker scenarios' run logs at their shipped seeds."""
    log = _shipped_run(scenario)
    assert log.error is None
    digest = hashlib.sha256(log.to_csv().encode()).hexdigest()
    assert digest == TRACKER_GOLDEN_SHA256[scenario]


def test_ncc_approach_shows_scale_change():
    """The approach makes the true box grow by a fifth while the NCC tracker keeps it in view."""
    log = _shipped_run("ncc_approach")
    assert len(log) == 751 and bool(log.det_valid.all())
    assert np.nanmax(log.gt_w) / np.nanmin(log.gt_w) > 1.2


@pytest.mark.xfail(
    strict=True,
    reason="the NCC tracker matches its template at one scale and reports the frame-0 "
    "box size on every frame, so on ncc_approach its width falls up to 21% short",
)
def test_ncc_approach_width_within_five_percent():
    """The reported box width stays within 5% of the projected one as the target nears."""
    log = _shipped_run("ncc_approach")
    both = ~np.isnan(log.det_w) & ~np.isnan(log.gt_w)
    rel = np.abs(log.det_w[both] - log.gt_w[both]) / log.gt_w[both]
    assert float(rel.max()) <= 0.05


@pytest.mark.xfail(
    strict=True,
    reason="with frame_stride > 1 guidance counts lost control steps, not lost frames: "
    "ncc_standoff at visibility 0.1 (stride 2, lost_frames_threshold 10) holds from step 2 "
    "and searches at step 12, after 5 missed frames",
)
def test_lost_frames_threshold_counts_camera_frames():
    """Guidance searches once lost_frames_threshold camera frames in a row have no box."""
    base = load_scenario(str(SCENARIOS / "ncc_standoff.ini"))
    sc = dataclasses.replace(base, duration=0.6, sea=dataclasses.replace(base.sea, visibility=0.1))
    stride, threshold = sc.sensor_noise.frame_stride, sc.guidance_cfg.lost_frames_threshold
    modes = list(run_scenario(sc).mode)
    # frame 0 finds the target and frame 1 (step 2) is the first without a box
    first_lost = modes.index("holding")
    assert modes.index("searching") == first_lost + threshold * stride, (first_lost, modes.index("searching"))


def _noisy_calm_line(kind: str):
    """calm_line for 60 s at seed 7 with every tracker and sensor noise on.

    3,001 rows, so the IMU draws span more than one block. Under PID and
    LQR the target crosses the 10 m lidar range, so only some steps draw
    lidar noise, and the hazy tracker reports 1,311 invalid detections.
    """
    base = load_scenario(str(SCENARIOS / "calm_line.ini"))
    return dataclasses.replace(
        base,
        duration=60.0,
        seed=7,
        sea=dataclasses.replace(base.sea, visibility=0.6),
        tracker=dataclasses.replace(base.tracker, noise=TrackerNoiseConfig(2.0, 0.05, 0.05)),
        sensor_noise=SensorNoise(
            lidar_sigma=0.1, u_sigma=0.02, psi_sigma=0.01, r_sigma=0.01, frame_stride=2
        ),
        guidance_cfg=dataclasses.replace(base.guidance_cfg, lidar_max_range=10.0),
        controller=ControllerSpec(kind=ControllerKind[kind]),
    )


@pytest.mark.parametrize("kind", sorted(NOISY_GOLDEN_SHA256))
def test_noisy_calm_line_golden(kind):
    """The tracker, IMU and lidar draws of a noisy run, pinned byte for byte."""
    log = run_scenario(_noisy_calm_line(kind))
    assert len(log) == 3001 and log.error is None
    digest = hashlib.sha256(log.to_csv().encode()).hexdigest()
    assert digest == NOISY_GOLDEN_SHA256[kind]


def _noisy_sea_line(kind: str):
    """sea_line at visibility 0.3 with every tracker and sensor noise on, heading psi0 = pi.

    The hull starts facing away from the target, so it searches, turns
    through +-pi (where the noisy heading measurement wraps) and meets the
    target at the image edge, where a jittered box can leave the frame.
    """
    base = load_scenario(str(SCENARIOS / "sea_line.ini"))
    return dataclasses.replace(
        base,
        initial=BodyState(pose=Pose2D(psi=math.pi)),
        sea=dataclasses.replace(base.sea, visibility=0.3),
        tracker=dataclasses.replace(base.tracker, noise=TrackerNoiseConfig(2.0, 0.05, 0.05)),
        sensor_noise=SensorNoise(lidar_sigma=0.1, u_sigma=0.02, psi_sigma=0.05, r_sigma=0.01),
        controller=ControllerSpec(kind=ControllerKind[kind]),
    )


@pytest.mark.parametrize("kind", sorted(NOISY_SEA_LINE_SHA256))
def test_noisy_sea_line_golden(kind):
    """Dropouts, off-image jitter, searching and the IMU heading wrap, pinned byte for byte."""
    log = run_scenario(_noisy_sea_line(kind))
    assert len(log) == 2001 and log.error is None
    assert set(log.mode) == {"tracking", "holding", "searching"}
    assert (np.abs(np.diff(log.psi)) > math.pi).any()  # the heading crossed +-pi
    digest = hashlib.sha256(log.to_csv().encode()).hexdigest()
    assert digest == NOISY_SEA_LINE_SHA256[kind]


def test_criterion_7_determinism(tmp_path):
    """Bit-identical reruns, and each sweep row the summary of its variant run alone."""
    with _criterion("criterion 7 — end-to-end determinism (reruns + sweep rows = lone variant runs)"):
        scenario = str(SCENARIOS / "sea_line.ini")
        for d in ("a", "b"):
            assert main(["simulate", "--scenario", scenario,
                         "--out", str(tmp_path / d)]) == 0
        for name in ("runlog.csv", "groundtruth.txt", "predictions.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

        out = tmp_path / "sweep.csv"
        values = ["0.4", "0.7", "1.0"]
        assert main(["sweep", "--scenario", scenario, "--axis", "sea.visibility",
                     "--values", ",".join(values), "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        assert [row[:2] for row in rows] == [["sea.visibility", v] for v in values]
        keys = load_keys(scenario)
        for index, (value, row) in enumerate(zip(values, rows)):
            variant = sweep_variant(keys, "sea.visibility", value, index)
            summary = summarize(run_scenario(variant), variant.cost)
            assert row[2:] == [repr(float(v)) for v in dataclasses.astuple(summary)]


def test_criterion_8_report_pipeline_shape(tmp_path):
    """The evaluation report's columns and row layout, and the documented scope."""
    with _criterion("criterion 8 — evaluation report shape + documented scope"):
        assert REPORT_COLUMNS == (
            "sequence", "auc", "op50", "op75", "precision", "norm_precision", "n_frames",
        )

        # an imperfect tracker still fills every documented column and curve
        gt = [(10.0 * k, 5.0 * k, 30.0, 30.0) for k in range(20)]
        pred = [(x + 4.0, y - 3.0, w, h) for x, y, w, h in gt]
        (tmp_path / "gt").mkdir()
        (tmp_path / "pred").mkdir()
        (tmp_path / "gt" / "seq.txt").write_text(format_boxes(Boxes.of(gt)))
        (tmp_path / "pred" / "seq.txt").write_text(format_boxes(Boxes.of(pred)))
        report = tmp_path / "report.csv"
        assert main(["evaluate", "--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"),
                     "--out", str(report), "--curves"]) == 0
        curves = report.with_name("report_curves.csv")
        lines = report.read_text().splitlines()
        assert lines[0] == ",".join(REPORT_COLUMNS)
        assert [ln.split(",")[0] for ln in lines[1:]] == ["seq", "mean"]
        assert all(len(ln.split(",")) == len(REPORT_COLUMNS) for ln in lines[1:])
        curve_lines = curves.read_text().splitlines()
        assert curve_lines[0] == "sequence,curve,threshold,value"
        per_row = 101 + 51 + 51  # success, precision, normalized-precision points
        assert len(curve_lines) == 1 + 2 * per_row

        # the benchmark's absolute tables are declared out of scope up front
        readme = (ROOT / "README.md").read_text()
        assert "Out of scope" in readme
        docs = (ROOT / "docs" / "logformat.md").read_text()
        for column in LOG_COLUMNS:
            assert f"`{column}`" in docs
