"""Scenario definitions, target trajectories, the closed-loop driver,
structured run logs and parameter sweeps."""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import control, dynamics, guidance, metrics, sensors
from .core import (
    BodyState,
    Box,
    CameraIntrinsics,
    ConfigError,
    IntegrationError,
    NumericalError,
    Pose,
    Pose2D,
    UsvParams,
    wrap_angle,
)
from .seeding import normal_rows, stream


class TrajectoryKind(enum.Enum):
    LINE = "line"
    TRIANGLE = "triangle"
    STATIONARY = "stationary"


_LINE, _STATIONARY = TrajectoryKind.LINE, TrajectoryKind.STATIONARY  # read per step, as cheap globals


@dataclass(frozen=True)
class TrajectorySpec:
    """Target motion plus its physical extent (meters) for projection."""

    kind: TrajectoryKind = TrajectoryKind.LINE
    origin: Pose2D = field(default_factory=Pose2D)
    speed: float = 1.0  # m/s along the path
    vertices: tuple[tuple[float, float], ...] | None = None  # TRIANGLE only
    extent: float = 2.0  # m, target size seen by the camera
    triangle_center: tuple[float, float] = (40.0, 0.0)  # m, TRIANGLE without vertices only
    triangle_side: float = 20.0  # m, TRIANGLE without vertices only

    def __post_init__(self) -> None:
        if self.speed < 0.0:
            raise ConfigError("target speed must be >= 0")
        if not self.extent > 0.0:
            raise ConfigError("target extent must be > 0")
        if self.kind is TrajectoryKind.TRIANGLE:
            if len(self.corners) != 3:
                raise ConfigError("TRIANGLE needs exactly 3 vertices")
            if not all(0.0 < edge[4] < math.inf for edge in self.edges):
                raise ConfigError("triangle edges must have positive, finite length")

    @functools.cached_property
    def corners(self) -> tuple[tuple[float, float], ...]:
        """The TRIANGLE's corners: the vertices given, or else the equilateral triangle of
        side triangle_side around triangle_center, first corner straight above the centroid."""
        if self.vertices is not None:
            return self.vertices
        if not self.triangle_side > 0.0:  # a negative side would put the first corner below the centroid
            raise ConfigError("triangle_side must be > 0")
        (cx, cy), radius = self.triangle_center, self.triangle_side / math.sqrt(3.0)
        angles = [math.pi / 2.0 + 2.0 * math.pi * k / 3.0 for k in range(3)]
        return tuple((cx + radius * math.cos(a), cy + radius * math.sin(a)) for a in angles)

    @functools.cached_property
    def edges(self) -> tuple[tuple[float, float, float, float, float, float], ...]:
        """(ax, ay, ex, ey, length, psi) of each edge of the closed TRIANGLE path.

        psi is the edge heading, wrapped onto (-pi, pi] as Pose2D stores it:
        atan2 gives -pi for an edge pointing along -x.
        """
        edges = []
        for i in range(3):
            ax, ay = self.corners[i]
            bx, by = self.corners[(i + 1) % 3]
            ex, ey = bx - ax, by - ay
            edges.append((ax, ay, ex, ey, math.hypot(ex, ey), wrap_angle(math.atan2(ey, ex))))
        return tuple(edges)

    @functools.cached_property
    def perimeter(self) -> float:
        return sum(e[4] for e in self.edges)


def target_pose(spec: TrajectorySpec, t: float) -> Pose:
    """Pose (x, y, psi) of the target at time t (>= 0); triangles loop at constant speed.

    Exactly at a vertex the heading already points along the next edge.
    """
    if t < 0.0:
        raise ValueError("t must be >= 0")
    origin, kind = spec.origin, spec.kind
    if kind is _LINE:
        s, psi = spec.speed * t, origin.psi
        return (origin.x + s * math.cos(psi), origin.y + s * math.sin(psi), psi)
    if kind is _STATIONARY:
        return (origin.x, origin.y, origin.psi)
    s = math.fmod(spec.speed * t, spec.perimeter)
    for ax, ay, ex, ey, length, psi in spec.edges:
        if s < length:
            f = s / length
            return (ax + f * ex, ay + f * ey, psi)
        s -= length
    # fmod rounding can land exactly on the perimeter: wrap to the first vertex.
    ax, ay, _, _, _, psi = spec.edges[0]
    return (ax, ay, psi)


class ControllerKind(enum.Enum):
    PID = "pid"
    SMC = "smc"
    LQR = "lqr"


@dataclass(frozen=True)
class ControllerSpec:
    kind: ControllerKind = ControllerKind.LQR
    pid: control.PidGains = field(default_factory=control.PidGains)
    smc: control.SmcGains = field(default_factory=control.SmcGains)
    lqr: control.LqrWeights = field(default_factory=control.LqrWeights)

    def build(self, params: UsvParams, dt: float) -> Callable[[guidance.GuidanceCommand, tuple], tuple[float, float]]:
        """The run's control law: a function from a guidance command and the measured (u, psi, r) to (T1, T2).

        Each law keeps a fresh ControllerState of its own. An LQR gain is solved
        here, once; a plant with none raises NumericalError. The laws look their
        step functions up in control on every call, so a wrapper set there sees each one.
        """
        state = control.ControllerState()
        if self.kind is ControllerKind.PID:
            pid = self.pid
            return lambda cmd, meas: control.pid_step(state, cmd.u_ref - meas[0], cmd.e_psi, dt, pid)
        if self.kind is ControllerKind.SMC:
            smc = self.smc

            def smc_law(cmd, meas):
                psi_ref = meas[1] + cmd.e_psi
                psi_ref = psi_ref if -math.pi < psi_ref <= math.pi else wrap_angle(psi_ref)
                refs = control.smc_refs(state, cmd.u_ref, psi_ref, meas[0], dt, smc)
                return control.smc_step(state, refs, meas, smc, params)

            return smc_law
        gain = control.lqr_gain(params, self.lqr)

        def lqr_law(cmd, meas):
            psi_ref = meas[1] + cmd.e_psi
            psi_ref = psi_ref if -math.pi < psi_ref <= math.pi else wrap_angle(psi_ref)
            return control.lqr_step(gain, meas, (cmd.u_ref, psi_ref))

        return lqr_law


MAX_NCC_CAMERA_PIXELS = 4096 * 4096


class TrackerKind(enum.Enum):
    EMULATOR = "emulator"
    NCC = "ncc"


@dataclass(frozen=True)
class TrackerSpec:
    kind: TrackerKind = TrackerKind.EMULATOR
    noise: sensors.TrackerNoiseConfig = field(default_factory=sensors.TrackerNoiseConfig)
    ncc_peak_threshold: float = 0.2
    ncc_search_halfwidth: int | None = None
    ncc_context_margin: float = 0.35
    render_noise_sigma: float = 0.02

    def __post_init__(self) -> None:
        self._ncc()  # reject here what NccTracker would reject once the run has started
        if self.render_noise_sigma < 0.0:
            raise ConfigError("render_noise_sigma must be >= 0")
        object.__setattr__(self, "render_noise_sigma", abs(self.render_noise_sigma))  # -0.0 as 0.0

    def _ncc(self) -> sensors.NccTracker:
        return sensors.NccTracker(self.ncc_peak_threshold, self.ncc_search_halfwidth, self.ncc_context_margin)

    def build(self, seed: int, cam: CameraIntrinsics, visibility: float) -> Callable[[Box | None], Box | None]:
        """The run's tracker: a function from a frame's projected box to the reported box, or None.

        The emulator draws from stream(seed, "tracker"); the NCC tracker renders from "render".
        """
        if self.kind is TrackerKind.EMULATOR:
            rng, noise = stream(seed, "tracker"), self.noise
            return lambda truth: sensors.emulate_tracker(truth, visibility, noise, rng, cam)
        ncc, rng, sigma = self._ncc(), stream(seed, "render"), self.render_noise_sigma
        return lambda truth: ncc.observe(truth, cam, visibility, rng, sigma)


@dataclass(frozen=True)
class SensorNoise:
    """Measurement-channel sigmas and the camera frame stride."""

    lidar_sigma: float = 0.0  # m
    u_sigma: float = 0.0  # m/s
    psi_sigma: float = 0.0  # rad
    r_sigma: float = 0.0  # rad/s
    frame_stride: int = 1  # detections refresh every N control steps

    def __post_init__(self) -> None:
        if self.frame_stride < 1:
            raise ConfigError("frame_stride must be >= 1")
        if min(self.lidar_sigma, self.u_sigma, self.psi_sigma, self.r_sigma) < 0.0:
            raise ConfigError("sensor sigmas must be >= 0")
        # -0.0 passes the check above, but rng.normal rejects it as a scale.
        for name in ("lidar_sigma", "u_sigma", "psi_sigma", "r_sigma"):
            object.__setattr__(self, name, abs(getattr(self, name)))


@dataclass(frozen=True)
class Scenario:
    name: str = "scenario"
    duration: float = 30.0  # s
    dt: float = 0.02  # s
    seed: int = 0
    params: UsvParams = field(default_factory=UsvParams)
    initial: BodyState = field(default_factory=BodyState)
    target: TrajectorySpec = field(default_factory=TrajectorySpec)
    sea: dynamics.SeaState = field(default_factory=dynamics.SeaState)
    camera: CameraIntrinsics = field(default_factory=CameraIntrinsics)
    guidance_cfg: guidance.GuidanceConfig = field(default_factory=guidance.GuidanceConfig)
    tracker: TrackerSpec = field(default_factory=TrackerSpec)
    controller: ControllerSpec = field(default_factory=ControllerSpec)
    cost: metrics.CostWeights = field(default_factory=metrics.CostWeights)
    sensor_noise: SensorNoise = field(default_factory=SensorNoise)

    def __post_init__(self) -> None:
        if not self.duration > 0.0:
            raise ConfigError("duration must be > 0")
        if not 0.0 < self.dt <= 0.1:
            raise ConfigError("dt must lie in (0, 0.1]")
        if self.duration / self.dt > 1e7:  # before n_steps, which overflows on an infinite quotient
            raise ConfigError("scenario too long: duration/dt exceeds 1e7 steps")
        if self.n_steps < 1:
            raise ConfigError("duration must span at least one step of dt")
        t_end = self.n_steps * self.dt  # the last t that target_pose sees
        if self.target.kind is not TrajectoryKind.STATIONARY and not math.isfinite(self.target.speed * t_end):
            raise ConfigError("a moving target's speed * duration must be finite")
        pixels = self.camera.width * self.camera.height
        if self.tracker.kind is TrackerKind.NCC and pixels > MAX_NCC_CAMERA_PIXELS:
            # The NCC tracker renders up to a whole frame of float64 pixels.
            raise ConfigError(
                f"an ncc tracker needs a camera of at most {MAX_NCC_CAMERA_PIXELS} pixels, "
                f"got {self.camera.width}x{self.camera.height}"
            )

    @property
    def n_steps(self) -> int:
        """Control steps after t = 0: the run logs n_steps + 1 records."""
        return int(math.floor(self.duration / self.dt + 1e-9))


@dataclass(eq=False)
class RunLog:
    """Column-oriented run record; exact CSV layout in docs/logformat.md."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    psi: np.ndarray
    u: np.ndarray
    r: np.ndarray
    target_x: np.ndarray
    target_y: np.ndarray
    target_psi: np.ndarray
    det_valid: np.ndarray  # 0/1
    det_x: np.ndarray
    det_y: np.ndarray
    det_w: np.ndarray
    det_h: np.ndarray
    lidar: np.ndarray  # nan when out of range
    mode: list[str]
    u_ref: np.ndarray
    e_psi: np.ndarray
    e_d: np.ndarray
    e_y: np.ndarray
    T1: np.ndarray
    T2: np.ndarray
    TL: np.ndarray
    TR: np.ndarray
    gt_x: np.ndarray
    gt_y: np.ndarray
    gt_w: np.ndarray
    gt_h: np.ndarray
    error: str | None = None

    def __len__(self) -> int:
        return len(self.t)

    def _boxes(self, prefix: str) -> metrics.Boxes:
        x, y, w, h = (getattr(self, f"{prefix}_{c}") for c in "xywh")
        return metrics.Boxes(np.column_stack([x, y, w, h]), ~np.isnan(x))

    def gt_boxes(self) -> metrics.Boxes:
        """The projected target box of each record; a row whose gt_x is nan is a miss."""
        return self._boxes("gt")

    def pred_boxes(self) -> metrics.Boxes:
        """The tracker's box of each record; a row whose det_x is nan is a miss."""
        return self._boxes("det")

    def to_csv(self) -> str:
        """Deterministic CSV: shortest round-trip float formatting."""
        # Each column is read once as Python numbers; lazy per-column
        # iterators then let zip format one row at a time, so no column of
        # cell strings is held whole.
        cells = []
        for name in LOG_COLUMNS:
            column = getattr(self, name)
            if name == "mode":
                cells.append(column)
            elif name == "det_valid":
                cells.append(map(str, map(int, np.asarray(column).tolist())))
            else:
                cells.append(map(repr, np.asarray(column, dtype=float).tolist()))
        lines = [",".join(LOG_COLUMNS)] + [",".join(row) for row in zip(*cells, strict=True)]
        if self.error is not None:
            lines.insert(0, f"# error: {self.error}")
        lines.append("")  # the final newline, without copying the joined text
        return "\n".join(lines)

    @classmethod
    def from_csv(cls, text: str) -> "RunLog":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        error = None
        if lines and lines[0].startswith("# error:"):
            error = lines[0][len("# error:") :].strip()
            lines = lines[1:]
        if not lines or tuple(lines[0].split(",")) != LOG_COLUMNS:
            raise ConfigError("unrecognized run-log header")
        rows = [ln.split(",") for ln in lines[1:]]
        for i, row in enumerate(rows, start=1):
            if len(row) != len(LOG_COLUMNS):
                raise ConfigError(f"run-log row {i} has {len(row)} cells, expected {len(LOG_COLUMNS)}")
        try:
            columns = _columns(rows)
        except ValueError as exc:
            raise ConfigError(f"malformed run-log cell: {exc}") from None
        if not np.isin(columns["det_valid"], (0, 1)).all():
            raise ConfigError("run-log det_valid must be 0 or 1")
        modes = {m.value for m in guidance.GuidanceMode}
        for i, mode in enumerate(columns["mode"], start=1):
            if mode not in modes:
                raise ConfigError(f"run-log row {i}: {mode!r} is not a guidance mode")
        return cls(**columns, error=error)


# CSV column order: every RunLog field except the error note.
LOG_COLUMNS = tuple(f.name for f in dataclasses.fields(RunLog) if f.name != "error")


def _columns(rows: list) -> dict:
    """Typed RunLog columns from rows holding one cell per LOG_COLUMNS entry.

    Cells may be values or their CSV text: mode stays a list of strings,
    det_valid becomes an int array and every other column a float array.
    """
    columns = zip(*rows) if rows else [()] * len(LOG_COLUMNS)
    data: dict = {}
    for name, column in zip(LOG_COLUMNS, columns):
        if name == "mode":
            data[name] = list(column)
        elif name == "det_valid":
            data[name] = np.array(column, dtype=int)
        else:
            data[name] = np.array(column, dtype=float)
    return data


def run_scenario(sc: Scenario) -> RunLog:
    """Drive the closed loop and return the structured log.

    One record per control step at t = k*dt for k = 0..floor(duration/dt);
    the state advance after the last record is not logged. Identical
    (scenario, seed) pairs produce bit-identical logs. If the plant leaves
    the finite domain the log is truncated and carries an error note; if
    no LQR gain can be solved for the plant, the log has no rows.
    """
    n_steps = sc.n_steps
    params = sc.params
    cam = sc.camera

    noise = sc.sensor_noise
    # Each stream is private to this run and keyed by its label, so draws a
    # truncated run never reaches are never seen, and a stream the tracker
    # kind never draws from need not be built.
    observe = sc.tracker.build(sc.seed, cam, sc.sea.visibility)
    lidar_noise = normal_rows(stream(sc.seed, "lidar"), noise.lidar_sigma, n_steps + 1)
    imu_noise = normal_rows(
        stream(sc.seed, "imu"), (noise.u_sigma, noise.psi_sigma, noise.r_sigma), n_steps + 1
    )

    gstate = guidance.GuidanceState()
    try:
        law = sc.controller.build(params, sc.dt)
    except NumericalError as exc:
        return RunLog(**_columns([]), error=f"no LQR gain: {exc}")

    rows: list[tuple] = []
    no_box = (math.nan,) * 4
    mode_text = {mode: mode.value for mode in guidance.GuidanceMode}
    # The plant state as floats; Pose2D holds psi wrapped, and step keeps it so.
    init = sc.initial
    x, y, psi, u, r = init.pose.x, init.pose.y, init.pose.psi, init.u, init.r
    # Per-run constants, read once.
    dt, sea, gcfg, spec = sc.dt, sc.sea, sc.guidance_cfg, sc.target
    extent, stride, lidar_max = spec.extent, noise.frame_stride, gcfg.lidar_max_range
    box = None  # the tracker's (x, y, w, h) box, None while it reports none; det_* hold its log cells
    e_y = 0.0
    error: str | None = None

    # dynamics.step's finite check turns an overflow into a logged abort, so
    # numpy need not warn about it first.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps + 1):
            t = k * dt
            target = target_pose(spec, t)
            pose = (x, y, psi)
            gt_box = sensors.project_target(pose, target, extent, cam)

            if k % stride == 0:
                box = observe(gt_box)
                if box is None:
                    det_valid, (det_x, det_y, det_w, det_h) = 0, no_box
                else:
                    det_valid = 1
                    det_x, det_y, det_w, det_h = box
                    e_y = (cam.cy - (det_y + det_h / 2.0)) / cam.fx

            rng_range = sensors.lidar_range(pose, target, lidar_max, lidar_noise)
            try:
                meas = sensors.measure_state(u, psi, r, next(imu_noise))
            except ValueError as exc:  # from wrap_angle: the heading noise overflowed
                error = f"non-finite heading measurement at t={t}: {exc}"
                break
            cmd = guidance.guidance_step(box, rng_range, gcfg, cam, gstate)
            T1, T2 = law(cmd, meas)
            left, right = dynamics.thrust_forces(T1, T2, params)

            # One cell per LOG_COLUMNS entry, in RunLog field order.
            tx, ty, tpsi = target
            mode, u_ref, e_psi, e_d = cmd
            gt_x, gt_y, gt_w, gt_h = no_box if gt_box is None else gt_box
            rows.append(
                (
                    t, x, y, psi, u, r, tx, ty, tpsi,
                    det_valid, det_x, det_y, det_w, det_h,
                    math.nan if rng_range is None else rng_range,
                    mode_text[mode], u_ref, e_psi, e_d, e_y,
                    left + right, right - left, left, right,
                    gt_x, gt_y, gt_w, gt_h,
                )
            )

            if k < n_steps:
                try:
                    x, y, psi, u, r = dynamics.step(x, y, psi, u, r, left, right, sea, t, dt, params)
                except IntegrationError as exc:
                    error = str(exc)
                    break

    return RunLog(**_columns(rows), error=error)


# --- run summaries and sweeps -------------------------------------------


@dataclass(frozen=True)
class RunSummary:
    """Step-response style figures of merit for one closed-loop run; a sweep CSV row's cells."""

    settling_time_s: float  # s until |e_psi| stays within 0.05 rad; inf if never
    overshoot_pct: float  # % of the initial |e_psi| crossed past zero
    rms_e_psi_ss: float  # rad, RMS over the last quarter of the run
    tv_left: float  # N, total variation of the left thruster
    tv_right: float
    tv_total: float
    cost_J: float  # tracking cost J


SETTLE_BAND = 0.05  # rad


def summarize(log: RunLog, w: metrics.CostWeights) -> RunSummary:
    e = np.asarray(log.e_psi, dtype=float)
    t = np.asarray(log.t, dtype=float)

    # The band holds through the end from the index after the last sample outside it (NaN is outside).
    outside = np.flatnonzero(~(np.abs(e) <= SETTLE_BAND))
    holds_from = outside[-1] + 1 if len(outside) else 0
    settling = float(t[holds_from]) if holds_from < len(e) else math.inf

    e0 = e[0]
    if e0 == 0.0:
        overshoot = 0.0
    else:
        past_zero = np.maximum(-np.sign(e0) * e, 0.0)
        overshoot = float(100.0 * past_zero.max() / abs(e0))

    tail = e[3 * len(e) // 4 :]
    rms_ss = float(np.sqrt(np.mean(tail**2)))

    tv_left = float(np.abs(np.diff(log.TL)).sum())
    tv_right = float(np.abs(np.diff(log.TR)).sum())
    return RunSummary(
        settling_time_s=settling,
        overshoot_pct=overshoot,
        rms_e_psi_ss=rms_ss,
        tv_left=tv_left,
        tv_right=tv_right,
        tv_total=tv_left + tv_right,
        cost_J=metrics.tracking_cost(log, w),
    )


def derived_seed(seed: int, label: str) -> int:
    """Stable sub-seed for a named variant of a base seed."""
    return int(stream(seed, label).integers(0, 2**62))


SWEEP_COLUMNS = ("axis", "value", *(f.name for f in dataclasses.fields(RunSummary)))


def sweep(variants: list[Scenario]) -> list[RunSummary]:
    """Run each variant and summarize it, in input order.

    A variant whose run aborts raises IntegrationError.
    """
    summaries = []
    for sc in variants:
        log = run_scenario(sc)
        if log.error is not None:
            raise IntegrationError(f"{sc.name}: run aborted early: {log.error}")
        summaries.append(summarize(log, sc.cost))
    return summaries


def run_sweep(axis: str, values: list[str], variants: list[Scenario]) -> str:
    """Run every variant and render the summary CSV: one row per value text, written as given."""
    lines = [",".join(SWEEP_COLUMNS)]
    for value, summary in zip(values, sweep(variants), strict=True):
        cells = [repr(getattr(summary, name)) for name in SWEEP_COLUMNS[2:]]
        lines.append(",".join([axis, value, *cells]))
    return "\n".join(lines) + "\n"
