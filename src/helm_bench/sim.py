"""Scenario definitions, target trajectories, the closed-loop driver,
structured run logs and parameter sweeps."""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import control, dynamics, guidance, metrics, sensors
from .core import (
    BodyState,
    BoundingBox,
    CameraIntrinsics,
    ConfigError,
    IntegrationError,
    NumericalError,
    Pose2D,
    UsvParams,
    wrap_angle,
)
from .seeding import stream


class TrajectoryKind(enum.Enum):
    LINE = "line"
    TRIANGLE = "triangle"
    STATIONARY = "stationary"


@dataclass(frozen=True)
class TrajectorySpec:
    """Target motion plus its physical extent (meters) for projection."""

    kind: TrajectoryKind = TrajectoryKind.LINE
    origin: Pose2D = field(default_factory=Pose2D)
    speed: float = 1.0  # m/s along the path
    vertices: tuple[tuple[float, float], ...] | None = None  # TRIANGLE only
    extent: float = 2.0  # m, target size seen by the camera

    def __post_init__(self) -> None:
        if self.speed < 0.0:
            raise ConfigError("target speed must be >= 0")
        if not self.extent > 0.0:
            raise ConfigError("target extent must be > 0")
        if self.kind is TrajectoryKind.TRIANGLE:
            if self.vertices is None or len(self.vertices) != 3:
                raise ConfigError("TRIANGLE needs exactly 3 vertices")
            if any(length <= 0.0 for *_, length in self.edges):
                raise ConfigError("triangle edges must have positive length")

    @functools.cached_property
    def edges(self) -> tuple[tuple[float, float, float, float, float], ...]:
        """(ax, ay, ex, ey, length) of each edge of the closed TRIANGLE path."""
        assert self.vertices is not None
        edges = []
        for i in range(3):
            ax, ay = self.vertices[i]
            bx, by = self.vertices[(i + 1) % 3]
            edges.append((ax, ay, bx - ax, by - ay, math.hypot(bx - ax, by - ay)))
        return tuple(edges)

    @functools.cached_property
    def perimeter(self) -> float:
        return sum(e[4] for e in self.edges)


def default_triangle(center: tuple[float, float] = (40.0, 0.0), side: float = 20.0):
    """Equilateral vertex set, first vertex straight above the centroid."""
    radius = side / math.sqrt(3.0)
    return tuple(
        (
            center[0] + radius * math.cos(math.pi / 2.0 + 2.0 * math.pi * k / 3.0),
            center[1] + radius * math.sin(math.pi / 2.0 + 2.0 * math.pi * k / 3.0),
        )
        for k in range(3)
    )


def target_pose(spec: TrajectorySpec, t: float) -> Pose2D:
    """Pose of the target at time t (>= 0); triangles loop at constant speed.

    Exactly at a vertex the heading already points along the next edge.
    """
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if spec.kind is TrajectoryKind.STATIONARY:
        return spec.origin
    if spec.kind is TrajectoryKind.LINE:
        return Pose2D(
            x=spec.origin.x + spec.speed * t * math.cos(spec.origin.psi),
            y=spec.origin.y + spec.speed * t * math.sin(spec.origin.psi),
            psi=spec.origin.psi,
        )
    s = math.fmod(spec.speed * t, spec.perimeter)
    for ax, ay, ex, ey, length in spec.edges:
        if s < length:
            f = s / length
            return Pose2D(x=ax + f * ex, y=ay + f * ey, psi=math.atan2(ey, ex))
        s -= length
    # fmod rounding can land exactly on the perimeter: wrap to the first vertex.
    ax, ay, ex, ey, _ = spec.edges[0]
    return Pose2D(x=ax, y=ay, psi=math.atan2(ey, ex))


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
        # Reject here what NccTracker would reject once the run has started.
        sensors.NccTracker(
            self.ncc_peak_threshold, self.ncc_search_halfwidth, self.ncc_context_margin
        )


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
        if math.floor(self.duration / self.dt + 1e-9) < 1:
            raise ConfigError("duration must span at least one step of dt")
        if self.duration / self.dt > 1e7:
            raise ConfigError("scenario too long: duration/dt exceeds 1e7 steps")


@dataclass
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

    def _boxes(self, prefix: str) -> list[BoundingBox | None]:
        xs = getattr(self, prefix + "_x")
        ys = getattr(self, prefix + "_y")
        ws = getattr(self, prefix + "_w")
        hs = getattr(self, prefix + "_h")
        out: list[BoundingBox | None] = []
        for x, y, w, h in zip(xs, ys, ws, hs):
            if math.isnan(x):
                out.append(None)
            else:
                out.append(BoundingBox(x, y, w, h))
        return out

    def gt_boxes(self) -> list[BoundingBox | None]:
        return self._boxes("gt")

    def pred_boxes(self) -> list[BoundingBox | None]:
        return self._boxes("det")

    def to_csv(self) -> str:
        """Deterministic CSV: shortest round-trip float formatting."""
        # Lazy per-column iterators: zip formats one row at a time, so no
        # column of cell strings is held whole.
        cells = []
        for name in LOG_COLUMNS:
            column = getattr(self, name)
            if name == "mode":
                cells.append(column)
            elif name == "det_valid":
                cells.append(str(int(v)) for v in column)
            else:
                cells.append(map(repr, map(float, column)))
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
    n_steps = int(math.floor(sc.duration / sc.dt + 1e-9))
    params = sc.params
    cam = sc.camera

    tracker_rng = stream(sc.seed, "tracker")
    lidar_rng = stream(sc.seed, "lidar")
    imu_rng = stream(sc.seed, "imu")
    render_rng = stream(sc.seed, "render")

    gstate = guidance.GuidanceState()
    law = sc.controller
    cstate = control.ControllerState()
    lqr = None
    if law.kind is ControllerKind.LQR:
        try:
            lqr = control.lqr_gain(params, law.lqr)
        except NumericalError as exc:
            return RunLog(**_columns([]), error=f"no LQR gain: {exc}")
    ncc = (
        sensors.NccTracker(
            peak_threshold=sc.tracker.ncc_peak_threshold,
            search_halfwidth=sc.tracker.ncc_search_halfwidth,
            context_margin=sc.tracker.ncc_context_margin,
        )
        if sc.tracker.kind is TrackerKind.NCC
        else None
    )

    rows: list[tuple] = []
    no_box = (math.nan,) * 4
    state = sc.initial
    det = sensors.Detection(valid=False)
    e_y = 0.0
    error: str | None = None

    # dynamics.step's finite check turns an overflow into a logged abort, so
    # numpy need not warn about it first.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps + 1):
            t = k * sc.dt
            target = target_pose(sc.target, t)
            gt_box = sensors.project_target(state.pose, target, sc.target.extent, cam)

            if k % sc.sensor_noise.frame_stride == 0:
                if sc.tracker.kind is TrackerKind.EMULATOR:
                    det = sensors.emulate_tracker(
                        gt_box, sc.sea.visibility, sc.tracker.noise, tracker_rng, cam
                    )
                else:
                    assert ncc is not None
                    can_start = gt_box is not None and gt_box.w >= 1.0 and gt_box.h >= 1.0
                    # Render only the region the tracker reads. A frame with
                    # nothing to read still draws its key, so later frames keep
                    # their noise.
                    if ncc.initialized or can_start:
                        roi = ncc.window((cam.height, cam.width), gt_box)
                    else:
                        roi = (0, 0, 0, 0)
                    frame = sensors.render_frame(
                        state.pose,
                        target,
                        sc.target.extent,
                        cam,
                        sc.sea.visibility,
                        render_rng,
                        noise_sigma=sc.tracker.render_noise_sigma,
                        roi=roi,
                    )
                    if ncc.initialized:
                        det = ncc.track(frame, roi)
                    elif can_start:
                        ncc.initialize(frame, gt_box, roi)
                        det = sensors.Detection(valid=True, box=gt_box, score=1.0)
                    else:
                        det = sensors.Detection(valid=False)

            rng_range = sensors.lidar_range(
                state.pose, target, sc.guidance_cfg.lidar_max_range, sc.sensor_noise.lidar_sigma, lidar_rng
            )
            meas = sensors.measure_state(
                state, sc.sensor_noise.u_sigma, sc.sensor_noise.psi_sigma, sc.sensor_noise.r_sigma, imu_rng
            )
            cmd = guidance.guidance_step(det, rng_range, sc.guidance_cfg, cam, gstate)
            if det.valid and det.box is not None:
                e_y = (cam.cy - det.box.center()[1]) / cam.fx

            if law.kind is ControllerKind.PID:
                gen = control.pid_step(cstate, cmd.u_ref - meas.u, cmd.e_psi, sc.dt, law.pid)
            else:
                psi_ref = wrap_angle(meas.psi + cmd.e_psi)
                if law.kind is ControllerKind.SMC:
                    refs = control.smc_refs(cstate, cmd.u_ref, psi_ref, meas.u, sc.dt, law.smc)
                    gen = control.smc_step(cstate, refs, meas, law.smc, params)
                else:
                    gen = control.lqr_step(lqr, meas, (cmd.u_ref, psi_ref))
            left, right = dynamics.thrust_forces(gen.T1, gen.T2, params)

            det_cells = (det.box.x, det.box.y, det.box.w, det.box.h) if det.valid and det.box else no_box
            gt_cells = (gt_box.x, gt_box.y, gt_box.w, gt_box.h) if gt_box is not None else no_box
            # One cell per LOG_COLUMNS entry, in RunLog field order.
            rows.append(
                (
                    t, state.pose.x, state.pose.y, state.pose.psi, state.u, state.r,
                    target.x, target.y, target.psi,
                    1 if det.valid else 0, *det_cells,
                    math.nan if rng_range is None else rng_range,
                    cmd.mode.value, cmd.u_ref, cmd.e_psi, cmd.e_d, e_y,
                    left + right, right - left, left, right,
                    *gt_cells,
                )
            )

            if k < n_steps:
                pair = dynamics.ThrustPair(left, right)
                try:
                    state = dynamics.step(state, pair, sc.sea, t, sc.dt, params)
                except IntegrationError as exc:
                    error = str(exc)
                    break

    return RunLog(**_columns(rows), error=error)


# --- run summaries and sweeps -------------------------------------------


@dataclass(frozen=True)
class RunSummary:
    """Step-response style figures of merit for one closed-loop run."""

    settling_time: float  # s until |e_psi| stays within 0.05 rad; inf if never
    overshoot_pct: float  # % of the initial |e_psi| crossed past zero
    rms_e_psi_ss: float  # rad, RMS over the last quarter of the run
    tv_left: float  # N, total variation of the left thruster
    tv_right: float
    tv_total: float
    cost: float  # tracking cost J


SETTLE_BAND = 0.05  # rad


def summarize(log: RunLog, w: metrics.CostWeights) -> RunSummary:
    e = np.asarray(log.e_psi, dtype=float)
    t = np.asarray(log.t, dtype=float)

    inside = np.abs(e) <= SETTLE_BAND
    settling = math.inf
    # last index from which the band holds through the end
    holds_from = len(e)
    for i in range(len(e) - 1, -1, -1):
        if inside[i]:
            holds_from = i
        else:
            break
    if holds_from < len(e):
        settling = float(t[holds_from])

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
        settling_time=settling,
        overshoot_pct=overshoot,
        rms_e_psi_ss=rms_ss,
        tv_left=tv_left,
        tv_right=tv_right,
        tv_total=tv_left + tv_right,
        cost=metrics.tracking_cost(log, w),
    )


def derived_seed(seed: int, label: str) -> int:
    """Stable sub-seed for a named variant of a base seed."""
    return int(stream(seed, label).integers(0, 2**62))


def _set_by_path(sc: Scenario, path: str, value):
    """Replace a nested scenario field addressed by a dotted path."""
    parts = path.split(".")
    chain = [sc]
    for p in parts[:-1]:
        if not dataclasses.is_dataclass(chain[-1]) or not hasattr(chain[-1], p):
            raise ConfigError(f"unknown sweep path: {path}")
        chain.append(getattr(chain[-1], p))
    if not hasattr(chain[-1], parts[-1]):
        raise ConfigError(f"unknown sweep path: {path}")
    current = getattr(chain[-1], parts[-1])
    rebuilt = _coerce_like(current, value, path)
    try:
        for obj, name in zip(chain[::-1], parts[::-1]):
            rebuilt = dataclasses.replace(obj, **{name: rebuilt})
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return rebuilt


def _coerce_like(current, value, path: str):
    """Parse a sweep value (usually a string) to the type of the current field.

    Only enum, int, float and str fields can be swept, and a float field
    takes only finite values.
    """
    field_type = type(current)
    if not isinstance(current, (enum.Enum, int, float, str)):
        raise ConfigError(f"{path}: cannot sweep a field of type {field_type.__name__}")
    try:
        if isinstance(current, enum.Enum):
            return field_type(value.lower() if isinstance(value, str) else value)
        if isinstance(value, str) or isinstance(current, float):
            value = field_type(value)
    except (ValueError, TypeError):
        raise ConfigError(f"{path}: cannot parse {value!r} as {field_type.__name__}") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{path}: {value!r} is not finite")
    return value


def sweep_variant(base: Scenario, axis: str, value, index: int) -> Scenario:
    """Materialize one sweep point with its derived seed and name."""
    sc = _set_by_path(base, axis, value)
    sc = dataclasses.replace(
        sc,
        seed=derived_seed(base.seed, f"sweep:{index}"),
        name=f"{base.name}[{axis}={_format_value(value)}]",
    )
    return sc


def _format_value(value) -> str:
    if isinstance(value, enum.Enum):
        return value.value
    return str(value)


SWEEP_COLUMNS = (
    "axis",
    "value",
    "settling_time_s",
    "overshoot_pct",
    "rms_e_psi_ss",
    "tv_left",
    "tv_right",
    "tv_total",
    "cost_J",
)


def sweep(base: Scenario, axis: str, values: list) -> list[tuple[object, RunSummary]]:
    """Run one variant per value (independent derived seeds), in input order.

    A variant whose run aborts raises IntegrationError.
    """
    variants = [sweep_variant(base, axis, v, i) for i, v in enumerate(values)]
    rows = []
    for value, sc in zip(values, variants):
        log = run_scenario(sc)
        if log.error is not None:
            raise IntegrationError(f"{sc.name}: run aborted early: {log.error}")
        rows.append((value, summarize(log, sc.cost)))
    return rows


def run_sweep(base: Scenario, axis: str, values: list) -> str:
    """Run every variant and render the summary CSV (rows in input order)."""
    lines = [",".join(SWEEP_COLUMNS)]
    for value, summary in sweep(base, axis, values):
        cells = [repr(float(v)) for v in dataclasses.astuple(summary)]
        lines.append(",".join([axis, _format_value(value), *cells]))
    return "\n".join(lines) + "\n"
