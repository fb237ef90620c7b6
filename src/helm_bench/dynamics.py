"""Differential-thrust 3-DOF plant: thrust mixing, sea disturbance, RK4 step."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import BodyState, ConfigError, IntegrationError, UsvParams, wrap_angle


@dataclass(frozen=True)
class ThrustPair:
    """Per-thruster forces."""

    left: float = 0.0  # N
    right: float = 0.0  # N


@dataclass(frozen=True)
class GeneralizedThrust:
    """Surge/yaw channel commands: T1 drives surge, T2 the yaw couple."""

    T1: float = 0.0  # N
    T2: float = 0.0  # N (differential force; moment is T2 * l)


@dataclass(frozen=True)
class SeaState:
    """Wave forcing and wind drift knobs plus optical visibility."""

    wave_gain: float = 0.0  # dimensionless scale on both wave channels
    wave_period: float = 5.0  # s
    wave_phase: float = 0.0  # rad
    wave_force_amp: float = 10.0  # N, surge forcing at gain 1
    wave_torque_amp: float = 2.0  # N m, yaw forcing at gain 1
    wind_x: float = 0.0  # m/s, world frame
    wind_y: float = 0.0  # m/s, world frame
    wind_drag_coeff: float = 2.0  # N s/m
    visibility: float = 1.0  # in [0, 1]

    def __post_init__(self) -> None:
        if not self.wave_period > 0.0:
            raise ConfigError("wave_period must be > 0")
        if not 0.0 <= self.visibility <= 1.0:
            raise ConfigError("visibility must lie in [0, 1]")


CALM = SeaState()


@dataclass(frozen=True)
class Disturbance:
    """Environmental forcing resolved for one instant."""

    f_surge: float = 0.0  # N
    tau_yaw: float = 0.0  # N m
    drift: tuple[float, float] = (0.0, 0.0)  # m/s, world frame


@dataclass(frozen=True)
class StateDerivative:
    dx: float
    dy: float
    dpsi: float
    du: float
    dr: float


def thrust_forces(T1: float, T2: float, params: UsvParams) -> tuple[float, float]:
    """Saturated per-thruster forces (left, right) for the channel commands.

    The float form of saturate(mix(GeneralizedThrust(T1, T2)), params); the
    commands the thrusters then apply are T1 = left + right, T2 = right - left.
    """
    lo, hi = params.thrust_min, params.thrust_max
    half_T1, half_T2 = T1 / 2.0, T2 / 2.0
    left = half_T1 - half_T2
    left = lo if lo > left else left
    left = hi if hi < left else left
    right = half_T1 + half_T2
    right = lo if lo > right else right
    right = hi if hi < right else right
    return left, right


def mix(gen: GeneralizedThrust) -> ThrustPair:
    """Split channel commands onto the two thrusters."""
    return ThrustPair(gen.T1 / 2.0 - gen.T2 / 2.0, gen.T1 / 2.0 + gen.T2 / 2.0)


def unmix(pair: ThrustPair) -> GeneralizedThrust:
    """Exact inverse of mix()."""
    return GeneralizedThrust(T1=pair.left + pair.right, T2=pair.right - pair.left)


def saturate(pair: ThrustPair, params: UsvParams) -> ThrustPair:
    """Clamp each thruster to its force limits."""
    lo, hi = params.thrust_min, params.thrust_max
    return ThrustPair(min(max(pair.left, lo), hi), min(max(pair.right, lo), hi))


def _forcing(
    t: float, sea: SeaState, u: float, psi: float, params: UsvParams
) -> tuple[float, float, float, float]:
    """(f_surge, tau_yaw, drift_x, drift_y) at time t for surge speed u and heading psi.

    Waves force surge and yaw as phase-offset sinusoids; wind enters as a
    kinematic drift proportional to the relative wind over the hull. A calm
    sea (zero wave gain, zero wind) is exactly disturbance-free whatever the
    vessel is doing — the relative-wind drag applies only once wind or waves
    are switched on.
    """
    if sea.wave_gain == 0.0 and sea.wind_x == 0.0 and sea.wind_y == 0.0:
        return 0.0, 0.0, 0.0, 0.0
    arg = 2.0 * math.pi * t / sea.wave_period + sea.wave_phase
    if math.isfinite(arg):
        f_surge = sea.wave_gain * sea.wave_force_amp * math.sin(arg)
        tau_yaw = sea.wave_gain * sea.wave_torque_amp * math.sin(arg + math.pi / 2.0)
    elif sea.wave_gain == 0.0:  # zero waves at any phase; math.sin would raise ValueError
        f_surge = tau_yaw = 0.0
    else:
        raise IntegrationError(f"non-finite wave phase at t={t}: {arg!r}")
    vx = u * math.cos(psi)
    vy = u * math.sin(psi)
    scale = sea.wind_drag_coeff / params.m
    return f_surge, tau_yaw, scale * (sea.wind_x - vx), scale * (sea.wind_y - vy)


def derivatives(
    state: BodyState, pair: ThrustPair, dist: Disturbance, params: UsvParams
) -> StateDerivative:
    """Reduced 3-DOF rates; accelerations clamp at the actuator caps."""
    du = (pair.left + pair.right + dist.f_surge) / params.m
    du = min(max(du, -params.udot_max), params.udot_max)
    dr = ((pair.right - pair.left) * params.l + dist.tau_yaw) / params.Izz
    dr = min(max(dr, -params.rdot_max), params.rdot_max)
    u, psi = state.u, state.pose.psi
    return StateDerivative(u * math.cos(psi) + dist.drift[0], u * math.sin(psi) + dist.drift[1], state.r, du, dr)


def step(
    x: float,
    y: float,
    psi: float,
    u: float,
    r: float,
    left: float,
    right: float,
    sea: SeaState,
    t: float,
    dt: float,
    params: UsvParams,
) -> tuple[float, float, float, float, float]:
    """Advance the state (x, y, psi, u, r) one fixed RK4 step under thrusts (left, right).

    psi must be wrapped onto (-pi, pi], and the returned heading is. The
    disturbance is evaluated once at the step start and held constant
    across the four stages, keeping the step deterministic in t. The surge
    and yaw accelerations depend only on the thrust and the disturbance, so
    they are held over the step as well. Each stage's heading is wrapped
    onto (-pi, pi] before its cos and sin; a stage or result that leaves the
    finite domain raises IntegrationError.
    """
    if not 0.0 < dt <= 0.1:
        raise ValueError(f"dt must lie in (0, 0.1], got {dt}")
    f_surge, tau_yaw, wx, wy = _forcing(t, sea, u, psi, params)
    # The accelerations, each clamped at its actuator cap.
    cap = params.udot_max
    du = (left + right + f_surge) / params.m
    du = -cap if -cap > du else du
    du = cap if cap < du else du
    cap = params.rdot_max
    dr = ((right - left) * params.l + tau_yaw) / params.Izz
    dr = -cap if -cap > dr else dr
    dr = cap if cap < dr else dr
    # The rates of x and y do not depend on x and y, so no stage position
    # is formed; stages 2 and 3 share their speed and rate. The stage-1
    # heading is psi, wrapped already.
    h = 0.5 * dt
    u2 = u + h * du
    r2 = r + h * dr
    u4 = u + dt * du
    r4 = r + dt * dr
    cos, sin, pi = math.cos, math.sin, math.pi
    try:
        dx1, dy1 = u * cos(psi) + wx, u * sin(psi) + wy
        stage = psi + h * r
        stage = stage if -pi < stage <= pi else wrap_angle(stage)
        dx2, dy2 = u2 * cos(stage) + wx, u2 * sin(stage) + wy
        stage = psi + h * r2
        stage = stage if -pi < stage <= pi else wrap_angle(stage)
        dx3, dy3 = u2 * cos(stage) + wx, u2 * sin(stage) + wy
        stage = psi + dt * r2
        stage = stage if -pi < stage <= pi else wrap_angle(stage)
        dx4, dy4 = u4 * cos(stage) + wx, u4 * sin(stage) + wy
    except ValueError as exc:  # from wrap_angle
        raise IntegrationError(f"non-finite heading inside step at t={t}: {exc}") from None
    c = dt / 6.0
    x = x + c * (dx1 + 2.0 * dx2 + 2.0 * dx3 + dx4)
    y = y + c * (dy1 + 2.0 * dy2 + 2.0 * dy3 + dy4)
    psi = psi + c * (r + 2.0 * r2 + 2.0 * r2 + r4)
    u = u + c * (du + 2.0 * du + 2.0 * du + du)
    r = r + c * (dr + 2.0 * dr + 2.0 * dr + dr)
    isfinite = math.isfinite
    if not (isfinite(x) and isfinite(y) and isfinite(psi) and isfinite(u) and isfinite(r)):
        raise IntegrationError(f"non-finite state after step at t={t}: {[x, y, psi, u, r]}")
    cap = params.u_abs_cap
    u = -cap if -cap > u else u
    u = cap if cap < u else u
    cap = params.r_abs_cap
    r = -cap if -cap > r else r
    r = cap if cap < r else r
    return x, y, psi if -pi < psi <= pi else wrap_angle(psi), u, r
