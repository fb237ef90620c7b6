"""Shared geometry types, vessel parameters and angle utilities."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

TAU = 2.0 * math.pi


Box = tuple[float, float, float, float]  # (x, y, w, h) in px, top-left origin
Pose = tuple[float, float, float]  # (x, y, psi): m, m, rad wrapped onto (-pi, pi]


def box_center(box: Box) -> tuple[float, float]:
    """Center (cx, cy) of an (x, y, w, h) box: (x + w / 2, y + h / 2)."""
    x, y, w, h = box
    return (x + w / 2.0, y + h / 2.0)


class ConfigError(ValueError):
    """Invalid configuration value or malformed scenario file."""


class EvaluationError(ValueError):
    """Benchmark input that cannot be evaluated (bad boxes, ragged files)."""


class IntegrationError(ArithmeticError):
    """Plant state left the finite domain during integration."""


class NumericalError(ArithmeticError):
    """Iterative solver failed to converge."""


def wrap_angle(theta: float) -> float:
    """Wrap an angle in radians onto (-pi, pi].

    Raises ValueError for non-finite input.
    """
    # TAU is exactly 2*pi, so the IEEE remainder of any |theta| <= pi is
    # theta itself; NaN and infinities fail the comparison.
    if -math.pi < theta <= math.pi:
        return theta
    if not math.isfinite(theta):
        raise ValueError(f"cannot wrap non-finite angle: {theta!r}")
    wrapped = math.remainder(theta, TAU)
    # IEEE remainder lands on [-pi, pi]; fold the open edge onto +pi.
    if wrapped <= -math.pi:
        wrapped = math.pi
    return wrapped


@dataclass
class Pose2D:
    """Planar pose in the world frame. psi is stored wrapped onto (-pi, pi].

    Scenario files set poses of this type; the closed loop passes (x, y, psi)
    tuples (Pose).
    """

    x: float = 0.0  # m
    y: float = 0.0  # m
    psi: float = 0.0  # rad, CCW from +x

    def __post_init__(self) -> None:
        self.psi = wrap_angle(self.psi)


@dataclass
class BodyState:
    """Reduced 3-DOF state: pose plus surge speed and yaw rate.

    Velocity caps (UsvParams.u_abs_cap / r_abs_cap) are enforced by the
    integrator, not assumed of arbitrary inputs.
    """

    pose: Pose2D = field(default_factory=Pose2D)
    u: float = 0.0  # m/s, surge
    r: float = 0.0  # rad/s, yaw rate


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics; principal point and FOV derive from width/height/fx."""

    width: int = 640  # px
    height: int = 480  # px
    fx: float = 500.0  # px
    cx: float = field(init=False)
    cy: float = field(init=False)
    hfov: float = field(init=False)  # rad

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0 or not self.fx > 0.0:
            raise ConfigError("camera needs positive width, height and fx")
        # A pixel error over fx, such as the log's e_y, is at most width / fx or height / fx.
        if not (math.isfinite(self.width / self.fx) and math.isfinite(self.height / self.fx)):
            raise ConfigError(f"camera width / fx and height / fx must be finite, got fx = {self.fx!r}")
        object.__setattr__(self, "cx", self.width / 2.0)
        object.__setattr__(self, "cy", self.height / 2.0)
        object.__setattr__(self, "hfov", 2.0 * math.atan(self.width / (2.0 * self.fx)))


@dataclass(frozen=True)
class UsvParams:
    """Rigid-body and actuator limits of the differential-thrust vessel."""

    m: float = 20.0  # kg
    Izz: float = 3.2  # kg m^2
    l: float = 0.4  # m, thruster moment arm
    udot_max: float = 10.0  # m/s^2, surge acceleration cap
    rdot_max: float = math.radians(50.0)  # rad/s^2, yaw acceleration cap
    thrust_min: float = -100.0  # N, per thruster
    thrust_max: float = 100.0  # N, per thruster
    u_abs_cap: float = 5.0  # m/s, hard integrator speed cap
    r_abs_cap: float = 2.0  # rad/s, hard integrator rate cap

    def __post_init__(self) -> None:
        for name in ("m", "Izz", "l", "udot_max", "rdot_max", "thrust_max", "u_abs_cap", "r_abs_cap"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ConfigError(f"UsvParams.{name} must be > 0, got {value}")
        if not self.thrust_min < self.thrust_max:
            raise ConfigError("thrust_min must be below thrust_max")
