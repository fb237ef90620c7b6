"""Image-based guidance: pixel errors to body-frame references plus the
tracking/holding/searching mode logic."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

from .core import Box, CameraIntrinsics, ConfigError


class SpeedLaw(enum.Enum):
    """Reference-speed policy while range information is available."""

    PAPER_CLAMPED = "paper_clamped"  # u_max * d / D, clamped into [0, u_max]
    STOP_AT_D = "stop_at_d"  # ramp to zero exactly at the standoff distance


class GuidanceMode(enum.Enum):
    TRACKING = "tracking"
    HOLDING = "holding"
    SEARCHING = "searching"


# The members guidance_step reads, as globals: a global read costs less than an enum member lookup.
_TRACKING, _HOLDING, _SEARCHING = GuidanceMode.TRACKING, GuidanceMode.HOLDING, GuidanceMode.SEARCHING
_PAPER_CLAMPED = SpeedLaw.PAPER_CLAMPED


class GuidanceCommand(NamedTuple):
    mode: GuidanceMode
    u_ref: float  # m/s
    e_psi: float  # rad, + steers to port
    e_d: float  # m, standoff minus measured range (0 when out of range)


@dataclass(frozen=True)
class GuidanceConfig:
    standoff: float = 5.0  # m, desired following distance D
    lidar_max_range: float = 50.0  # m
    u_max: float = 1.5  # m/s
    lost_frames_threshold: int = 10  # consecutive misses tolerated before searching
    search_yaw_bias: float = 0.3  # rad, fixed heading error while searching
    speed_law: SpeedLaw = SpeedLaw.PAPER_CLAMPED
    holding_decay: float = 0.9  # per-frame speed decay while holding

    def __post_init__(self) -> None:
        if not 0.0 < self.standoff < self.lidar_max_range:
            raise ConfigError("need 0 < standoff < lidar_max_range")
        if not self.u_max > 0.0:
            raise ConfigError("u_max must be > 0")
        if self.lost_frames_threshold < 0:
            raise ConfigError("lost_frames_threshold must be >= 0")
        if not 0.0 <= self.holding_decay <= 1.0:
            raise ConfigError("holding_decay must lie in [0, 1]")


def reference_speed(range_m: float | None, cfg: GuidanceConfig) -> float:
    """Forward speed command for the measured range (None = beyond LiDAR)."""
    u_max = cfg.u_max
    if range_m is None:
        return u_max
    if cfg.speed_law is _PAPER_CLAMPED:
        u = u_max * range_m / cfg.standoff
        u = 0.0 if 0.0 > u else u
        return u_max if u_max < u else u
    frac = (range_m - cfg.standoff) / (cfg.lidar_max_range - cfg.standoff)
    frac = 0.0 if 0.0 > frac else frac
    return u_max * (1.0 if 1.0 < frac else frac)


@dataclass
class GuidanceState:
    """FSM memory: the lost-frame counter plus what HOLDING/SEARCHING replay.

    HOLDING repeats the last command with decaying speed and SEARCHING yaws
    toward the side the target was last seen, so the counter alone is not
    enough memory.
    """

    lost_count: int = 0
    last_command: GuidanceCommand = GuidanceCommand(GuidanceMode.HOLDING, 0.0, 0.0, 0.0)
    last_seen_sign: float = 1.0


def guidance_step(
    box: Box | None,
    range_m: float | None,
    cfg: GuidanceConfig,
    cam: CameraIntrinsics,
    state: GuidanceState,
) -> GuidanceCommand:
    """One step of the tracking/holding/searching guidance FSM.

    A detected (x, y, w, h) box gives TRACKING with fresh errors; while box
    is None, short dropouts give HOLDING (last command with decaying speed)
    and past the lost threshold the loop SEARCHES by yawing toward the side
    the target was last seen.
    """
    if box is not None:
        state.lost_count = 0
        # Bearing error atan2(cam.cx - box center x, fx), + to port, for a box center in
        # the image (edges included); range error standoff - range, 0 beyond the lidar.
        x, y, w, h = box
        cx = x + w / 2.0
        cy = y + h / 2.0
        if not (0.0 <= cx <= cam.width and 0.0 <= cy <= cam.height):
            raise ValueError(f"box center ({cx}, {cy}) lies outside the image")
        e_psi = math.atan2(cam.cx - cx, cam.fx)
        if e_psi != 0.0:
            state.last_seen_sign = math.copysign(1.0, e_psi)
        e_d = 0.0 if range_m is None else cfg.standoff - range_m
        cmd = GuidanceCommand(_TRACKING, reference_speed(range_m, cfg), e_psi, e_d)
    else:
        state.lost_count += 1
        if state.lost_count <= cfg.lost_frames_threshold:
            _, u_ref, e_psi, e_d = state.last_command
            cmd = GuidanceCommand(_HOLDING, u_ref * cfg.holding_decay, e_psi, e_d)
        else:
            e_psi = cfg.search_yaw_bias * state.last_seen_sign
            cmd = GuidanceCommand(_SEARCHING, 0.0, e_psi, 0.0)
    state.last_command = cmd
    return cmd
