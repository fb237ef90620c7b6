"""Scenario files: INI-style sections with a strict key schema.

Unknown sections or keys are hard errors; every key is optional and falls
back to the library defaults.
"""

from __future__ import annotations

import configparser
import math
from pathlib import Path
from typing import Any

import numpy as np

from . import control, dynamics, guidance, metrics, sensors, sim
from .core import BodyState, CameraIntrinsics, ConfigError, Pose2D, UsvParams
from .io_utils import read_utf8


def _parse_str(s: str) -> str:
    return s.strip()


def _enum(cls):
    """Parser for an enum-valued key: case-insensitive lookup by value."""
    return lambda s: cls(s.strip().lower())


def _parse_floats(s: str, n: int) -> tuple[float, ...]:
    parts = [p for p in s.replace(",", " ").split() if p]
    if len(parts) != n:
        raise ConfigError(f"expected {n} comma-separated numbers, got {s!r}")
    return tuple(float(p) for p in parts)


def _parse_vertices(s: str) -> tuple[tuple[float, float], ...]:
    groups = [g for g in s.split(";") if g.strip()]
    if len(groups) != 3:
        raise ConfigError(f"vertices needs 3 'x,y' pairs separated by ';', got {s!r}")
    return tuple(_parse_floats(g, 2) for g in groups)


def _finite(value: Any) -> bool:
    """False if a parsed value is, or holds, a NaN or infinite float."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, tuple):
        return all(map(_finite, value))
    return True


def _parse_halfwidth(s: str) -> int | None:
    s = s.strip().lower()
    if s in ("auto", "none", ""):
        return None
    return int(s)


_SCHEMA: dict[str, dict[str, object]] = {
    "run": {"name": _parse_str, "duration": float, "dt": float, "seed": int},
    "usv": {
        "m": float,
        "izz": float,
        "l": float,
        "u_max": float,
        "udot_max": float,
        "rdot_max": float,
        "thrust_min": float,
        "thrust_max": float,
        "u_abs_cap": float,
        "r_abs_cap": float,
        "x0": float,
        "y0": float,
        "psi0": float,
        "u0": float,
        "r0": float,
    },
    "camera": {"width": int, "height": int, "fx": float},
    "sea": {
        "wave_gain": float,
        "wave_period": float,
        "wave_phase": float,
        "wave_force_amp": float,
        "wave_torque_amp": float,
        "wind_x": float,
        "wind_y": float,
        "wind_drag_coeff": float,
        "visibility": float,
    },
    "guidance": {
        "standoff": float,
        "lidar_max_range": float,
        "u_max": float,
        "lost_frames_threshold": int,
        "search_yaw_bias": float,
        "speed_law": _enum(guidance.SpeedLaw),
        "holding_decay": float,
    },
    "sensors": {
        "lidar_sigma": float,
        "u_sigma": float,
        "psi_sigma": float,
        "r_sigma": float,
        "frame_stride": int,
    },
    "target": {
        "kind": _enum(sim.TrajectoryKind),
        "x0": float,
        "y0": float,
        "psi0": float,
        "speed": float,
        "extent": float,
        "vertices": _parse_vertices,
        "triangle_center": lambda s: _parse_floats(s, 2),
        "triangle_side": float,
    },
    "tracker": {
        "kind": _enum(sim.TrackerKind),
        "sigma_center_px": float,
        "sigma_scale": float,
        "p_drop_base": float,
        "ncc_peak_threshold": float,
        "ncc_search_halfwidth": _parse_halfwidth,
        "ncc_context_margin": float,
        "render_noise_sigma": float,
    },
    "controller": {
        "kind": _enum(sim.ControllerKind),
        "pid_kp_u": float,
        "pid_ki_u": float,
        "pid_kd_u": float,
        "pid_kp_psi": float,
        "pid_ki_psi": float,
        "pid_kd_psi": float,
        "pid_integral_limit": float,
        "pid_derivative_filter_tau": float,
        "smc_lambda_u": float,
        "smc_eta_u": float,
        "smc_lambda_psi": float,
        "smc_eta_psi": float,
        "smc_phi": float,
        "smc_ref_filter_tau": float,
        "lqr_q": lambda s: _parse_floats(s, 3),
        "lqr_r": lambda s: _parse_floats(s, 2),
    },
    "cost": {
        "q_pixel": lambda s: _parse_floats(s, 2),
        "q_distance": float,
        "r_effort": lambda s: _parse_floats(s, 2),
    },
}


def parse_scenario(text: str, default_name: str = "scenario") -> sim.Scenario:
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str.lower  # type: ignore[assignment]
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed scenario file: {exc}") from None

    values: dict[str, dict[str, Any]] = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        values[section] = {}
        for key, raw in cp.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            parser = _SCHEMA[section][key]
            try:
                values[section][key] = parser(raw)  # type: ignore[operator]
            except ConfigError:
                raise
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from None
            if not _finite(values[section][key]):
                raise ConfigError(f"[{section}] {key}: {raw.strip()!r} is not finite")

    try:
        return _build_scenario(values, default_name)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None


def _pick(section: dict[str, Any], *names: str, **renames: str) -> dict[str, Any]:
    """Keyword arguments for the keys a section sets; ``renames`` maps key -> field.

    Keys the file leaves out are not passed, so the dataclass defaults apply.
    """
    fields = {name: name for name in names} | renames
    return {field: section[key] for key, field in fields.items() if key in section}


def _diagonals(section: dict[str, Any], **renames: str) -> dict[str, Any]:
    """Like _pick, for keys listing the diagonal of a weight matrix."""
    return {field: np.diag(v) for field, v in _pick(section, **renames).items()}


def _build_scenario(values: dict[str, dict[str, Any]], default_name: str) -> sim.Scenario:
    def sec(name: str) -> dict[str, Any]:
        return values.get(name, {})

    usv = sec("usv")
    params = UsvParams(
        **_pick(usv, "m", "l", "u_max", "udot_max", "rdot_max", "thrust_min", "thrust_max",
                "u_abs_cap", "r_abs_cap", izz="Izz")
    )
    initial = BodyState(
        pose=Pose2D(**_pick(usv, x0="x", y0="y", psi0="psi")),
        **_pick(usv, u0="u", r0="r"),
    )

    sea_kwargs = dict(sec("sea"))
    calm_x, calm_y = dynamics.SeaState.wind_velocity  # the dataclass default
    wind = (sea_kwargs.pop("wind_x", calm_x), sea_kwargs.pop("wind_y", calm_y))
    sea = dynamics.SeaState(wind_velocity=wind, **sea_kwargs)

    tgt = sec("target")
    target_kwargs = _pick(tgt, "kind", "speed", "vertices", "extent")
    if tgt.get("kind") is sim.TrajectoryKind.TRIANGLE and "vertices" not in tgt:
        target_kwargs["vertices"] = sim.default_triangle(
            **_pick(tgt, triangle_center="center", triangle_side="side")
        )
    target = sim.TrajectorySpec(
        origin=Pose2D(**_pick(tgt, x0="x", y0="y", psi0="psi")),
        **target_kwargs,
    )

    trk = sec("tracker")
    tracker = sim.TrackerSpec(
        noise=sensors.TrackerNoiseConfig(
            **_pick(trk, "sigma_center_px", "sigma_scale", "p_drop_base")
        ),
        **_pick(trk, "kind", "ncc_peak_threshold", "ncc_search_halfwidth", "ncc_context_margin",
                "render_noise_sigma"),
    )

    ctl = sec("controller")
    pid_kwargs = {k.removeprefix("pid_"): v for k, v in ctl.items() if k.startswith("pid_")}
    smc_kwargs = {k.removeprefix("smc_"): v for k, v in ctl.items() if k.startswith("smc_")}
    controller = sim.ControllerSpec(
        pid=control.PidGains(**pid_kwargs),
        smc=control.SmcGains(**smc_kwargs),
        lqr=control.LqrWeights(**_diagonals(ctl, lqr_q="Q", lqr_r="R")),
        **_pick(ctl, "kind"),
    )

    cost_sec = sec("cost")
    cost = metrics.CostWeights(
        **_diagonals(cost_sec, q_pixel="Q_pixel", r_effort="R_effort"),
        **_pick(cost_sec, q_distance="Q_distance"),
    )

    return sim.Scenario(
        **({"name": default_name} | sec("run")),
        params=params,
        initial=initial,
        target=target,
        sea=sea,
        camera=CameraIntrinsics(**sec("camera")),
        guidance_cfg=guidance.GuidanceConfig(**sec("guidance")),
        tracker=tracker,
        controller=controller,
        cost=cost,
        sensor_noise=sim.SensorNoise(**sec("sensors")),
    )


def load_scenario(path) -> sim.Scenario:
    """Parse a UTF-8 scenario file; a missing path, a non-file or undecodable text is a ConfigError."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"scenario file not found: {path}")
    if not path.is_file():
        raise ConfigError(f"scenario path is not a file: {path}")
    return parse_scenario(read_utf8(path, ConfigError), default_name=path.stem)
