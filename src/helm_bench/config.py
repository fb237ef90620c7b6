"""Scenario files: INI-style sections with a strict key schema.

Every key is an init field of a dataclass its section lists in _SECTIONS.
Unknown sections or keys are hard errors; every key is optional and falls
back to the library defaults. A file parses in two steps: parse_keys turns
its text into parsed keys, and _build_scenario builds the scenario from
them by one rule, _make, which places each nested config dataclass by
_SECTIONS alone. A sweep variant is the file's keys with one key set, built
the same way.
"""

from __future__ import annotations

import configparser
import dataclasses
import enum
import functools
import sys
from pathlib import Path
from typing import Any, get_args, get_origin, get_type_hints

from . import control, dynamics, guidance, metrics, sensors, sim
from .core import BodyState, CameraIntrinsics, ConfigError, Pose2D, UsvParams
from .io_utils import read_utf8


def _parse_str(s: str) -> str:
    return s.strip()


def _enum(cls: type[enum.Enum], s: str) -> enum.Enum:
    """Parse an enum-valued key: case-insensitive lookup by value."""
    return cls(s.strip().lower())


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
    """False if a parsed value is, or holds, a NaN, an infinity or an int too large for a float."""
    if isinstance(value, (int, float)):
        return abs(value) <= sys.float_info.max  # NaN fails the comparison
    if isinstance(value, tuple):
        return all(map(_finite, value))
    return True


def _parse_halfwidth(s: str) -> int | None:
    s = s.strip().lower()
    if s in ("auto", "none", ""):
        return None
    return int(s)


def _parser(hint: Any):
    """Parser for a field annotated with hint; None if no key sets such a field."""
    if hint is float or hint is int:
        return hint
    if get_origin(hint) is tuple and set(get_args(hint)) == {float}:
        return functools.partial(_parse_floats, n=len(get_args(hint)))
    if hint is str:
        return _parse_str
    if hint == int | None:
        return _parse_halfwidth
    if hint == tuple[tuple[float, float], ...] | None:
        return _parse_vertices
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return functools.partial(_enum, hint)
    return None


# The dataclasses whose scalar, float-tuple and vertex init fields each section
# sets. A field's key is its name in lower case, prefixed for the gain and
# weight sets that share [controller] and suffixed 0 for the initial state and
# the target's origin pose.
_SECTIONS: dict[str, tuple[type, ...]] = {
    "run": (sim.Scenario,),
    "usv": (UsvParams, BodyState, Pose2D),
    "camera": (CameraIntrinsics,),
    "sea": (dynamics.SeaState,),
    "guidance": (guidance.GuidanceConfig,),
    "sensors": (sim.SensorNoise,),
    "target": (sim.TrajectorySpec, Pose2D),
    "tracker": (sim.TrackerSpec, sensors.TrackerNoiseConfig),
    "controller": (sim.ControllerSpec, control.PidGains, control.SmcGains, control.LqrWeights),
    "cost": (metrics.CostWeights,),
}
_AFFIXES = {
    control.PidGains: ("pid_", ""),
    control.SmcGains: ("smc_", ""),
    control.LqrWeights: ("lqr_", ""),
    BodyState: ("", "0"),
    Pose2D: ("", "0"),
}
# Each listed class's resolved field types, and the section listing it (Pose2D,
# listed twice, is only ever nested, so _make never reads its entry here).
_HINTS = {cls: get_type_hints(cls) for classes in _SECTIONS.values() for cls in classes}
_HOME = {cls: section for section, classes in _SECTIONS.items() for cls in classes}


def _key_fields(cls: type) -> dict[str, tuple[str, object]]:
    """Key -> (field name, parser) for each init field of a config dataclass that a key sets."""
    prefix, suffix = _AFFIXES.get(cls, ("", ""))
    return {
        prefix + f.name.lower() + suffix: (f.name, parser)
        for f in dataclasses.fields(cls)
        if f.init and (parser := _parser(_HINTS[cls][f.name])) is not None
    }


_FIELDS = {cls: _key_fields(cls) for cls in _HINTS}
_SCHEMA: dict[str, dict[str, object]] = {
    section: {key: parser for cls in classes for key, (_, parser) in _FIELDS[cls].items()}
    for section, classes in _SECTIONS.items()
}


def _parse_key(section: str, key: str, raw: str) -> Any:
    """The value of one scenario-file key from its text: schema lookup, parse and finite check."""
    if section not in _SCHEMA:
        raise ConfigError(f"unknown section [{section}]")
    if key not in _SCHEMA[section]:
        raise ConfigError(f"unknown key {key!r} in [{section}]")
    try:
        value = _SCHEMA[section][key](raw)  # type: ignore[operator]
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from None
    if not _finite(value):
        raise ConfigError(f"[{section}] {key}: {raw.strip()!r} is not finite")
    return value


def parse_keys(text: str, default_name: str = "scenario") -> dict[str, dict[str, Any]]:
    """Step 1 of parsing a scenario file: its {section: {key: value}}, each value parsed.

    [run] name defaults to default_name.
    """
    # No header names the empty section, so [DEFAULT] is an ordinary, unknown, section.
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    cp.optionxform = str.lower  # type: ignore[assignment]
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed scenario file: {exc}") from None

    keys: dict[str, dict[str, Any]] = {"run": {"name": default_name}}
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        keys.setdefault(section, {}).update((key, _parse_key(section, key, raw)) for key, raw in cp.items(section))
    return keys


def parse_scenario(text: str, default_name: str = "scenario") -> sim.Scenario:
    return _build_scenario(parse_keys(text, default_name))


def sweep_variant(keys: dict[str, dict[str, Any]], axis: str, value: str, index: int) -> sim.Scenario:
    """The scenario of parse_keys' keys with the one key axis, written section.key, set to the text value.

    The variant is named base[axis=value] and runs with a seed derived from
    the base seed and its index, so run.seed and run.name cannot be an axis.
    """
    if axis in ("run.seed", "run.name"):
        raise ConfigError(f"cannot sweep {axis}: each variant gets a derived seed and a name of its own")
    section, _, key = axis.partition(".")
    run = keys["run"]
    seed = sim.derived_seed(run.get("seed", sim.Scenario.seed), f"sweep:{index}")
    try:
        variant = keys | {section: keys.get(section, {}) | {key: _parse_key(section, key, value)}}
        variant["run"] = variant["run"] | {"seed": seed, "name": f"{run['name']}[{axis}={value}]"}
        return _build_scenario(variant)
    except ConfigError as exc:
        raise ConfigError(f"{axis}: {exc}") from None


def _make(cls, section: str, values: dict[str, dict[str, Any]]):
    """cls from the keys of values[section] that name its fields; the dataclass defaults fill the rest.

    A field that holds a listed class is built by the same rule, from section
    if section lists that class, else from the one section that does.
    """
    keys = values.get(section, {})
    args = {name: keys[key] for key, (name, _) in _FIELDS[cls].items() if key in keys}
    for name, sub in _HINTS[cls].items():
        if sub in _FIELDS:
            args[name] = _make(sub, section if sub in _SECTIONS[section] else _HOME[sub], values)
    return cls(**args)


def _build_scenario(values: dict[str, dict[str, Any]]) -> sim.Scenario:
    """Step 2 of parsing: the scenario that parsed keys describe; a value it rejects is a ConfigError."""
    try:
        return _make(sim.Scenario, "run", values)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None


def load_keys(path) -> dict[str, dict[str, Any]]:
    """The parsed keys of a UTF-8 scenario file, named after its stem by default.

    A missing path, a non-file or undecodable text is a ConfigError.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"scenario file not found: {path}")
    return parse_keys(read_utf8(path, ConfigError, "scenario path"), default_name=path.stem)


def load_scenario(path) -> sim.Scenario:
    return _build_scenario(load_keys(path))
