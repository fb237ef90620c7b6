"""Scenario-file parsing: schema enforcement, defaults, and full round trips."""

import dataclasses
import functools
import hashlib
import math
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

from helm_bench import config
from helm_bench.config import _SCHEMA, load_scenario, parse_keys, parse_scenario, sweep_variant
from helm_bench.core import ConfigError
from helm_bench.guidance import SpeedLaw
from helm_bench import sim
from helm_bench.sim import (
    MAX_NCC_CAMERA_PIXELS,
    ControllerKind,
    Scenario,
    TrackerKind,
    TrajectoryKind,
    TrajectorySpec,
    run_scenario,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

FULL = """
[run]
name = full
duration = 12.5
dt = 0.01
seed = 77

[usv]
m = 25.0
izz = 4.0
l = 0.5
udot_max = 8.0
rdot_max = 1.0
thrust_min = -80
thrust_max = 80
u_abs_cap = 4.0
r_abs_cap = 1.5
x0 = 1.0
y0 = -2.0
psi0 = 0.3
u0 = 0.5
r0 = -0.1

[camera]
width = 320
height = 240
fx = 250

[sea]
wave_gain = 0.7
wave_period = 4.0
wave_phase = 0.5
wave_force_amp = 6.0
wave_torque_amp = 1.5
wind_x = 2.0
wind_y = -1.0
wind_drag_coeff = 0.2
visibility = 0.8

[guidance]
standoff = 6.0
lidar_max_range = 40.0
u_max = 1.2
lost_frames_threshold = 7
search_yaw_bias = 0.4
speed_law = stop_at_d
holding_decay = 0.8

[sensors]
lidar_sigma = 0.05
u_sigma = 0.01
psi_sigma = 0.02
r_sigma = 0.03
frame_stride = 2

[target]
kind = triangle
speed = 0.9
extent = 1.5
vertices = 10,0; 20,0; 15,8

[tracker]
kind = ncc
sigma_center_px = 1.0
sigma_scale = 0.02
p_drop_base = 0.01
ncc_peak_threshold = 0.3
ncc_search_halfwidth = 12
ncc_context_margin = 0.2
render_noise_sigma = 0.01

[controller]
kind = smc
pid_kp_u = 30
pid_ki_u = 1
pid_kd_u = 2
pid_kp_psi = 6
pid_ki_psi = 0.1
pid_kd_psi = 3
pid_integral_limit = 40
pid_derivative_filter_tau = 0.05
smc_lambda_u = 2.0
smc_eta_u = 6.0
smc_lambda_psi = 1.0
smc_eta_psi = 1.0
smc_phi = 0.02
smc_ref_filter_tau = 0.2
lqr_q = 2, 20, 4
lqr_r = 0.1, 0.1

[cost]
q_pixel = 2, 0.5
q_distance = 0.1
r_effort = 2e-4, 2e-4
"""


class TestDefaults:
    def test_empty_text_gives_library_defaults(self):
        # == compares every nested field, the weights included.
        sc = parse_scenario("", default_name="empty")
        assert sc == Scenario(name="empty")

    def test_default_name_from_argument(self):
        assert parse_scenario("").name == "scenario"
        assert parse_scenario("[run]\nname = picked\n").name == "picked"


class TestFullRoundTrip:
    def test_every_section(self):
        sc = parse_scenario(FULL)
        assert sc.name == "full"
        assert (sc.duration, sc.dt, sc.seed) == (12.5, 0.01, 77)

        assert sc.params.m == 25.0 and sc.params.Izz == 4.0 and sc.params.l == 0.5
        assert sc.params.thrust_min == -80.0 and sc.params.thrust_max == 80.0
        assert sc.params.u_abs_cap == 4.0 and sc.params.r_abs_cap == 1.5
        assert (sc.initial.pose.x, sc.initial.pose.y) == (1.0, -2.0)
        assert sc.initial.pose.psi == 0.3
        assert (sc.initial.u, sc.initial.r) == (0.5, -0.1)

        assert (sc.camera.width, sc.camera.height, sc.camera.fx) == (320, 240, 250.0)

        assert sc.sea.wave_gain == 0.7 and sc.sea.wave_period == 4.0
        assert sc.sea.wave_phase == 0.5
        assert sc.sea.wave_force_amp == 6.0 and sc.sea.wave_torque_amp == 1.5
        assert (sc.sea.wind_x, sc.sea.wind_y) == (2.0, -1.0)
        assert sc.sea.wind_drag_coeff == 0.2 and sc.sea.visibility == 0.8

        g = sc.guidance_cfg
        assert g.standoff == 6.0 and g.lidar_max_range == 40.0 and g.u_max == 1.2
        assert g.lost_frames_threshold == 7 and g.search_yaw_bias == 0.4
        assert g.speed_law is SpeedLaw.STOP_AT_D and g.holding_decay == 0.8

        n = sc.sensor_noise
        assert (n.lidar_sigma, n.u_sigma, n.psi_sigma, n.r_sigma) == (0.05, 0.01, 0.02, 0.03)
        assert n.frame_stride == 2

        t = sc.target
        assert t.kind is TrajectoryKind.TRIANGLE
        assert t.speed == 0.9 and t.extent == 1.5
        assert t.vertices == ((10.0, 0.0), (20.0, 0.0), (15.0, 8.0))

        tr = sc.tracker
        assert tr.kind is TrackerKind.NCC
        assert tr.noise.sigma_center_px == 1.0 and tr.noise.sigma_scale == 0.02
        assert tr.noise.p_drop_base == 0.01
        assert tr.ncc_peak_threshold == 0.3 and tr.ncc_search_halfwidth == 12
        assert tr.ncc_context_margin == 0.2 and tr.render_noise_sigma == 0.01

        c = sc.controller
        assert c.kind is ControllerKind.SMC
        assert c.pid.kp_u == 30.0 and c.pid.ki_u == 1.0 and c.pid.kd_u == 2.0
        assert c.pid.kp_psi == 6.0 and c.pid.ki_psi == 0.1 and c.pid.kd_psi == 3.0
        assert c.pid.integral_limit == 40.0 and c.pid.derivative_filter_tau == 0.05
        assert c.smc.lambda_u == 2.0 and c.smc.eta_u == 6.0
        assert c.smc.lambda_psi == 1.0 and c.smc.eta_psi == 1.0
        assert c.smc.phi == 0.02 and c.smc.ref_filter_tau == 0.2
        assert c.lqr.q == (2.0, 20.0, 4.0) and c.lqr.r == (0.1, 0.1)

        assert sc.cost.q_pixel == (2.0, 0.5)
        assert sc.cost.q_distance == 0.1
        assert sc.cost.r_effort == (2e-4, 2e-4)


# The scenario-file schema, written out: section -> key -> parser kind. A
# kind is float or int (the parser itself), an enum class (a case-insensitive
# lookup by value), "str", "halfwidth" (an int, or auto/none), "vertices"
# (three x,y pairs) or "N floats" (a list of N numbers).
_SCHEMA_LITERAL = {
    "run": {"name": "str", "duration": float, "dt": float, "seed": int},
    "usv": {
        "m": float,
        "izz": float,
        "l": float,
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
        "speed_law": SpeedLaw,
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
        "kind": TrajectoryKind,
        "x0": float,
        "y0": float,
        "psi0": float,
        "speed": float,
        "extent": float,
        "vertices": "vertices",
        "triangle_center": "2 floats",
        "triangle_side": float,
    },
    "tracker": {
        "kind": TrackerKind,
        "sigma_center_px": float,
        "sigma_scale": float,
        "p_drop_base": float,
        "ncc_peak_threshold": float,
        "ncc_search_halfwidth": "halfwidth",
        "ncc_context_margin": float,
        "render_noise_sigma": float,
    },
    "controller": {
        "kind": ControllerKind,
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
        "lqr_q": "3 floats",
        "lqr_r": "2 floats",
    },
    "cost": {
        "q_pixel": "2 floats",
        "q_distance": float,
        "r_effort": "2 floats",
    },
}


def _parser_kind(parser):
    """The kind of a _SCHEMA parser, in the terms of _SCHEMA_LITERAL.

    float and int match by identity: tests/test_sim.py draws every key whose
    parser is one of them.
    """
    if parser is float or parser is int:
        return parser
    if isinstance(parser, functools.partial):
        if parser.func is config._enum and not parser.keywords:
            (enum_cls,) = parser.args
            return enum_cls
        if parser.func is config._parse_floats and not parser.args:
            return f"{parser.keywords['n']} floats"
    named = {config._parse_str: "str", config._parse_halfwidth: "halfwidth",
             config._parse_vertices: "vertices"}
    return named.get(parser, parser)


class TestSchema:
    def test_derived_schema_equals_the_written_one(self):
        derived = {
            sec: {key: _parser_kind(parser) for key, parser in keys.items()}
            for sec, keys in _SCHEMA.items()
        }
        assert derived == _SCHEMA_LITERAL

    def test_every_key_is_a_field(self):
        # a section's keys are exactly its classes' field keys, none shared by two classes
        for section, classes in config._SECTIONS.items():
            field_keys = [key for cls in classes for key in config._key_fields(cls)]
            assert len(field_keys) == len(set(field_keys)), section
            assert set(config._SCHEMA[section]) == set(field_keys), section

    def test_every_scenario_section_class_is_listed_once(self):
        # _make builds a Scenario field that holds a config dataclass from the
        # one section listing its class, so no such class may be listed twice.
        hints = get_type_hints(sim.Scenario)
        nested = [hints[f.name] for f in dataclasses.fields(sim.Scenario) if hints[f.name] in config._FIELDS]
        assert len(nested) == 10
        for cls in nested:
            homes = [sec for sec, classes in config._SECTIONS.items() if cls in classes]
            assert len(homes) == 1, (cls, homes)

    def test_key_rule(self):
        # a field's key is its name in lower case; the gain and weight sets
        # share [controller] under a pid_, smc_ or lqr_ prefix
        sc = parse_scenario(
            "[usv]\nizz = 4.5\n[cost]\nq_distance = 0.5\n"
            "[controller]\npid_kp_u = 3\nsmc_phi = 0.1\nlqr_r = 1, 2\n"
        )
        assert sc.params.Izz == 4.5 and sc.cost.q_distance == 0.5
        assert sc.controller.pid.kp_u == 3.0 and sc.controller.smc.phi == 0.1
        assert sc.controller.lqr.r == (1.0, 2.0)


class TestSchemaEnforcement:
    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"unknown section \[weather\]"):
            parse_scenario("[weather]\nwind = 3\n")

    @pytest.mark.parametrize("body", ["duration = 5\n", "bogus = 1\n", ""])
    def test_default_section_is_an_unknown_section(self, body):
        # configparser would otherwise accept [DEFAULT] and copy its keys
        # into every other section.
        with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
            parse_scenario(f"[DEFAULT]\n{body}[run]\nname = x\n")

    @pytest.mark.parametrize("key, value", [("duration", "1e308"), ("dt", "5e-324")])
    def test_overflowing_step_count_is_too_long(self, key, value):
        with pytest.raises(ConfigError, match="scenario too long"):
            parse_scenario(f"[run]\n{key} = {value}\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match=r"unknown key 'mass' in \[usv\]"):
            parse_scenario("[usv]\nmass = 20\n")

    def test_usv_speed_ceiling_is_a_guidance_key(self):
        # The commanded speed ceiling is [guidance] u_max; [usv] has none.
        with pytest.raises(ConfigError, match=r"unknown key 'u_max' in \[usv\]"):
            parse_scenario("[usv]\nu_max = 2.0\n")

    def test_parse_error_names_section_and_key(self):
        with pytest.raises(ConfigError, match=r"\[run\] duration"):
            parse_scenario("[run]\nduration = fast\n")

    def test_bad_vertices_count(self):
        with pytest.raises(ConfigError, match="vertices"):
            parse_scenario("[target]\nkind = triangle\nvertices = 0,0; 1,1\n")

    def test_bad_enum_value(self):
        with pytest.raises(ConfigError, match="speed_law"):
            parse_scenario("[guidance]\nspeed_law = warp\n")
        with pytest.raises(ConfigError, match="controller"):
            parse_scenario("[controller]\nkind = mpc\n")

    def test_semantic_validation_propagates_as_config_error(self):
        with pytest.raises(ConfigError):
            parse_scenario("[run]\nduration = -5\n")
        with pytest.raises(ConfigError):
            parse_scenario("[sea]\nvisibility = 1.5\n")

    def test_malformed_ini(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_scenario("run]\nduration = 1\n")


# Keys that hold several floats, each with a value that is finite but one.
_FLOAT_TUPLE_KEYS = {
    ("target", "vertices"): "0,0; 3,{}; 0,4",
    ("target", "triangle_center"): "12, {}",
    ("controller", "lqr_q"): "1, {}, 1",
    ("controller", "lqr_r"): "{}, 1",
    ("cost", "q_pixel"): "1, {}",
    ("cost", "r_effort"): "{}, 1",
}
_FLOAT_KEYS = [(sec, key) for sec, keys in _SCHEMA.items() for key, p in keys.items() if p is float]


class TestNonFiniteRejected:
    def test_every_float_valued_key_is_covered(self):
        # a key parsed to floats by some other parser must join _FLOAT_TUPLE_KEYS
        for sec, keys in _SCHEMA.items():
            for key in keys:
                if (sec, key) in _FLOAT_TUPLE_KEYS or (sec, key) in _FLOAT_KEYS:
                    continue
                sample = {"vertices": "0,0; 1,0; 0,1"}.get(key, "1, 1")
                try:
                    value = keys[key](sample)
                except (ValueError, TypeError):
                    continue
                assert not isinstance(value, (float, tuple)), (sec, key)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("sec, key", _FLOAT_KEYS, ids=lambda v: v)
    def test_float_key(self, sec, key, raw):
        with pytest.raises(ConfigError, match=rf"\[{sec}\] {key}: .* is not finite"):
            parse_scenario(f"[{sec}]\n{key} = {raw}\n")

    @pytest.mark.parametrize("raw", ["nan", "-inf"])
    @pytest.mark.parametrize("sec, key", list(_FLOAT_TUPLE_KEYS), ids=lambda v: v)
    def test_float_tuple_key(self, sec, key, raw):
        text = f"[{sec}]\n{key} = {_FLOAT_TUPLE_KEYS[sec, key].format(raw)}\n"
        with pytest.raises(ConfigError, match=rf"\[{sec}\] {key}: .* is not finite"):
            parse_scenario(text)
        # the same value with a finite entry parses
        parse_scenario(f"[{sec}]\n{key} = {_FLOAT_TUPLE_KEYS[sec, key].format('2')}\n")


def _int_valued(parser) -> bool:
    try:
        return type(parser("1")) is int
    except ValueError:
        return False


_INT_KEYS = [(sec, key) for sec, keys in _SCHEMA.items() for key, p in keys.items() if _int_valued(p)]
_NO_FLOAT_HOLDS = ["1" + "0" * 400, "-1" + "0" * 400]


class TestIntTooLargeForAFloat:
    def test_int_keys(self):
        assert _INT_KEYS == [
            ("run", "seed"),
            ("camera", "width"),
            ("camera", "height"),
            ("guidance", "lost_frames_threshold"),
            ("sensors", "frame_stride"),
            ("tracker", "ncc_search_halfwidth"),
        ]

    @pytest.mark.parametrize("raw", _NO_FLOAT_HOLDS, ids=["positive", "negative"])
    @pytest.mark.parametrize("sec, key", _INT_KEYS, ids=lambda v: v)
    def test_rejected(self, sec, key, raw):
        with pytest.raises(ConfigError, match=rf"\[{sec}\] {key}: .* is not finite"):
            parse_scenario(f"[{sec}]\n{key} = {raw}\n")
        if (sec, key) == ("run", "seed"):
            return  # not an axis: each variant gets a derived seed
        with pytest.raises(ConfigError, match=rf"^{sec}\.{key}: \[{sec}\] {key}: .* is not finite"):
            sweep_variant(parse_keys(""), f"{sec}.{key}", raw, 0)

    @pytest.mark.parametrize("sec, key", _INT_KEYS, ids=lambda v: v)
    def test_a_float_holds_parses(self, sec, key):
        # the default emulator tracker renders nothing, so no key here is a pixel count it allocates
        raw = "1" + "0" * 300
        sc = parse_scenario(f"[{sec}]\n{key} = {raw}\n")
        assert sc.tracker.kind is TrackerKind.EMULATOR
        if (sec, key) != ("run", "seed"):
            sweep_variant(parse_keys(""), f"{sec}.{key}", raw, 0)


class TestTargetPathOverflow:
    @pytest.mark.parametrize("kind", ["line", "triangle"])
    def test_speed_times_duration_rejected(self, kind):
        # speed * t reaches inf inside the run: a NaN pose on a line, fmod's domain error on a triangle
        with pytest.raises(ConfigError, match=r"speed \* duration must be finite"):
            parse_scenario(f"[run]\nduration = 3\n[target]\nkind = {kind}\nspeed = 1e308\n")

    def test_overflowing_edge_rejected(self):
        vertices = "-1e308,0; 1e308,0; 0,1e308"
        with pytest.raises(ConfigError, match="triangle edges must have positive, finite length"):
            parse_scenario(f"[target]\nkind = triangle\nvertices = {vertices}\n")
        with pytest.raises(ConfigError, match="triangle edges must have positive, finite length"):
            TrajectorySpec(kind=TrajectoryKind.TRIANGLE, vertices=((-1e308, 0.0), (1e308, 0.0), (0.0, 1e308)))

    @pytest.mark.parametrize("target", ["kind = stationary\nspeed = 1e308", "speed = 1e300"])
    def test_finite_path_runs_to_the_end(self, target):
        sc = parse_scenario(f"[run]\nduration = 3\n[target]\n{target}\n")
        log = run_scenario(sc)
        assert log.error is None and len(log) == sc.n_steps + 1 == 151


class TestTriangleConstruction:
    def test_center_and_side_build_equilateral(self):
        sc = parse_scenario(
            "[target]\nkind = triangle\ntriangle_center = 12, 0\ntriangle_side = 20\n"
        )
        vs = sc.target.corners
        assert len(vs) == 3
        assert np.mean([v[0] for v in vs]) == pytest.approx(12.0)
        for i in range(3):
            ax, ay = vs[i]
            bx, by = vs[(i + 1) % 3]
            assert math.hypot(bx - ax, by - ay) == pytest.approx(20.0)

    def test_explicit_vertices_win(self):
        sc = parse_scenario(
            "[target]\nkind = triangle\nvertices = 0,0; 3,0; 0,4\ntriangle_side = 99\n"
        )
        assert sc.target.vertices == ((0.0, 0.0), (3.0, 0.0), (0.0, 4.0))


class TestHalfwidthParsing:
    @pytest.mark.parametrize("raw", ["auto", "none", "AUTO"])
    def test_auto_means_template_width(self, raw):
        sc = parse_scenario(f"[tracker]\nkind = ncc\nncc_search_halfwidth = {raw}\n")
        assert sc.tracker.ncc_search_halfwidth is None

    def test_integer_halfwidth(self):
        for halfwidth in (9, 0):
            sc = parse_scenario(f"[tracker]\nncc_search_halfwidth = {halfwidth}\n")
            assert sc.tracker.ncc_search_halfwidth == halfwidth

    @pytest.mark.parametrize("raw", ["-1", "-4"])
    def test_negative_halfwidth_rejected(self, raw):
        # its search window is narrower than the template, so no frame could match
        with pytest.raises(ConfigError, match="search_halfwidth must be >= 0"):
            parse_scenario(f"[tracker]\nkind = ncc\nncc_search_halfwidth = {raw}\n")


class TestNccTrackerLimits:
    def test_negative_render_noise_sigma_rejected(self):
        with pytest.raises(ConfigError, match="render_noise_sigma must be >= 0"):
            parse_scenario("[tracker]\nkind = ncc\nrender_noise_sigma = -0.5\n")

    def test_negative_zero_render_noise_sigma_is_zero(self):
        sigma = parse_scenario("[tracker]\nrender_noise_sigma = -0.0\n").tracker.render_noise_sigma
        assert sigma == 0.0 and math.copysign(1.0, sigma) == 1.0

    def test_huge_ncc_camera_rejected_at_parse_time(self):
        camera = "[camera]\nwidth = 1000000\nheight = 1000000\nfx = 1000000\n[target]\nx0 = 15\n"
        with pytest.raises(ConfigError, match=r"ncc tracker needs a camera of at most 16777216 pixels, got 1000000x1000000"):
            parse_scenario(camera + "[tracker]\nkind = ncc\n")
        parse_scenario(camera)  # the emulator renders nothing

    def test_camera_with_overflowing_pixel_ratios_rejected_at_parse_time(self):
        # 640 / 5e-324 is inf, so every pixel error over fx would be too.
        with pytest.raises(ConfigError, match=r"width / fx and height / fx must be finite, got fx = 5e-324"):
            parse_scenario("[run]\nduration = 1\n[camera]\nfx = 5e-324\n")

    def test_camera_bound_is_inclusive(self):
        assert MAX_NCC_CAMERA_PIXELS == 4096 * 4096
        parse_scenario("[camera]\nwidth = 4096\nheight = 4096\n[tracker]\nkind = ncc\n")
        with pytest.raises(ConfigError, match="got 4097x4096"):
            parse_scenario("[camera]\nwidth = 4097\nheight = 4096\n[tracker]\nkind = ncc\n")

    def test_ncc_standoff_loads(self):
        assert load_scenario(SCENARIO_DIR / "ncc_standoff.ini").tracker.kind is TrackerKind.NCC


class TestLoadScenario:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="scenario file not found"):
            load_scenario(tmp_path / "nope.ini")

    def test_name_defaults_to_stem(self, tmp_path):
        p = tmp_path / "harbor_patrol.ini"
        p.write_text("[run]\nduration = 1\n")
        assert load_scenario(p).name == "harbor_patrol"

    # sha256 of repr(load_scenario(p)) for each shipped scenario (Python 3.11.7):
    # every field of every nested class, as the file and the defaults set it.
    REPR_SHA256 = {
        "calm_line": "fc2ae0bd2a269091339d51043b49dec9f339154d9a28eb510d1564c8900a3ce8",
        "sea_line": "5109f94556351ab9b1618f22b15e244546230e661c261890fa6f14ec478c4e01",
        "sea_triangle": "270e0c53358a0a0c2200c3218370ee882b685b89910907f88e29fc914c7f4626",
        "ncc_standoff": "84cf3cff7299c44669c51f058edaeb931d006ac424b34abd64b7579194b13fc5",
        "ncc_approach": "2fca2ce761f684276fc13e573deca79fa3bfd64b4a664dae252c7647339da5ae",
    }

    def test_every_shipped_scenario_is_pinned(self):
        assert sorted(p.stem for p in SCENARIO_DIR.glob("*.ini")) == sorted(self.REPR_SHA256)

    @pytest.mark.parametrize("stem", sorted(REPR_SHA256))
    def test_shipped_scenario_repr(self, stem):
        digest = hashlib.sha256(repr(load_scenario(SCENARIO_DIR / f"{stem}.ini")).encode()).hexdigest()
        assert digest == self.REPR_SHA256[stem]

    @pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.ini")), ids=lambda p: p.stem)
    def test_shipped_scenarios_parse(self, path):
        sc = load_scenario(path)
        assert sc.duration > 0 and sc.dt > 0
        assert sc == load_scenario(path)  # every field holds plain values, so == compares without raising
