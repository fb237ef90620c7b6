"""Thrust mixing, disturbance model, plant derivatives and the RK4 step."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helm_bench.core import BodyState, IntegrationError, Pose2D, UsvParams, wrap_angle
from helm_bench.dynamics import (
    CALM,
    Disturbance,
    GeneralizedThrust,
    SeaState,
    StateDerivative,
    ThrustPair,
    _forcing,
    derivatives,
    mix,
    saturate,
    step,
    thrust_forces,
    unmix,
)

PARAMS = UsvParams()


class TestMixing:
    def test_mix_splits_channels(self):
        assert mix(GeneralizedThrust(10.0, 4.0)) == ThrustPair(3.0, 7.0)

    def test_mix_zero(self):
        assert mix(GeneralizedThrust(0.0, 0.0)) == ThrustPair(0.0, 0.0)

    def test_mix_symmetric_full(self):
        assert mix(GeneralizedThrust(200.0, 0.0)) == ThrustPair(100.0, 100.0)

    def test_unmix_examples(self):
        assert unmix(ThrustPair(3.0, 7.0)) == GeneralizedThrust(10.0, 4.0)
        assert unmix(ThrustPair(5.0, 5.0)) == GeneralizedThrust(10.0, 0.0)
        assert unmix(ThrustPair(-2.0, 2.0)) == GeneralizedThrust(0.0, 4.0)

    @given(st.floats(-200, 200), st.floats(-200, 200))
    def test_round_trips_exact(self, left, right):
        pair = ThrustPair(left, right)
        again = mix(unmix(pair))
        assert again.left == pytest.approx(left, abs=1e-12)
        assert again.right == pytest.approx(right, abs=1e-12)

    @given(st.floats(-400, 400), st.floats(-400, 400))
    def test_unmix_of_mix_is_identity(self, t1, t2):
        gen = unmix(mix(GeneralizedThrust(t1, t2)))
        assert gen.T1 == pytest.approx(t1, abs=1e-12)
        assert gen.T2 == pytest.approx(t2, abs=1e-12)


class TestSaturate:
    def test_clamps_both_sides(self):
        assert saturate(ThrustPair(150.0, -150.0), PARAMS) == ThrustPair(100.0, -100.0)

    def test_identity_inside_bounds(self):
        assert saturate(ThrustPair(50.0, 50.0), PARAMS) == ThrustPair(50.0, 50.0)

    def test_boundary_clamp(self):
        assert saturate(ThrustPair(100.0001, 0.0), PARAMS) == ThrustPair(100.0, 0.0)


class TestDisturbance:
    def test_calm_sea_is_zero(self):
        state = BodyState(Pose2D(3.0, -2.0, 0.4), u=1.2, r=0.1)
        for t in (0.0, 1.0, 17.3):
            assert _forcing(t, CALM, state.u, state.pose.psi, PARAMS) == (0.0, 0.0, 0.0, 0.0)

    def test_wave_peak_timing(self):
        sea = SeaState(wave_gain=0.5, wave_period=5.0, wave_force_amp=10.0)
        # quarter period: surge forcing at its sin peak
        f_surge, _, _, _ = _forcing(1.25, sea, 0.0, 0.0, PARAMS)
        assert f_surge == pytest.approx(5.0, abs=1e-12)

    def test_quadrature_at_t0(self):
        sea = SeaState(wave_gain=0.5, wave_period=5.0, wave_torque_amp=2.0)
        f_surge, tau_yaw, _, _ = _forcing(0.0, sea, 0.0, 0.0, PARAMS)
        assert f_surge == pytest.approx(0.0, abs=1e-12)
        assert tau_yaw == pytest.approx(0.5 * 2.0, abs=1e-12)  # cosine peak

    def test_wind_drift_relative_to_hull(self):
        sea = SeaState(wind_x=1.5, wind_y=-5.0, wind_drag_coeff=2.0)
        _, _, drift_x, drift_y = _forcing(0.0, sea, 1.0, 0.0, PARAMS)  # surging at 1 m/s, heading 0
        scale = 2.0 / PARAMS.m
        assert drift_x == pytest.approx(scale * (1.5 - 1.0))
        assert drift_y == pytest.approx(scale * -5.0)

    def test_wave_period_must_be_positive(self):
        with pytest.raises(ValueError):
            SeaState(wave_period=0.0)

    def test_visibility_bounds(self):
        with pytest.raises(ValueError):
            SeaState(visibility=1.5)


class TestDerivatives:
    def test_straight_running_surge(self):
        state = BodyState(Pose2D(0, 0, 0.0), u=1.5, r=0.0)
        d = derivatives(state, ThrustPair(10.0, 10.0), Disturbance(), PARAMS)
        assert (d.dx, d.dy, d.dpsi) == (1.5, 0.0, 0.0)
        assert d.du == pytest.approx(1.0)  # 20 N / 20 kg
        assert d.dr == 0.0

    def test_pure_couple_arithmetic(self):
        # raise the yaw cap so the raw (T_R - T_L) * l / Izz value is observable
        roomy = UsvParams(rdot_max=2.0)
        d = derivatives(BodyState(), ThrustPair(-4.0, 4.0), Disturbance(), roomy)
        assert d.dr == pytest.approx((8.0 * 0.4) / 3.2)  # = 1.0 rad/s^2
        assert d.du == 0.0

    def test_heading_aligned_velocity(self):
        state = BodyState(Pose2D(0, 0, math.pi / 2.0), u=2.0, r=0.3)
        d = derivatives(state, ThrustPair(0.0, 0.0), Disturbance(), PARAMS)
        assert d.dx == pytest.approx(0.0, abs=1e-12)
        assert d.dy == pytest.approx(2.0)
        assert d.dpsi == 0.3
        assert d.du == 0.0 and d.dr == 0.0

    @given(
        st.floats(-100, 100),
        st.floats(-100, 100),
        st.floats(-50, 50),
        st.floats(-10, 10),
    )
    def test_acceleration_caps_hold(self, left, right, f_surge, tau_yaw):
        d = derivatives(
            BodyState(), ThrustPair(left, right), Disturbance(f_surge, tau_yaw), PARAMS
        )
        assert abs(d.du) <= PARAMS.udot_max
        assert abs(d.dr) <= PARAMS.rdot_max + 1e-12

    def test_yaw_rate_cap_at_table_value(self):
        # (-4, 4) asks for 1.0 rad/s^2 but the cap is 50 deg/s^2
        d = derivatives(BodyState(), ThrustPair(-4.0, 4.0), Disturbance(), PARAMS)
        assert d.dr == pytest.approx(math.radians(50.0))

    def test_pure(self):
        state = BodyState(Pose2D(1, 2, 0.3), u=0.7, r=-0.2)
        a = derivatives(state, ThrustPair(5, -3), Disturbance(1, 2, (0.1, 0.2)), PARAMS)
        b = derivatives(state, ThrustPair(5, -3), Disturbance(1, 2, (0.1, 0.2)), PARAMS)
        assert a == b


class TestStep:
    def test_constant_velocity_exact(self):
        x, y, psi, u, r = 0.0, 0.0, 0.0, 1.0, 0.0
        for k in range(100):
            x, y, psi, u, r = step(x, y, psi, u, r, 0.0, 0.0, CALM, k * 0.02, 0.02, PARAMS)
        assert x == pytest.approx(2.0, abs=1e-9)
        assert y == pytest.approx(0.0, abs=1e-12)
        assert u == 1.0 and r == 0.0

    def test_constant_thrust_ramp(self):
        state = (0.0,) * 5
        for k in range(50):
            state = step(*state, 10.0, 10.0, CALM, k * 0.02, 0.02, PARAMS)
        assert state[3] == pytest.approx(1.0, abs=1e-6)

    def test_constant_couple_double_integrator(self):
        # (-1, 1): rdot = (2 * 0.4) / 3.2 = 0.25 rad/s^2, below the cap
        x, y, psi, u, r = (0.0,) * 5
        for k in range(100):
            x, y, psi, u, r = step(x, y, psi, u, r, -1.0, 1.0, CALM, k * 0.02, 0.02, PARAMS)
        assert r == pytest.approx(0.25 * 2.0, abs=1e-6)
        assert psi == pytest.approx(0.5 * 0.25 * 2.0**2, abs=1e-6)

    def test_coasting_turn_is_a_circle(self):
        u, r = 1.0, 0.5
        radius = u / abs(r)
        center = (0.0, radius)  # start at origin heading +x, turning CCW
        x, y, psi = 0.0, 0.0, 0.0
        steps = int(round((2.0 * math.pi / abs(r)) / 0.02))
        worst = 0.0
        for k in range(steps):
            x, y, psi, u, r = step(x, y, psi, u, r, 0.0, 0.0, CALM, k * 0.02, 0.02, PARAMS)
            dev = abs(math.hypot(x - center[0], y - center[1]) - radius)
            worst = max(worst, dev)
        assert worst < 1e-6 * radius

    def test_order_of_accuracy_on_circle(self):
        # global error vs. the analytic circle must drop by >= 8x when dt halves
        def final_error(dt: float) -> float:
            u, r = 1.0, 0.5
            state = (0.0, 0.0, 0.0, u, r)
            n = int(round(2.0 / dt))
            for k in range(n):
                state = step(*state, 0.0, 0.0, CALM, k * dt, dt, PARAMS)
            t = n * dt
            x = (u / r) * math.sin(r * t)
            y = (u / r) * (1.0 - math.cos(r * t))
            return math.hypot(state[0] - x, state[1] - y)

        e1 = final_error(0.08)
        e2 = final_error(0.04)
        assert e1 / e2 >= 8.0

    def test_heading_rewrapped(self):
        _, _, psi, _, _ = step(0.0, 0.0, math.pi - 0.001, 0.0, 1.0, 0.0, 0.0, CALM, 0.0, 0.02, PARAMS)
        assert -math.pi < psi <= math.pi
        assert psi < 0.0  # crossed the branch cut

    def test_velocity_caps_enforced(self):
        x, y, psi, u, r = 0.0, 0.0, 0.0, 4.999, 1.999
        for k in range(200):
            x, y, psi, u, r = step(x, y, psi, u, r, 0.0, 100.0, CALM, k * 0.02, 0.02, PARAMS)
            assert abs(u) <= PARAMS.u_abs_cap
            assert abs(r) <= PARAMS.r_abs_cap
        assert u == PARAMS.u_abs_cap
        assert r == PARAMS.r_abs_cap

    @pytest.mark.parametrize("dt", [0.0, -0.01, 0.11])
    def test_dt_domain(self, dt):
        with pytest.raises(ValueError):
            step(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, CALM, 0.0, dt, PARAMS)

    def test_non_finite_state_diagnosed(self):
        with pytest.raises(IntegrationError):
            step(0.0, 0.0, 0.0, math.inf, 0.0, 0.0, 0.0, CALM, 0.0, 0.02, PARAMS)

    @pytest.mark.parametrize("r", [math.inf, -math.inf, math.nan])
    def test_non_finite_stage_heading_diagnosed(self, r):
        # the stage headings go non-finite before the result does
        with pytest.raises(IntegrationError, match="non-finite heading"):
            step(0.0, 0.0, 0.0, 0.0, r, 0.0, 0.0, CALM, 0.0, 0.02, PARAMS)


# --- oracle: the dataclass RK4 that step() replaced, kept verbatim -------


def _ref_disturbance_at(t, sea, state, params):
    if sea.wave_gain == 0.0 and (sea.wind_x, sea.wind_y) == (0.0, 0.0):
        return Disturbance()
    arg = 2.0 * math.pi * t / sea.wave_period + sea.wave_phase
    f_surge = sea.wave_gain * sea.wave_force_amp * math.sin(arg)
    tau_yaw = sea.wave_gain * sea.wave_torque_amp * math.sin(arg + math.pi / 2.0)
    vx = state.u * math.cos(state.pose.psi)
    vy = state.u * math.sin(state.pose.psi)
    scale = sea.wind_drag_coeff / params.m
    drift = (
        scale * (sea.wind_x - vx),
        scale * (sea.wind_y - vy),
    )
    return Disturbance(f_surge=f_surge, tau_yaw=tau_yaw, drift=drift)


def _ref_derivatives(state, pair, dist, params):
    du = (pair.left + pair.right + dist.f_surge) / params.m
    du = min(max(du, -params.udot_max), params.udot_max)
    dr = ((pair.right - pair.left) * params.l + dist.tau_yaw) / params.Izz
    dr = min(max(dr, -params.rdot_max), params.rdot_max)
    return StateDerivative(
        dx=state.u * math.cos(state.pose.psi) + dist.drift[0],
        dy=state.u * math.sin(state.pose.psi) + dist.drift[1],
        dpsi=state.r,
        du=du,
        dr=dr,
    )


def _ref_deriv_vec(vec, pair, dist, params):
    x, y, psi, u, r = vec
    d = _ref_derivatives(BodyState(Pose2D(x, y, psi), u, r), pair, dist, params)
    return (d.dx, d.dy, d.dpsi, d.du, d.dr)


def _ref_step(state, pair, sea, t, dt, params):
    if not 0.0 < dt <= 0.1:
        raise ValueError(f"dt must lie in (0, 0.1], got {dt}")
    dist = _ref_disturbance_at(t, sea, state, params)

    v0 = (state.pose.x, state.pose.y, state.pose.psi, state.u, state.r)
    k1 = _ref_deriv_vec(v0, pair, dist, params)
    k2 = _ref_deriv_vec(tuple(a + 0.5 * dt * b for a, b in zip(v0, k1)), pair, dist, params)
    k3 = _ref_deriv_vec(tuple(a + 0.5 * dt * b for a, b in zip(v0, k2)), pair, dist, params)
    k4 = _ref_deriv_vec(tuple(a + dt * b for a, b in zip(v0, k3)), pair, dist, params)
    out = [
        a + (dt / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        for a, b1, b2, b3, b4 in zip(v0, k1, k2, k3, k4)
    ]
    if not all(math.isfinite(v) for v in out):
        raise IntegrationError(f"non-finite state after step at t={t}: {out}")

    x, y, psi, u, r = out
    u = min(max(u, -params.u_abs_cap), params.u_abs_cap)
    r = min(max(r, -params.r_abs_cap), params.r_abs_cap)
    return BodyState(Pose2D(x, y, wrap_angle(psi)), u, r)


def _ref_mix(gen):
    return ThrustPair(left=gen.T1 / 2.0 - gen.T2 / 2.0, right=gen.T1 / 2.0 + gen.T2 / 2.0)


def _ref_unmix(pair):
    return GeneralizedThrust(T1=pair.left + pair.right, T2=pair.right - pair.left)


def _ref_saturate(pair, params):
    lo, hi = params.thrust_min, params.thrust_max
    return ThrustPair(left=min(max(pair.left, lo), hi), right=min(max(pair.right, lo), hi))


def _bits(state):
    return [v.hex() for v in (state.pose.x, state.pose.y, state.pose.psi, state.u, state.r)]


def _near(*centers, width):
    return st.one_of(*(st.floats(c - width, c + width) for c in centers))


_HEADINGS = st.one_of(st.floats(-4.0, 4.0), _near(math.pi, -math.pi, width=1e-9))
_SPEEDS = st.one_of(st.floats(-5.0, 5.0), _near(5.0, -5.0, width=1e-9))
_RATES = st.one_of(st.floats(-2.0, 2.0), _near(2.0, -2.0, width=1e-9))
_THRUSTS = st.one_of(st.floats(-150.0, 150.0), st.sampled_from([-100.0, 100.0, 0.0, -0.0]))
_SEAS = st.one_of(
    st.just(CALM),
    st.builds(
        lambda wind, **knobs: SeaState(wind_x=wind[0], wind_y=wind[1], **knobs),
        wave_gain=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
        wave_period=st.floats(0.5, 20.0),
        wave_phase=st.floats(-math.pi, math.pi),
        wind=st.one_of(
            st.just((0.0, 0.0)), st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
        ),
    ),
)
# Channel commands, with values whose halves overflow or round to zero.
_COMMANDS = st.one_of(st.floats(), st.sampled_from([1.7e308, -1.7e308, 5e-324, -5e-324]))
_PARAMS = st.sampled_from([PARAMS, UsvParams(rdot_max=5.0, udot_max=50.0)])


class TestStepOracle:
    @settings(max_examples=400, deadline=None)
    @given(
        st.floats(-1e3, 1e3),
        st.floats(-1e3, 1e3),
        _HEADINGS,
        _SPEEDS,
        _RATES,
        _THRUSTS,
        _THRUSTS,
        _SEAS,
        st.floats(0.0, 1e3),
        st.floats(0.0, 0.1, exclude_min=True),
        _PARAMS,
    )
    def test_bit_identical_to_dataclass_rk4(self, x, y, psi, u, r, left, right, sea, t, dt, params):
        state = BodyState(Pose2D(x, y, psi), u, r)  # wraps psi, as step requires
        pair = ThrustPair(left, right)
        want = _ref_step(state, pair, sea, t, dt, params)
        got = step(x, y, state.pose.psi, u, r, left, right, sea, t, dt, params)
        assert [v.hex() for v in got] == _bits(want)

    @given(_COMMANDS, _COMMANDS, _PARAMS)
    def test_thrust_forces_is_saturated_mix(self, t1, t2, params):
        gen = GeneralizedThrust(t1, t2)
        left, right = thrust_forces(t1, t2, params)
        pair = _ref_saturate(_ref_mix(gen), params)
        applied = _ref_unmix(pair)
        want = [pair.left.hex(), pair.right.hex()]
        assert [left.hex(), right.hex()] == want
        assert [(left + right).hex(), (right - left).hex()] == [applied.T1.hex(), applied.T2.hex()]
        # the dataclass wrappers agree with their reference copies too
        got = saturate(mix(gen), params)
        assert [got.left.hex(), got.right.hex()] == want
        assert unmix(got) == applied or math.isnan(applied.T1) or math.isnan(applied.T2)
