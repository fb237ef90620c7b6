"""Surge/yaw thrust controllers: PID, sliding-mode, and LQR.

All three return the channel commands (T1 surge force, T2 differential
force) as a float pair for the same reduced plant, and the sliding-mode and
LQR laws read the measured (u, psi, r) as a tuple, so sim.ControllerSpec.build
can swap laws without touching anything else.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, NumericalError, UsvParams, wrap_angle


@dataclass(frozen=True)
class PidGains:
    """Per-axis PID triples plus shared anti-windup and derivative filtering."""

    kp_u: float = 40.0
    ki_u: float = 2.0
    kd_u: float = 5.0
    kp_psi: float = 8.0
    ki_psi: float = 0.2
    kd_psi: float = 4.0
    integral_limit: float = 50.0  # symmetric clamp on each integral state
    derivative_filter_tau: float = 0.1  # s, first-order low-pass on the derivative

    def __post_init__(self) -> None:
        gains = (self.kp_u, self.ki_u, self.kd_u, self.kp_psi, self.ki_psi, self.kd_psi)
        if min(gains) < 0.0:
            raise ConfigError("PID gains must be >= 0")
        if not self.integral_limit > 0.0 or self.derivative_filter_tau < 0.0:
            raise ConfigError("integral_limit must be > 0 and derivative_filter_tau >= 0")


@dataclass(frozen=True)
class SmcGains:
    """Sliding-mode surface slopes, switching gains and boundary layer."""

    lambda_u: float = 1.5  # 1/s
    eta_u: float = 8.0  # N
    lambda_psi: float = 1.2  # 1/s
    eta_psi: float = 1.5  # N
    phi: float = 0.05  # boundary-layer half width; 0 selects pure sgn switching
    ref_filter_tau: float = 0.1  # s, low-pass on finite-difference reference rates

    def __post_init__(self) -> None:
        if min(self.lambda_u, self.eta_u, self.lambda_psi, self.eta_psi) <= 0.0:
            raise ConfigError("sliding-surface slopes and switching gains must be > 0")
        if self.phi < 0.0 or self.ref_filter_tau < 0.0:
            raise ConfigError("phi and ref_filter_tau must be >= 0")


@dataclass(frozen=True)
class LqrWeights:
    """Diagonal state and effort weights for the decoupled surge/yaw regulator.

    q weighs the (u, psi, r) deviations and r the (T1, T2) effort: the
    diagonals of Q and R, which carry no surge/yaw coupling.
    """

    q: tuple[float, float, float] = (4.0, 25.0, 5.0)
    r: tuple[float, float] = (0.05, 0.05)

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", tuple(map(float, self.q)))
        object.__setattr__(self, "r", tuple(map(float, self.r)))
        if len(self.q) != 3 or len(self.r) != 2:
            raise ConfigError("LQR weights need 3 state weights q and 2 effort weights r")
        if not (all(w >= 0.0 for w in self.q) and all(w > 0.0 for w in self.r)):
            raise ConfigError("LQR state weights q must be >= 0 and effort weights r > 0")


@dataclass(frozen=True)
class LqrGain:
    """Solved regulator, as floats.

    K = [[k_u, 0, 0], [0, k_psi, k_r]] maps [u_err, psi_err, r] to -(T1, T2),
    and P = [[p_u, 0, 0], [0, p1, p12], [0, p12, p2]] solves the CARE.
    """

    k_u: float
    k_psi: float
    k_r: float
    p_u: float
    p1: float
    p12: float
    p2: float
    poles: tuple[complex, complex, complex]  # of A - B K: surge, then yaw

    @property
    def K(self) -> np.ndarray:
        return np.array([[self.k_u, 0.0, 0.0], [0.0, self.k_psi, self.k_r]])

    @property
    def P(self) -> np.ndarray:
        return np.array([[self.p_u, 0.0, 0.0], [0.0, self.p1, self.p12], [0.0, self.p12, self.p2]])


@dataclass
class ControllerState:
    """Mutable per-controller memory shared by the step functions."""

    # PID
    i_u: float = 0.0
    i_psi: float = 0.0
    prev_e_u: float | None = None
    prev_e_psi: float | None = None
    d_u: float = 0.0  # filtered error derivatives
    d_psi: float = 0.0
    # SMC reference/plant rate estimates
    prev_u_des: float | None = None
    prev_psi_des: float | None = None
    udot_des: float = 0.0
    psidot_des: float = 0.0
    rdot_des: float = 0.0
    prev_u_meas: float | None = None
    udot_est: float = 0.0


def pid_step(
    state: ControllerState,
    e_u: float,
    e_psi: float,
    dt: float,
    gains: PidGains,
) -> tuple[float, float]:
    """One PID update on the surge-speed and heading errors; returns (T1, T2).

    Rectangular integration with a symmetric integral clamp; backward
    difference derivative through a first-order low-pass. The heading error
    is wrapped before use so raw angle differences are safe to pass in.
    """
    if not dt > 0.0:
        raise ValueError("dt must be > 0")
    pi = math.pi
    e_psi = e_psi if -pi < e_psi <= pi else wrap_angle(e_psi)
    lim = gains.integral_limit

    i_u = state.i_u + e_u * dt
    i_u = -lim if -lim > i_u else i_u
    state.i_u = i_u = lim if lim < i_u else i_u
    i_psi = state.i_psi + e_psi * dt
    i_psi = -lim if -lim > i_psi else i_psi
    state.i_psi = i_psi = lim if lim < i_psi else i_psi

    raw_du = 0.0 if state.prev_e_u is None else (e_u - state.prev_e_u) / dt
    raw_dpsi = 0.0 if state.prev_e_psi is None else e_psi - state.prev_e_psi
    raw_dpsi = (raw_dpsi if -pi < raw_dpsi <= pi else wrap_angle(raw_dpsi)) / dt
    tau = gains.derivative_filter_tau
    if tau <= 0.0:  # first-order low-pass with gain dt / (tau + dt); tau <= 0 passes raw through
        d_u, d_psi = raw_du, raw_dpsi
    else:
        k = dt / (tau + dt)
        d_u = state.d_u + k * (raw_du - state.d_u)
        d_psi = state.d_psi + k * (raw_dpsi - state.d_psi)
    state.d_u, state.d_psi = d_u, d_psi
    state.prev_e_u = e_u
    state.prev_e_psi = e_psi

    return (
        gains.kp_u * e_u + gains.ki_u * i_u + gains.kd_u * d_u,
        gains.kp_psi * e_psi + gains.ki_psi * i_psi + gains.kd_psi * d_psi,
    )


def smc_refs(
    state: ControllerState,
    u_des: float,
    psi_des: float,
    u_meas: float,
    dt: float,
    gains: SmcGains,
) -> tuple[float, float, float, float, float]:
    """Build the (u_des, u̇_des, ψ_des, ψ̇_des, ṙ_des) tuple for smc_step.

    Reference rates come from backward finite differences of the incoming
    references passed through a first-order low-pass; the surge-acceleration
    estimate consumed by smc_step is refreshed here the same way. From a fresh
    ControllerState the first step sees zero rates.
    """
    if not dt > 0.0:
        raise ValueError("dt must be > 0")
    tau = gains.ref_filter_tau
    k = None if tau <= 0.0 else dt / (tau + dt)  # low-pass gain; None passes raw through

    raw = 0.0 if state.prev_u_des is None else (u_des - state.prev_u_des) / dt
    state.udot_des = udot_des = raw if k is None else state.udot_des + k * (raw - state.udot_des)
    state.prev_u_des = u_des

    raw = 0.0 if state.prev_psi_des is None else psi_des - state.prev_psi_des
    raw = (raw if -math.pi < raw <= math.pi else wrap_angle(raw)) / dt
    prev = state.psidot_des
    state.psidot_des = psidot_des = raw if k is None else prev + k * (raw - prev)
    raw = (psidot_des - prev) / dt
    state.rdot_des = rdot_des = raw if k is None else state.rdot_des + k * (raw - state.rdot_des)
    state.prev_psi_des = psi_des

    raw = 0.0 if state.prev_u_meas is None else (u_meas - state.prev_u_meas) / dt
    state.udot_est = raw if k is None else state.udot_est + k * (raw - state.udot_est)
    state.prev_u_meas = u_meas

    return (u_des, udot_des, psi_des, psidot_des, rdot_des)


def smc_step(
    state: ControllerState,
    refs: tuple[float, float, float, float, float],
    meas: tuple[float, float, float],
    gains: SmcGains,
    params: UsvParams,
) -> tuple[float, float]:
    """One sliding-mode (T1, T2) toward refs = (u_des, u̇_des, ψ_des, ψ̇_des, ṙ_des).

    meas is the measured (u, psi, r). Surge surface s_u uses the filtered
    surge-acceleration estimate held in state (refreshed by smc_refs); the
    yaw surface uses the measured rate directly. The switching term is
    eta * sgn(s), ramped inside the boundary layer when phi > 0.
    """
    u_des, udot_des, psi_des, psidot_des, rdot_des = refs
    u, psi, r = meas
    e_u = u_des - u
    e_psi = psi_des - psi
    e_psi = e_psi if -math.pi < e_psi <= math.pi else wrap_angle(e_psi)
    lambda_u, lambda_psi, phi = gains.lambda_u, gains.lambda_psi, gains.phi
    s_u = lambda_u * e_u + udot_des - state.udot_est
    s_psi = lambda_psi * e_psi + psidot_des - r
    if phi > 0.0:  # sgn(s), ramped to s / phi clipped to [-1, 1] inside the boundary layer
        s_u /= phi
        s_u = -1.0 if -1.0 > s_u else s_u
        s_u = 1.0 if 1.0 < s_u else s_u
        s_psi /= phi
        s_psi = -1.0 if -1.0 > s_psi else s_psi
        s_psi = 1.0 if 1.0 < s_psi else s_psi
    else:
        s_u, s_psi = float(np.sign(s_u)), float(np.sign(s_psi))

    T1 = params.m * (udot_des + lambda_u * e_u) - gains.eta_u * s_u
    T2 = params.Izz * (rdot_des + lambda_psi * e_psi) - gains.eta_psi * s_psi
    return T1, T2


# --- LQR ---------------------------------------------------------------


def format_poles(poles: tuple[complex, ...]) -> str:
    """The poles as `re+imj` at 6 decimals, in ascending real part."""
    return ", ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in sorted(poles, key=lambda z: z.real))


def lqr_gain(params: UsvParams, weights: LqrWeights) -> LqrGain:
    """Solve the regulator for the plant in params, on Python floats.

    The plant linearized about zero rates, state (u, psi, r), is a surge
    integrator with input gain b_u = 1/m and a yaw double integrator with
    b = l/Izz. Each continuous algebraic Riccati equation (CARE) has a
    closed-form root. With weights.q = (q_u, q_psi, q_r) and
    weights.r = (r_u, r), the surge one is q_u - (b_u p_u)^2 / r_u = 0; with
    the yaw block [[p1, p12], [p12, p2]] of P, the yaw one reads entry by entry

        q_psi          - (b p12)^2 / r        = 0
        q_r  + 2 p12   - (b p2)^2 / r         = 0
               p1      - (b p12) (b p2) / r   = 0

    and the stabilizing root takes p12, p2 >= 0; the weights' signs keep
    every radicand >= 0. K = R^-1 B' P. The poles of
    A - B K are -b_u k_u and the roots of s^2 + 2 h s + w^2, with
    h = b k_r / 2 and w^2 = b k_psi: -h +- j sqrt(w - h) sqrt(w + h) when
    complex, else s1 = -(h + sqrt(h - w) sqrt(h + w)) and s2 = w^2 / s1,
    forms that neither cancel nor overflow. No BLAS or LAPACK kernel decides
    a bit. A CARE residual (Frobenius norm) of 1e-9 or more, or a pole that
    is not finite and in the open left half-plane, is a NumericalError.
    """
    b_u, b = 1.0 / params.m, params.l / params.Izz
    if not (0.0 < b_u < math.inf and 0.0 < b < math.inf):
        raise NumericalError(f"input gains 1/m = {b_u!r} and l/Izz = {b!r} must be finite and > 0")
    (q_u, q_psi, q_r), (r_u, r) = weights.q, weights.r

    p_u = math.sqrt(q_u * r_u) / b_u
    p12 = math.sqrt(q_psi * r) / b
    p2 = math.sqrt(r * (q_r + 2.0 * p12)) / b
    p1 = (b * p12) * (b * p2) / r
    k_u, k_psi, k_r = b_u * p_u / r_u, b * p12 / r, b * p2 / r
    # The CARE residual A'P + PA - (P B) K + Q, entry by entry. An
    # overflowing plant leaves inf in P and a NaN residual.
    if not math.hypot(
        q_u - (b_u * p_u) * k_u,
        q_psi - (b * p12) * k_psi,
        p1 - (b * p12) * k_r,
        p1 - (b * p2) * k_psi,
        (2.0 * p12 - (b * p2) * k_r) + q_r,
    ) < 1e-9:
        raise NumericalError("CARE residual exceeds tolerance")

    h, c = 0.5 * (b * k_r), b * k_psi
    w = math.sqrt(c)
    if h < w:
        im = math.sqrt(w - h) * math.sqrt(w + h)
        yaw = (complex(-h, im), complex(-h, -im))
    else:
        s1 = -(h + math.sqrt(h - w) * math.sqrt(h + w))
        yaw = (complex(s1, 0.0), complex(c / s1 if c else 0.0, 0.0))
    poles = (complex(-(b_u * k_u), 0.0), *yaw)
    if not all(z.real < 0.0 and cmath.isfinite(z) for z in poles):
        raise NumericalError(f"closed loop is not strictly stable: eigenvalues {format_poles(poles)}")
    return LqrGain(k_u=k_u, k_psi=k_psi, k_r=k_r, p_u=p_u, p1=p1, p12=p12, p2=p2, poles=poles)


def lqr_step(
    gain: LqrGain,
    meas: tuple[float, float, float],
    refs: tuple[float, float],
) -> tuple[float, float]:
    """Full-state feedback (T1, T2) on the error state [u - u_ref, wrap(psi - psi_ref), r].

    meas is the measured (u, psi, r) and refs is (u_ref, psi_ref). K is
    block-diagonal, so T = -K err takes two products on floats. The yaw
    row is the chain fma(k_r, r, k_psi * e_psi) that OpenBLAS dgemv computes on
    FMA kernels, rounded in software so that every machine gives the bits the
    golden logs were pinned on.
    """
    u, psi, r = meas
    u_ref, psi_ref = refs
    e_psi = psi - psi_ref
    e_psi = e_psi if -math.pi < e_psi <= math.pi else wrap_angle(e_psi)
    return -(gain.k_u * (u - u_ref)), -_fma(gain.k_r, r, gain.k_psi * e_psi)


def _fma(a: float, b: float, c: float) -> float:
    """a * b + c rounded once, as a fused multiply-add rounds it.

    Dekker's product (Veltkamp split) gives a * b = p + e exactly, and
    math.fsum rounds p + e + c correctly. Where a split, product or sum could
    overflow or underflow, the exact sum comes from the floats' integer ratios
    instead, rounded by an int true division. An exact zero, an overflow or an
    infinite input falls back to a * b + c, which keeps the IEEE sign of a zero sum.
    """
    p = a * b
    if 1e-290 < abs(p) < 1e300 and abs(a) + abs(b) + abs(c) < 1e300:
        t = 134217729.0 * a  # 2**27 + 1
        a_hi = t - (t - a)
        a_lo = a - a_hi
        t = 134217729.0 * b
        b_hi = t - (t - b)
        b_lo = b - b_hi
        s = math.fsum((p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo, c))
        if s:
            return s
    else:
        try:
            na, da = a.as_integer_ratio()
            nb, db = b.as_integer_ratio()
            nc, dc = c.as_integer_ratio()
            num = na * nb * dc + nc * da * db
            if num:
                return num / (da * db * dc)
        except OverflowError:
            pass
    return p + c
