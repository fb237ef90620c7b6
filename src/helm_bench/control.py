"""Surge/yaw thrust controllers: PID, sliding-mode, and LQR.

All three return the channel commands (T1 surge force, T2 differential
force) as a float pair for the same reduced plant, and the sliding-mode and
LQR laws read the measured (u, psi, r) as a tuple, so the simulation loop
can swap laws without touching anything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    """State and effort weights for the decoupled surge/yaw regulator.

    Q penalizes (u, psi, r) deviations, R the (T1, T2) effort. The solver
    exploits the plant's exact {u} x {psi, r} decoupling, so Q must carry no
    surge/yaw cross terms and R must be diagonal.
    """

    Q: np.ndarray = field(default_factory=lambda: np.diag([4.0, 25.0, 5.0]))
    R: np.ndarray = field(default_factory=lambda: np.diag([0.05, 0.05]))

    def __post_init__(self) -> None:
        Q = np.asarray(self.Q, dtype=float)
        R = np.asarray(self.R, dtype=float)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)
        if Q.shape != (3, 3) or R.shape != (2, 2):
            raise ConfigError("Q must be 3x3 and R 2x2")
        if not np.allclose(Q, Q.T) or not np.allclose(R, R.T):
            raise ConfigError("Q and R must be symmetric")
        if np.linalg.eigvalsh(Q).min() < -1e-12:
            raise ConfigError("Q must be positive semidefinite")
        if np.linalg.eigvalsh(R).min() <= 0.0:
            raise ConfigError("R must be positive definite")


@dataclass(frozen=True)
class LqrGain:
    """Solved regulator: K maps [u_err, psi_err, r] to -(T1, T2); P solves the ARE."""

    K: np.ndarray  # 2x3
    P: np.ndarray  # 3x3
    eigenvalues: np.ndarray  # 3, of the closed loop A - B K
    k_u: float  # K[0, 0], K[1, 1] and K[1, 2] as floats, for lqr_step
    k_psi: float
    k_r: float


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


def _lowpass(current: float, raw: float, dt: float, tau: float) -> float:
    if tau <= 0.0:
        return raw
    return current + (dt / (tau + dt)) * (raw - current)


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
    e_psi = wrap_angle(e_psi)
    lim = gains.integral_limit

    state.i_u = min(max(state.i_u + e_u * dt, -lim), lim)
    state.i_psi = min(max(state.i_psi + e_psi * dt, -lim), lim)

    raw_du = 0.0 if state.prev_e_u is None else (e_u - state.prev_e_u) / dt
    raw_dpsi = 0.0 if state.prev_e_psi is None else wrap_angle(e_psi - state.prev_e_psi) / dt
    state.d_u = _lowpass(state.d_u, raw_du, dt, gains.derivative_filter_tau)
    state.d_psi = _lowpass(state.d_psi, raw_dpsi, dt, gains.derivative_filter_tau)
    state.prev_e_u = e_u
    state.prev_e_psi = e_psi

    return (
        gains.kp_u * e_u + gains.ki_u * state.i_u + gains.kd_u * state.d_u,
        gains.kp_psi * e_psi + gains.ki_psi * state.i_psi + gains.kd_psi * state.d_psi,
    )


def _switch(s: float, phi: float) -> float:
    """sgn(s), smoothed to a unit ramp inside the boundary layer when phi > 0."""
    if phi > 0.0:
        return min(max(s / phi, -1.0), 1.0)
    return float(np.sign(s))


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

    raw_udot_des = 0.0 if state.prev_u_des is None else (u_des - state.prev_u_des) / dt
    state.udot_des = _lowpass(state.udot_des, raw_udot_des, dt, tau)
    state.prev_u_des = u_des

    raw_psidot = (
        0.0 if state.prev_psi_des is None else wrap_angle(psi_des - state.prev_psi_des) / dt
    )
    prev_filtered = state.psidot_des
    state.psidot_des = _lowpass(state.psidot_des, raw_psidot, dt, tau)
    state.rdot_des = _lowpass(state.rdot_des, (state.psidot_des - prev_filtered) / dt, dt, tau)
    state.prev_psi_des = psi_des

    raw_udot = 0.0 if state.prev_u_meas is None else (u_meas - state.prev_u_meas) / dt
    state.udot_est = _lowpass(state.udot_est, raw_udot, dt, tau)
    state.prev_u_meas = u_meas

    return (u_des, state.udot_des, psi_des, state.psidot_des, state.rdot_des)


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
    e_psi = wrap_angle(psi_des - psi)
    s_u = gains.lambda_u * e_u + udot_des - state.udot_est
    s_psi = gains.lambda_psi * e_psi + psidot_des - r

    T1 = params.m * (udot_des + gains.lambda_u * e_u) - gains.eta_u * _switch(s_u, gains.phi)
    T2 = params.Izz * (rdot_des + gains.lambda_psi * e_psi) - gains.eta_psi * _switch(
        s_psi, gains.phi
    )
    return T1, T2


# --- LQR ---------------------------------------------------------------


def build_system(params: UsvParams) -> tuple[np.ndarray, np.ndarray]:
    """Linearized surge/yaw plant about zero rates, state (u, psi, r)."""
    A = np.zeros((3, 3))
    A[1, 2] = 1.0
    B = np.zeros((3, 2))
    B[0, 0] = 1.0 / params.m
    B[2, 1] = params.l / params.Izz
    return A, B


def care_residual(A: np.ndarray, B: np.ndarray, Q: np.ndarray, R: np.ndarray, P: np.ndarray) -> float:
    """Frobenius norm of A'P + PA - P B R^-1 B' P + Q."""
    res = A.T @ P + P @ A - P @ B @ np.linalg.solve(R, B.T @ P) + Q
    return float(np.linalg.norm(res))


def _root(x: float) -> float:
    """Non-negative square root; a negative radicand means no real solution."""
    if x < 0.0:
        raise NumericalError("the Riccati equation has no real solution")
    return math.sqrt(x)


def solve_care(A: np.ndarray, B: np.ndarray, weights: LqrWeights) -> np.ndarray:
    """Stabilizing solution of the continuous algebraic Riccati equation.

    Exploits the plant's exact decoupling into a surge integrator and a yaw
    double integrator, each of whose Riccati equations has a closed-form
    root. With a = A[1,2], b = B[2,1], r = R[1,1] and the yaw block
    P2 = [[p1, p12], [p12, p2]], the CARE reads entry by entry

        q_psi            - (b p12)^2 / r         = 0
        q_r    + 2 a p12 - (b p2)^2 / r          = 0
        q_psir + a p1    - (b p12) (b p2) / r    = 0

    and the stabilizing root takes p12, p2 >= 0. The roots are computed on
    Python floats, so no BLAS kernel decides a bit of P. Requires the
    weights to respect the decoupling (no surge/yaw cross terms in Q,
    diagonal R); anything else is a configuration error.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Q, R = weights.Q, weights.R

    structure = np.zeros((3, 3))
    structure[1, 2] = 1.0
    if A.shape != (3, 3) or not np.array_equal(A != 0.0, structure != 0.0) or A[1, 2] <= 0.0:
        raise ConfigError("A must match the decoupled surge/yaw template")
    if B.shape != (3, 2) or B[0, 0] <= 0.0 or B[2, 1] <= 0.0:
        raise ConfigError("B must actuate surge via column 0 and yaw rate via column 1")
    mask = np.array([[True, False, False], [False, True, True], [False, True, True]])
    if np.any(Q[~mask] != 0.0):
        raise ConfigError("Q must not couple surge with the yaw block")
    if R[0, 1] != 0.0 or R[1, 0] != 0.0:
        raise ConfigError("R must be diagonal")

    # Scalar surge ARE: q_u - (b_u p_u)^2 / r_u = 0.
    p_u = _root(float(Q[0, 0]) * float(R[0, 0])) / float(B[0, 0])
    a, b, r = float(A[1, 2]), float(B[2, 1]), float(R[1, 1])
    p12 = _root(float(Q[1, 1]) * r) / b
    p2 = _root(r * (float(Q[2, 2]) + 2.0 * a * p12)) / b
    p1 = ((b * p12) * (b * p2) / r - float(Q[1, 2])) / a
    return np.array([[p_u, 0.0, 0.0], [0.0, p1, p12], [0.0, p12, p2]])


def lqr_gain(params: UsvParams, weights: LqrWeights) -> LqrGain:
    """Solve the regulator for the plant in params; validates the solution.

    The returned gain satisfies K = R^-1 B' P with CARE residual below 1e-9
    and a strictly stable closed loop (checked, NumericalError otherwise).
    K is formed on Python floats from the entries of P.
    """
    A, B = build_system(params)
    b_u, b = float(B[0, 0]), float(B[2, 1])
    if not (0.0 < b_u < math.inf and 0.0 < b < math.inf):
        raise NumericalError(f"input gains 1/m = {b_u!r} and l/Izz = {b!r} must be finite and > 0")
    P = solve_care(A, B, weights)
    r_u, r = float(weights.R[0, 0]), float(weights.R[1, 1])
    p_u, p12, p2 = float(P[0, 0]), float(P[1, 2]), float(P[2, 2])
    k_u, k_psi, k_r = b_u * p_u / r_u, b * p12 / r, b * p2 / r
    K = np.array([[k_u, 0.0, 0.0], [0.0, k_psi, k_r]])
    # An overflowing plant leaves inf in P and a NaN residual.
    with np.errstate(over="ignore", invalid="ignore"):
        if not care_residual(A, B, weights.Q, weights.R, P) < 1e-9:
            raise NumericalError("CARE residual exceeds tolerance")
        eigs = np.linalg.eigvals(A - B @ K)
    if np.any(eigs.real >= 0.0):
        raise NumericalError(f"closed loop is not strictly stable: eigenvalues {eigs}")
    return LqrGain(K=K, P=P, eigenvalues=eigs, k_u=k_u, k_psi=k_psi, k_r=k_r)


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
    e_psi = wrap_angle(psi - psi_ref)
    return -(gain.k_u * (u - u_ref)), -_fma(gain.k_r, r, gain.k_psi * e_psi)


def _fma(a: float, b: float, c: float) -> float:
    """a * b + c rounded once, as a fused multiply-add rounds it.

    The exact sum is formed from the floats' integer ratios, and CPython rounds
    an int true division correctly. An exact zero, an overflow or an infinite
    input falls back to a * b + c, which keeps the IEEE sign of a zero sum.
    """
    try:
        na, da = a.as_integer_ratio()
        nb, db = b.as_integer_ratio()
        nc, dc = c.as_integer_ratio()
        num = na * nb * dc + nc * da * db
        if num:
            return num / (da * db * dc)
    except OverflowError:
        pass
    return a * b + c
