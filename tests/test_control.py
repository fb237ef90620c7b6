"""PID / sliding-mode / LQR laws and the Riccati solver."""

import ast
import cmath
import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helm_bench import control, dynamics
from helm_bench.control import (
    ControllerState,
    LqrWeights,
    PidGains,
    SmcGains,
    format_poles,
    lqr_gain,
    lqr_step,
    pid_step,
    smc_refs,
    smc_step,
)
from helm_bench.core import ConfigError, NumericalError, UsvParams, wrap_angle

PARAMS = UsvParams()
CONTROL_PY = Path(__file__).resolve().parent.parent / "src" / "helm_bench" / "control.py"
GUIDANCE_PY = CONTROL_PY.with_name("guidance.py")


def _package_imports(path: Path) -> set[str]:
    """The helm_bench modules a source file imports, named relative to the package."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.split(".")[0] == "helm_bench"]
            found.update(name.removeprefix("helm_bench.") for name in names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "helm_bench":
                    continue
                module = module.removeprefix("helm_bench").lstrip(".")
            found.update([module] if module else [a.name for a in node.names])
    return found


def test_control_layer_imports_only_core():
    # the laws take and return plain floats, so they need no sensor or plant type
    assert _package_imports(CONTROL_PY) == {"core"}


def test_guidance_layer_imports_only_core():
    # guidance takes (x, y, w, h) boxes, not the sensor layer's Detection
    assert _package_imports(GUIDANCE_PY) == {"core"}


def meas(u=0.0, psi=0.0, r=0.0) -> tuple[float, float, float]:
    return (u, psi, r)


def _matrices(weights: LqrWeights) -> SimpleNamespace:
    """The weights as the matrix-form references below take them: Q = diag(q), R = diag(r)."""
    return SimpleNamespace(Q=np.diag(weights.q), R=np.diag(weights.r))


# --- reference solvers ---------------------------------------------------
# A verbatim copy of the Newton-Kleinman solve_care that the closed form
# replaced (pole-placement seed, Kronecker-product Lyapunov solve), kept as
# an oracle for the closed-form roots.

_REF_NK_MAX_ITER = 50


def _ref_solve_lyapunov_2x2(Acl: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Solve Acl' P + P Acl = -S through the 4x4 Kronecker system."""
    I2 = np.eye(2)
    M = np.kron(I2, Acl.T) + np.kron(Acl.T, I2)
    vec = np.linalg.solve(M, -S.flatten(order="F"))
    P = vec.reshape(2, 2, order="F")
    return (P + P.T) / 2.0


def _ref_nk_solve_care(A: np.ndarray, B: np.ndarray, weights: SimpleNamespace) -> np.ndarray:
    """Stabilizing solution of the continuous algebraic Riccati equation.

    Exploits the plant's exact decoupling: the surge channel reduces to a
    scalar quadratic, the (psi, r) block is solved by Newton-Kleinman
    iteration seeded with a pole-placement gain at {-1, -2}. Requires the
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

    # Scalar surge ARE: -p^2 b^2 / r + q = 0, stabilizing root p >= 0.
    b_u = B[0, 0]
    p_u = math.sqrt(Q[0, 0] * R[0, 0]) / b_u

    # Yaw block: A2 = [[0, a], [0, 0]] with a = A[1,2], input [0, b2]'.
    a = A[1, 2]
    b2 = B[2, 1]
    A2 = np.array([[0.0, a], [0.0, 0.0]])
    B2 = np.array([[0.0], [b2]])
    Q2 = Q[1:, 1:]
    r2 = R[1, 1]

    if np.all(Q2 == 0.0):
        P2 = np.zeros((2, 2))
    else:
        # Pole placement at {-1, -2}: char poly s^2 + 3 s + 2.
        K = np.array([[2.0 / (a * b2), 3.0 / b2]])
        P2 = None
        # A degenerate plant overflows here; it then fails to converge and
        # raises NumericalError, so numpy need not warn first.
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(_REF_NK_MAX_ITER):
                Acl = A2 - B2 @ K
                S = Q2 + K.T * r2 @ K
                P_next = _ref_solve_lyapunov_2x2(Acl, S)
                if P2 is not None and np.linalg.norm(P_next - P2) <= 1e-13 * max(
                    1.0, np.linalg.norm(P_next)
                ):
                    P2 = P_next
                    break
                P2 = P_next
                K = (B2.T @ P2) / r2
            else:
                raise NumericalError("Newton-Kleinman iteration did not converge in 50 steps")

    P = np.zeros((3, 3))
    P[0, 0] = p_u
    P[1:, 1:] = P2
    return P


# Verbatim copies of the matrix form of the closed-form solve that lqr_gain
# replaced: the plant as A and B, the solve on template-checked matrices, the
# _root helper, and the LAPACK residual and eigenvalue checks. They take the
# weights as matrices (see _matrices).


def _root(x: float) -> float:
    """Non-negative square root; a negative radicand means no real solution."""
    if x < 0.0:
        raise NumericalError("the Riccati equation has no real solution")
    return math.sqrt(x)


@dataclass(frozen=True)
class _RefLqrGain:
    """Solved regulator: K maps [u_err, psi_err, r] to -(T1, T2); P solves the ARE."""

    K: np.ndarray  # 2x3
    P: np.ndarray  # 3x3
    eigenvalues: np.ndarray  # 3, of the closed loop A - B K
    k_u: float  # K[0, 0], K[1, 1] and K[1, 2] as floats, for lqr_step
    k_psi: float
    k_r: float


def _ref_build_system(params: UsvParams) -> tuple[np.ndarray, np.ndarray]:
    """Linearized surge/yaw plant about zero rates, state (u, psi, r)."""
    A = np.zeros((3, 3))
    A[1, 2] = 1.0
    B = np.zeros((3, 2))
    B[0, 0] = 1.0 / params.m
    B[2, 1] = params.l / params.Izz
    return A, B


def _ref_care_residual(A: np.ndarray, B: np.ndarray, Q: np.ndarray, R: np.ndarray, P: np.ndarray) -> float:
    """Frobenius norm of A'P + PA - P B R^-1 B' P + Q."""
    res = A.T @ P + P @ A - P @ B @ np.linalg.solve(R, B.T @ P) + Q
    return float(np.linalg.norm(res))


def _ref_solve_care(A: np.ndarray, B: np.ndarray, weights: SimpleNamespace) -> np.ndarray:
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


def _ref_lqr_gain(params: UsvParams, weights: SimpleNamespace) -> _RefLqrGain:
    """Solve the regulator for the plant in params; validates the solution.

    The returned gain satisfies K = R^-1 B' P with CARE residual below 1e-9
    and a strictly stable closed loop (checked, NumericalError otherwise).
    K is formed on Python floats from the entries of P.
    """
    A, B = _ref_build_system(params)
    b_u, b = float(B[0, 0]), float(B[2, 1])
    if not (0.0 < b_u < math.inf and 0.0 < b < math.inf):
        raise NumericalError(f"input gains 1/m = {b_u!r} and l/Izz = {b!r} must be finite and > 0")
    P = _ref_solve_care(A, B, weights)
    r_u, r = float(weights.R[0, 0]), float(weights.R[1, 1])
    p_u, p12, p2 = float(P[0, 0]), float(P[1, 2]), float(P[2, 2])
    k_u, k_psi, k_r = b_u * p_u / r_u, b * p12 / r, b * p2 / r
    K = np.array([[k_u, 0.0, 0.0], [0.0, k_psi, k_r]])
    # An overflowing plant leaves inf in P and a NaN residual.
    with np.errstate(over="ignore", invalid="ignore"):
        if not _ref_care_residual(A, B, weights.Q, weights.R, P) < 1e-9:
            raise NumericalError("CARE residual exceeds tolerance")
        eigs = np.linalg.eigvals(A - B @ K)
    if np.any(eigs.real >= 0.0):
        raise NumericalError(f"closed loop is not strictly stable: eigenvalues {eigs}")
    return _RefLqrGain(K=K, P=P, eigenvalues=eigs, k_u=k_u, k_psi=k_psi, k_r=k_r)


_PLANTS = [PARAMS, UsvParams(m=0.5, Izz=30.0, l=0.1), UsvParams(m=200.0, Izz=0.5, l=2.0)]


def _yaw_weights(rng) -> tuple[float, float]:
    """(q_psi, q_r): the diagonal of a random positive definite 2x2 block."""
    M = rng.uniform(-3.0, 3.0, size=(2, 2))
    return tuple(np.diag(M.T @ M + 1e-3 * np.eye(2)).tolist())


def _random_weights() -> list[LqrWeights]:
    """The weight draws of the Riccati tests below."""
    rng = np.random.default_rng(7)  # test_random_draws_solve_exactly
    weights = []
    for _ in range(20):
        q = (rng.uniform(0.1, 50.0), *_yaw_weights(rng))
        weights.append(LqrWeights(q=q, r=rng.uniform(0.01, 5.0, size=2)))
    rng = np.random.default_rng(11)  # test_closed_form_matches_newton_kleinman
    for k in range(1000):
        q = rng.uniform(0.1, 50.0, size=3) if k % 2 else (rng.uniform(0.1, 50.0), *_yaw_weights(rng))
        weights.append(LqrWeights(q=q, r=rng.uniform(0.01, 5.0, size=2)))
    rng = np.random.default_rng(5)  # test_float_gains_are_the_entries_of_K
    draws = zip(10.0 ** rng.uniform(-3, 3, (200, 3)), 10.0 ** rng.uniform(-3, 3, (200, 2)))
    weights += [LqrWeights(), LqrWeights(q=(1.0, 1.0, 1.0), r=(1.0, 1.0))]
    return weights + [LqrWeights(q=q, r=r) for q, r in draws]


_RANDOM_CASES = list(itertools.product(_PLANTS, _random_weights()))
# (m, Izz, l, diag Q, diag R) over every plant and weight extreme
_EXTREME_GRID = list(
    itertools.product(
        *[(1e-300, 1e-150, 1.0, 1e150, 1e300)] * 3,
        [(4.0, 25.0, 5.0), (1.0, 0.0, 1.0), (1e6, 1e-300, 0.0), (1e300,) * 3, (1e-300,) * 3],
        [(0.05, 0.05), (1e-300, 1e6), (1e300, 1e300), (1e-300, 1e-300)],
    )
)
_EXTREME_CASES = [
    (UsvParams(m=m, Izz=izz, l=l), LqrWeights(q=q, r=r))
    for m, izz, l, q, r in _EXTREME_GRID
]
# Grid points whose closed loop has poles more than 1/eps apart: LAPACK returns
# the small one as 0, so the matrix form rejected them. Four plants per row
# share b_u = 1/m and b = l/Izz.
_LAPACK_LOSES_A_POLE = {
    (1e-300, 1e-150, 1e-300, (1e6, 1e-300, 0.0), (0.05, 0.05)),
    (1e-300, 1.0, 1e-150, (1e6, 1e-300, 0.0), (0.05, 0.05)),
    (1e-300, 1e150, 1.0, (1e6, 1e-300, 0.0), (0.05, 0.05)),
    (1e-300, 1e300, 1e150, (1e6, 1e-300, 0.0), (0.05, 0.05)),
    (1e-150, 1e-300, 1e-150, (4.0, 25.0, 5.0), (1e-300, 1e6)),
    (1e-150, 1e-150, 1.0, (4.0, 25.0, 5.0), (1e-300, 1e6)),
    (1e-150, 1.0, 1e150, (4.0, 25.0, 5.0), (1e-300, 1e6)),
    (1e-150, 1e150, 1e300, (4.0, 25.0, 5.0), (1e-300, 1e6)),
    (1e-150, 1e-150, 1e-300, (1e6, 1e-300, 0.0), (1e-300, 1e6)),
    (1e-150, 1.0, 1e-150, (1e6, 1e-300, 0.0), (1e-300, 1e6)),
    (1e-150, 1e150, 1.0, (1e6, 1e-300, 0.0), (1e-300, 1e6)),
    (1e-150, 1e300, 1e150, (1e6, 1e-300, 0.0), (1e-300, 1e6)),
    (1e300, 1e-300, 1.0, (4.0, 25.0, 5.0), (0.05, 0.05)),
    (1e300, 1e-150, 1e150, (4.0, 25.0, 5.0), (0.05, 0.05)),
    (1e300, 1.0, 1e300, (4.0, 25.0, 5.0), (0.05, 0.05)),
}


class TestPid:
    def test_pure_proportional(self):
        gains = PidGains(kp_u=2.0, ki_u=0.0, kd_u=0.0, kp_psi=2.0, ki_psi=0.0, kd_psi=0.0)
        T1, T2 = pid_step(ControllerState(), e_u=3.0, e_psi=0.0, dt=0.02, gains=gains)
        assert T1 == pytest.approx(6.0)
        assert T2 == 0.0

    def test_rectangular_integral_recursion(self):
        gains = PidGains(kp_u=2.0, ki_u=1.0, kd_u=0.0, kp_psi=0.0, ki_psi=0.0, kd_psi=0.0)
        state = ControllerState()
        first, _ = pid_step(state, e_u=3.0, e_psi=0.0, dt=1.0, gains=gains)
        second, _ = pid_step(state, e_u=3.0, e_psi=0.0, dt=1.0, gains=gains)
        assert first == pytest.approx(9.0)  # 2*3 + 1*(3*1)
        assert second == pytest.approx(12.0)  # integral now 6

    def test_heading_error_wrapped_before_use(self):
        gains = PidGains(kp_u=0.0, ki_u=0.0, kd_u=0.0, kp_psi=1.0, ki_psi=0.0, kd_psi=0.0)
        _, T2 = pid_step(ControllerState(), 0.0, 2.0 * math.pi - 0.1, 0.02, gains)
        assert T2 == pytest.approx(-0.1, abs=1e-12)

    def test_integral_clamp(self):
        gains = PidGains(kp_u=0.0, ki_u=1.0, kd_u=0.0, integral_limit=2.0)
        state = ControllerState()
        for _ in range(100):
            T1, _ = pid_step(state, e_u=10.0, e_psi=0.0, dt=1.0, gains=gains)
        assert T1 == pytest.approx(2.0)
        assert state.i_u == 2.0

    def test_derivative_backward_difference(self):
        gains = PidGains(
            kp_u=0.0, ki_u=0.0, kd_u=1.0, kp_psi=0.0, ki_psi=0.0, kd_psi=0.0,
            derivative_filter_tau=0.0,
        )
        state = ControllerState()
        assert pid_step(state, 1.0, 0.0, 0.5, gains)[0] == 0.0  # no previous error yet
        T1, _ = pid_step(state, 2.0, 0.0, 0.5, gains)
        assert T1 == pytest.approx((2.0 - 1.0) / 0.5)

    def test_memoryless_without_integral(self):
        # with ki = 0 and an unfiltered derivative the output depends only on
        # (previous error, current error, dt), not the rest of the history
        gains = PidGains(ki_u=0.0, ki_psi=0.0, derivative_filter_tau=0.0)
        s1 = ControllerState()
        for e in (5.0, -2.0, 0.3, 1.0):
            pid_step(s1, e, e, 0.02, gains)
        out1 = pid_step(s1, 2.0, 2.0, 0.02, gains)
        s2 = ControllerState()
        pid_step(s2, 1.0, 1.0, 0.02, gains)  # different history, same last error
        out2 = pid_step(s2, 2.0, 2.0, 0.02, gains)
        assert out1 == out2

    def test_dt_domain(self):
        with pytest.raises(ValueError):
            pid_step(ControllerState(), 0.0, 0.0, 0.0, PidGains())

    def test_gain_validation(self):
        with pytest.raises(ConfigError):
            PidGains(kp_u=-1.0)
        with pytest.raises(ConfigError):
            PidGains(integral_limit=0.0)


class TestSmc:
    def test_yaw_equivalent_control_minus_switching(self):
        gains = SmcGains(lambda_psi=1.0, eta_psi=0.5, phi=0.0)
        T1, T2 = smc_step(
            ControllerState(),
            refs=(0.0, 0.0, 0.2, 0.0, 0.0),
            meas=meas(),
            gains=gains,
            params=PARAMS,
        )
        assert T2 == pytest.approx(3.2 * 0.2 - 0.5, abs=1e-12)  # 0.14
        assert T1 == 0.0  # zero surge error, sgn(0) = 0

    def test_mirror_symmetry(self):
        gains = SmcGains(lambda_psi=1.0, eta_psi=0.5, phi=0.0)
        _, pos = smc_step(ControllerState(), (0, 0, 0.2, 0, 0), meas(), gains, PARAMS)
        _, neg = smc_step(ControllerState(), (0, 0, -0.2, 0, 0), meas(), gains, PARAMS)
        assert neg == pytest.approx(-pos, abs=1e-12)

    def test_on_surface_equilibrium(self):
        T1, T2 = smc_step(ControllerState(), (0, 0, 0, 0, 0), meas(), SmcGains(), PARAMS)
        assert T1 == 0.0 and T2 == 0.0

    def test_heading_error_wrapped(self):
        gains = SmcGains(lambda_psi=1.0, eta_psi=0.5, phi=0.0)
        _, wrapped = smc_step(ControllerState(), (0, 0, 0.2, 0, 0), meas(), gains, PARAMS)
        _, raw = smc_step(
            ControllerState(), (0, 0, 0.2 + 2.0 * math.pi, 0, 0), meas(), gains, PARAMS
        )
        assert raw == pytest.approx(wrapped, abs=1e-9)

    def test_boundary_layer_is_lipschitz(self):
        gains = SmcGains(lambda_psi=1.2, eta_psi=1.5, phi=0.05)
        # Lipschitz bound of T2 in the heading error
        L = PARAMS.Izz * gains.lambda_psi + gains.eta_psi * gains.lambda_psi / gains.phi
        errors = np.linspace(-0.2, 0.2, 2001)
        outs = [
            smc_step(ControllerState(), (0, 0, float(e), 0, 0), meas(), gains, PARAMS)[1]
            for e in errors
        ]
        step = errors[1] - errors[0]
        assert np.max(np.abs(np.diff(outs))) <= L * step * (1.0 + 1e-9)

    def test_pure_switching_jumps_only_at_zero(self):
        gains = SmcGains(lambda_psi=1.2, eta_psi=1.5, phi=0.0)
        eps = 1e-9
        _, plus = smc_step(ControllerState(), (0, 0, eps, 0, 0), meas(), gains, PARAMS)
        _, minus = smc_step(ControllerState(), (0, 0, -eps, 0, 0), meas(), gains, PARAMS)
        assert plus - minus == pytest.approx(-2.0 * gains.eta_psi, abs=1e-6)

    def test_gain_validation(self):
        with pytest.raises(ConfigError):
            SmcGains(eta_u=0.0)
        with pytest.raises(ConfigError):
            SmcGains(phi=-0.1)


class TestSmcRefs:
    def test_first_step_sees_zero_rates(self):
        state = ControllerState()
        refs = smc_refs(state, 1.0, 0.5, 0.0, 0.02, SmcGains())
        assert refs == (1.0, 0.0, 0.5, 0.0, 0.0)

    def test_constant_references_keep_zero_rates(self):
        state = ControllerState()
        gains = SmcGains()
        for _ in range(10):
            refs = smc_refs(state, 1.0, 0.5, 0.0, 0.02, gains)
        assert refs[1] == 0.0 and refs[3] == 0.0 and refs[4] == 0.0

    def test_reference_rate_sign_and_filtering(self):
        state = ControllerState()
        gains = SmcGains(ref_filter_tau=0.1)
        smc_refs(state, 0.0, 0.0, 0.0, 0.02, gains)
        refs = smc_refs(state, 0.1, 0.2, 0.0, 0.02, gains)
        raw_udot = 0.1 / 0.02
        assert 0.0 < refs[1] < raw_udot  # low-pass keeps it below the raw difference
        assert 0.0 < refs[3] < 0.2 / 0.02

    def test_heading_reference_wraps_across_branch_cut(self):
        state = ControllerState()
        gains = SmcGains()
        smc_refs(state, 0.0, math.pi - 0.05, 0.0, 0.02, gains)
        refs = smc_refs(state, 0.0, -math.pi + 0.05, 0.0, 0.02, gains)
        # the 0.1 rad forward step must not read as a -2pi jump
        assert 0.0 < refs[3] <= 0.1 / 0.02

    def test_surge_acceleration_estimate_updates(self):
        state = ControllerState()
        gains = SmcGains()
        smc_refs(state, 0.0, 0.0, 1.0, 0.02, gains)
        smc_refs(state, 0.0, 0.0, 1.2, 0.02, gains)
        assert state.udot_est > 0.0

    def test_dt_domain(self):
        with pytest.raises(ValueError):
            smc_refs(ControllerState(), 0.0, 0.0, 0.0, 0.0, SmcGains())


class TestRiccati:
    def test_scalar_surge_closed_form(self):
        W = LqrWeights(q=(1.0, 1.0, 1.0), r=(1.0, 1.0))
        gain = lqr_gain(PARAMS, W)
        assert gain.P[0, 0] == pytest.approx(20.0, abs=1e-9)  # m * sqrt(Q_u * R_1)
        assert gain.K[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_cost_gives_zero_solution(self):
        # P = 0 gives K = 0, which leaves the open-loop poles at 0
        W = LqrWeights(q=(0.0, 0.0, 0.0), r=(1.0, 1.0))
        with pytest.raises(NumericalError, match="not strictly stable"):
            lqr_gain(PARAMS, W)
        A, B = _ref_build_system(PARAMS)
        assert np.all(_ref_solve_care(A, B, _matrices(W)) == 0.0)

    def test_yaw_block_residual(self):
        W = LqrWeights(q=(1.0, 1.0, 1.0), r=(1.0, 1.0))
        A, B = _ref_build_system(PARAMS)
        gain = lqr_gain(PARAMS, W)
        assert _ref_care_residual(A, B, np.diag(W.q), np.diag(W.r), gain.P) < 1e-9
        eigs = np.linalg.eigvals(A - B @ gain.K)
        assert np.all(eigs.real < 0.0)

    def test_random_draws_solve_exactly(self):
        rng = np.random.default_rng(7)
        A, B = _ref_build_system(PARAMS)
        for _ in range(20):
            q = (rng.uniform(0.1, 50.0), *_yaw_weights(rng))
            W = LqrWeights(q=q, r=rng.uniform(0.01, 5.0, size=2))
            P = lqr_gain(PARAMS, W).P
            assert _ref_care_residual(A, B, np.diag(W.q), np.diag(W.r), P) < 1e-9
            assert np.allclose(P, P.T, atol=1e-12)
            assert np.linalg.eigvalsh(P).min() >= -1e-10

    def test_gain_invariant_under_joint_scaling(self):
        base = LqrWeights()
        scaled = LqrWeights(q=7.3 * np.array(base.q), r=7.3 * np.array(base.r))
        K1 = lqr_gain(PARAMS, base).K
        K2 = lqr_gain(PARAMS, scaled).K
        assert np.max(np.abs(K1 - K2)) < 1e-9

    def test_gain_sparsity_matches_decoupling(self):
        K = lqr_gain(PARAMS, LqrWeights()).K
        assert K[0, 1] == 0.0 and K[0, 2] == 0.0 and K[1, 0] == 0.0

    def test_float_gains_are_the_entries_of_K(self):
        rng = np.random.default_rng(5)
        weights = [LqrWeights(), LqrWeights(q=(1.0, 1.0, 1.0), r=(1.0, 1.0))] + [
            LqrWeights(q=q, r=r)
            for q, r in zip(10.0 ** rng.uniform(-3, 3, (200, 3)), 10.0 ** rng.uniform(-3, 3, (200, 2)))
        ]
        plants = [PARAMS, UsvParams(m=0.5, Izz=30.0, l=0.1), UsvParams(m=200.0, Izz=0.5, l=2.0)]
        for params, w in itertools.product(plants, weights):
            gain = lqr_gain(params, w)
            (k_u, _, _), (_, k_psi, k_r) = gain.K.tolist()
            got = [gain.k_u.hex(), gain.k_psi.hex(), gain.k_r.hex()]
            assert got == [k_u.hex(), k_psi.hex(), k_r.hex()]

    def test_default_gain_is_pinned(self):
        K = lqr_gain(PARAMS, LqrWeights()).K
        assert K.tolist() == [
            [8.944271909999157, 0.0, 0.0],
            [0.0, 22.360679774997898, 21.395580767998943],
        ]

    def test_closed_form_matches_newton_kleinman(self):
        # The iteration stops at a relative step of 1e-13, so it is itself a
        # few ulps off the root; 1e-14 is ~45 ulps at the largest entry.
        rng = np.random.default_rng(11)
        A, B = _ref_build_system(PARAMS)
        for k in range(1000):
            q = rng.uniform(0.1, 50.0, size=3) if k % 2 else (rng.uniform(0.1, 50.0), *_yaw_weights(rng))
            W = LqrWeights(q=q, r=rng.uniform(0.01, 5.0, size=2))
            gain = lqr_gain(PARAMS, W)
            P_ref = _ref_nk_solve_care(A, B, _matrices(W))
            K_ref = np.linalg.solve(np.diag(W.r), B.T @ P_ref)
            np.testing.assert_allclose(gain.P, P_ref, rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(gain.K, K_ref, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize(
        "params",
        [UsvParams(Izz=1e300, l=1e-300), UsvParams(m=1e-320), UsvParams(Izz=1e-300, l=1e300)],
        ids=["l/Izz underflows", "1/m overflows", "l/Izz overflows"],
    )
    def test_input_gain_outside_the_floats_is_numerical_error(self, params):
        with pytest.raises(NumericalError, match="must be finite and > 0"):
            lqr_gain(params, LqrWeights())

    @pytest.mark.parametrize("izz", [1e-8, 1e-7])
    def test_closed_loop_outside_the_floats_is_numerical_error(self, izz):
        # b k_r or b k_psi overflows although b = l/Izz and K are finite
        with pytest.raises(NumericalError, match="not strictly stable"):
            lqr_gain(UsvParams(Izz=izz, l=1e300), LqrWeights())

    def test_extreme_plants_and_weights_never_warn(self):
        solved = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m, izz, l, q, r in _EXTREME_GRID:
                W = LqrWeights(q=q, r=r)
                try:
                    gain = lqr_gain(UsvParams(m=m, Izz=izz, l=l), W)
                except NumericalError:
                    continue
                solved += 1
                assert np.all(np.isfinite(gain.K)) and np.all(np.isfinite(gain.P))
                assert all(z.real < 0.0 for z in gain.poles)
        assert solved > 0

    def test_matches_the_matrix_solver(self):
        # The gain and P are bit-identical to the matrix form's, and the
        # accept/reject decision and error text are the same, except where
        # LAPACK's eigenvalues lose a pole (below).
        grid = [None] * len(_RANDOM_CASES) + _EXTREME_GRID
        for point, (params, W) in zip(grid, _RANDOM_CASES + _EXTREME_CASES):
            try:
                want = _ref_lqr_gain(params, _matrices(W))
            except NumericalError as exc:
                if point in _LAPACK_LOSES_A_POLE:
                    continue
                with pytest.raises(NumericalError) as got:
                    lqr_gain(params, W)
                # only the format of the eigenvalues changed
                stable = "closed loop is not strictly stable: eigenvalues "
                assert str(got.value) == str(exc) or (
                    str(got.value).startswith(stable) and str(exc).startswith(stable + "[")
                ), (point, str(got.value), str(exc))
                continue
            gain = lqr_gain(params, W)
            got_bits = [gain.k_u, gain.k_psi, gain.k_r, gain.p_u, gain.p1, gain.p12, gain.p2]
            P = want.P.tolist()
            want_bits = [want.k_u, want.k_psi, want.k_r, P[0][0], P[1][1], P[1][2], P[2][2]]
            assert [v.hex() for v in got_bits] == [v.hex() for v in want_bits], point

    def test_poles_match_lapack_to_the_printed_digits(self):
        for params, W in _RANDOM_CASES:
            A, B = _ref_build_system(params)
            gain = lqr_gain(params, W)
            eigs = np.linalg.eigvals(A - B @ gain.K)
            assert format_poles(gain.poles) == format_poles(tuple(complex(z) for z in eigs))

    def test_cases_where_lapack_loses_a_pole_are_solved(self):
        # The closed form finds the pole LAPACK returned as 0: each yaw pair
        # solves s^2 + b k_r s + b k_psi = 0.
        assert len(_LAPACK_LOSES_A_POLE) == 15
        for m, izz, l, q, r in _LAPACK_LOSES_A_POLE:
            params, W = UsvParams(m=m, Izz=izz, l=l), LqrWeights(q=q, r=r)
            with pytest.raises(NumericalError, match="not strictly stable"):
                _ref_lqr_gain(params, _matrices(W))
            gain = lqr_gain(params, W)
            assert np.all(np.isfinite(gain.K)) and np.all(np.isfinite(gain.P))
            assert all(z.real < 0.0 and cmath.isfinite(z) for z in gain.poles)
            b = l / izz
            _, s1, s2 = gain.poles
            assert (s1 + s2).real == pytest.approx(-b * gain.k_r, rel=1e-12)
            assert (s1 * s2).real == pytest.approx(b * gain.k_psi, rel=1e-12)

    def test_solve_makes_no_numpy_linalg_call(self, monkeypatch):
        def linalg_call(*args, **kwargs):
            raise AssertionError("numpy.linalg called")

        for name in ("eigvals", "solve", "norm", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, linalg_call)
        # the weights are built under the patch too: they check signs, not eigenvalues
        stable = [LqrWeights(), LqrWeights(q=(1.0, 2.0, 1.0), r=(0.5, 2.0))]
        unweighted_heading = LqrWeights(q=(1.0, 0.0, 1.0))
        for W in stable:
            assert all(z.real < 0.0 for z in lqr_gain(PARAMS, W).poles)
        with pytest.raises(NumericalError, match="not strictly stable"):
            lqr_gain(PARAMS, unweighted_heading)

    def test_weight_validation(self):
        for q, r in [
            ((1.0, 1.0, -1.0), (1.0, 1.0)),  # a negative state weight
            ((-1e-13, 1.0, 1.0), (1.0, 1.0)),  # however small
            ((1.0, 1.0, 1.0), (1.0, 0.0)),  # a zero effort weight
            ((1.0, math.nan, 1.0), (1.0, 1.0)),
            ((1.0, 1.0), (1.0, 1.0)),  # wrong lengths
            ((1.0, 1.0, 1.0), (1.0, 1.0, 1.0)),
        ]:
            with pytest.raises(ConfigError):
                LqrWeights(q=q, r=r)


def _fma_oracle(a: float, b: float, c: float) -> float:
    """a * b + c rounded once to the nearest float, computed on exact rationals."""
    exact = Fraction(a) * Fraction(b) + Fraction(c)
    if exact:
        return float(exact)
    # IEEE 754, round to nearest: an exact zero is -0.0 only if both addends are -0.0.
    product_is_negative_zero = (a == 0.0 or b == 0.0) and math.copysign(1.0, a * b) < 0.0
    return -0.0 if product_is_negative_zero and math.copysign(1.0, c) < 0.0 else 0.0


class TestLqrStep:
    def test_matches_an_exact_fma_chain(self):
        # T1 = -(k_u e_u) and T2 = -fma(k_r, r, k_psi e_psi): each product and the
        # fused sum rounded once. Bits are compared, signed zeros included.
        rng = np.random.default_rng(20)
        weights = [LqrWeights()] + [
            LqrWeights(q=q, r=r)
            for q, r in zip(rng.uniform(0.01, 100.0, (4, 3)), rng.uniform(0.01, 10.0, (4, 2)))
        ]
        signed_zeros = list(itertools.product((0.0, -0.0, 0.5, -0.5), repeat=3))
        for w in weights:
            gain = lqr_gain(PARAMS, w)
            (k_u, _, _), (_, k_psi, k_r) = gain.K.tolist()
            exponents = rng.uniform(-160.0, 160.0, (1000, 3))
            exponents[:, 1] = rng.uniform(-160.0, 0.0, 1000)  # heading errors inside (-pi, pi]
            random = rng.uniform(-1.0, 1.0, (1000, 3)) * 10.0**exponents * [1.0, math.pi, 1.0]
            for e_u, e_psi, r in signed_zeros + random.tolist():
                out = lqr_step(gain, meas(u=e_u, psi=e_psi, r=r), refs=(0.0, 0.0))
                T1 = -_fma_oracle(k_u, e_u, -0.0)
                T2 = -_fma_oracle(k_r, r, _fma_oracle(k_psi, e_psi, -0.0))
                assert (out[0].hex(), out[1].hex()) == (T1.hex(), T2.hex()), (e_u, e_psi, r)

    def test_overflowing_error_gives_infinite_thrust(self):
        gain = lqr_gain(PARAMS, LqrWeights())
        out = lqr_step(gain, meas(u=1e308, r=-1e308), refs=(-1e308, 0.0))
        assert out == (-math.inf, math.inf)

    def test_zero_error_zero_thrust(self):
        gain = lqr_gain(PARAMS, LqrWeights())
        T1, T2 = lqr_step(gain, meas(u=1.0, psi=0.3, r=0.0), refs=(1.0, 0.3))
        assert T1 == pytest.approx(0.0, abs=1e-12)
        assert T2 == pytest.approx(0.0, abs=1e-12)

    def test_accelerates_when_slow(self):
        gain = lqr_gain(PARAMS, LqrWeights(q=(1.0, 1.0, 1.0), r=(1.0, 1.0)))
        T1, _ = lqr_step(gain, meas(u=0.5), refs=(1.0, 0.0))
        assert T1 == pytest.approx(0.5, abs=1e-9)  # surge row is [1, 0, 0]

    def test_turns_toward_reference(self):
        gain = lqr_gain(PARAMS, LqrWeights())
        _, T2 = lqr_step(gain, meas(psi=0.1), refs=(0.0, 0.0))
        assert T2 < 0.0  # pointing left of target: clockwise correction

    def test_error_wrapped_at_branch_cut(self):
        gain = lqr_gain(PARAMS, LqrWeights())
        _, near = lqr_step(gain, meas(psi=math.pi - 0.05), refs=(0.0, -math.pi + 0.05))
        assert abs(near) < 10.0  # 0.1 rad error, not ~2pi

    def test_desk_regulation_with_one_reversal_budget(self):
        gain = lqr_gain(PARAMS, LqrWeights())
        x, y, psi, u, r = 0.0, 0.0, 0.5, 0.0, 0.0
        dt = 0.02
        errors = []
        for k in range(int(15.0 / dt)):
            m = meas(u=u, psi=psi, r=r)
            out = lqr_step(gain, m, refs=(0.0, 0.0))
            left, right = dynamics.thrust_forces(*out, PARAMS)
            x, y, psi, u, r = dynamics.step(
                x, y, psi, u, r, left, right, dynamics.CALM, k * dt, dt, PARAMS
            )
            errors.append(psi)
        assert abs(errors[-1]) < 0.01
        signs = [e for e in errors if abs(e) > 1e-3]  # ignore the settled tail
        reversals = sum(
            1 for a, b in zip(signs, signs[1:]) if math.copysign(1, a) != math.copysign(1, b)
        )
        assert reversals <= 2  # first crossing plus at most one more


# Finite floats across the whole exponent range, with subnormals, the edges
# of _fma's split-product range and exact halves, where rounding ties.
_FMA_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(
        lambda m, e: math.ldexp(m, e), st.floats(-1.0, 1.0), st.integers(-1074, 1023)
    ),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-290, 1e300, -1e300, 0.5, 1.5, 2.0**53 + 1.0]),
)


class TestFma:
    @settings(max_examples=2000, deadline=None)
    @given(_FMA_FLOATS, _FMA_FLOATS, _FMA_FLOATS, st.booleans())
    def test_rounds_once(self, a, b, c, cancel):
        if cancel and math.isfinite(a * b):
            c = -(a * b)  # the exact sum is the product's rounding error
        try:
            want = _fma_oracle(a, b, c)
        except OverflowError:  # beyond the largest float: an FMA gives inf
            assert math.isinf(control._fma(a, b, c))
            return
        assert control._fma(a, b, c).hex() == want.hex(), (a, b, c)

    def test_ties_round_to_even(self):
        # a * a = 2**54 + 2**28 + 1 exactly, where floats lie 4 apart. Each c puts
        # the exact sum halfway between two floats; a * a + c, rounded twice,
        # misses the even one for c = 5 and c = -3.
        a, base = 2.0**27 + 1.0, 2.0**54 + 2.0**28
        for c, want in ((1.0, base), (5.0, base + 8.0), (-3.0, base)):
            assert control._fma(a, a, c) == want == _fma_oracle(a, a, c), c
        assert a * a + 5.0 == base + 4.0 and a * a - 3.0 == base - 4.0


class TestZeroAtReset:
    def test_all_three_idle_at_zero(self):
        pid = pid_step(ControllerState(), 0.0, 0.0, 0.02, PidGains())
        smc = smc_step(ControllerState(), (0, 0, 0, 0, 0), meas(), SmcGains(), PARAMS)
        lqr = lqr_step(lqr_gain(PARAMS, LqrWeights()), meas(), (0.0, 0.0))
        for T1, T2 in (pid, smc, lqr):
            assert T1 == pytest.approx(0.0, abs=1e-12)
            assert T2 == pytest.approx(0.0, abs=1e-12)


# --- oracle: the dataclass control laws that the tuple forms replaced ------
# Verbatim copies of the laws that took a StateMeasurement and returned a
# GeneralizedThrust, with the two dataclasses and the _lowpass and _switch
# helpers that pid_step, smc_refs and smc_step now compute inline; _fma is
# called from the package.


def _lowpass(current: float, raw: float, dt: float, tau: float) -> float:
    """One first-order low-pass update; pid_step and smc_refs compute it inline."""
    if tau <= 0.0:
        return raw
    return current + (dt / (tau + dt)) * (raw - current)


def _switch(s: float, phi: float) -> float:
    """sgn(s), smoothed to a unit ramp inside the boundary layer when phi > 0; smc_step computes it inline."""
    if phi > 0.0:
        return min(max(s / phi, -1.0), 1.0)
    return float(np.sign(s))


@dataclass(frozen=True)
class StateMeasurement:
    """Noisy onboard estimate of the own-ship state."""

    u: float  # m/s
    psi: float  # rad, wrapped
    r: float  # rad/s


@dataclass(frozen=True)
class GeneralizedThrust:
    """Surge/yaw channel commands: T1 drives surge, T2 the yaw couple."""

    T1: float = 0.0  # N
    T2: float = 0.0  # N (differential force; moment is T2 * l)


def _ref_pid_step(state, e_u, e_psi, dt, gains):
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

    return GeneralizedThrust(
        T1=gains.kp_u * e_u + gains.ki_u * state.i_u + gains.kd_u * state.d_u,
        T2=gains.kp_psi * e_psi + gains.ki_psi * state.i_psi + gains.kd_psi * state.d_psi,
    )


def _ref_smc_refs(state, u_des, psi_des, u_meas, dt, gains):
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
    state.rdot_des = _lowpass(
        state.rdot_des, (state.psidot_des - prev_filtered) / dt, dt, tau
    )
    state.prev_psi_des = psi_des

    raw_udot = 0.0 if state.prev_u_meas is None else (u_meas - state.prev_u_meas) / dt
    state.udot_est = _lowpass(state.udot_est, raw_udot, dt, tau)
    state.prev_u_meas = u_meas

    return (u_des, state.udot_des, psi_des, state.psidot_des, state.rdot_des)


def _ref_smc_step(state, refs, meas, gains, params):
    u_des, udot_des, psi_des, psidot_des, rdot_des = refs
    e_u = u_des - meas.u
    e_psi = wrap_angle(psi_des - meas.psi)
    s_u = gains.lambda_u * e_u + udot_des - state.udot_est
    s_psi = gains.lambda_psi * e_psi + psidot_des - meas.r

    T1 = params.m * (udot_des + gains.lambda_u * e_u) - gains.eta_u * _switch(
        s_u, gains.phi
    )
    T2 = params.Izz * (rdot_des + gains.lambda_psi * e_psi) - gains.eta_psi * _switch(
        s_psi, gains.phi
    )
    return GeneralizedThrust(T1=T1, T2=T2)


def _ref_lqr_step(gain, meas, refs):
    u_ref, psi_ref = refs
    (k_u, _, _), (_, k_psi, k_r) = gain.K.tolist()
    e_psi = wrap_angle(meas.psi - psi_ref)
    return GeneralizedThrust(
        T1=-(k_u * (meas.u - u_ref)), T2=-control._fma(k_r, meas.r, k_psi * e_psi)
    )


def _bits(call):
    """Hex of each float a call returns, or the error it raised."""
    try:
        out = call()
    except ValueError as exc:
        return repr(exc)
    if isinstance(out, GeneralizedThrust):
        out = (out.T1, out.T2)
    return [v.hex() for v in out]


def _near(*centers, width):
    return st.one_of(*(st.floats(c - width, c + width) for c in centers))


_EDGES = st.sampled_from([0.0, -0.0, math.inf, -math.inf, 1e308, -1e308, 5e-324, -5e-324])
_VALUES = st.one_of(st.floats(-2.0, 2.0), st.floats(-1e3, 1e3), _EDGES, st.floats())
# Headings and heading errors, with values at and next to the wrap boundary.
_ANGLES = st.one_of(
    st.floats(-4.0, 4.0),
    _near(math.pi, -math.pi, 2.0 * math.pi, width=1e-9),
    st.sampled_from([math.pi, -math.pi, math.nextafter(math.pi, 4.0), math.nextafter(-math.pi, -4.0)]),
    _EDGES,
)
_DTS = st.one_of(st.sampled_from([0.02, 0.1, 0.0, -0.0, 5e-324]), st.floats(1e-6, 1.0))
_PID_GAINS = st.sampled_from(
    [PidGains(), PidGains(derivative_filter_tau=0.0, integral_limit=1.0, ki_psi=3.0)]
)
# A wide boundary layer keeps the switching term off its clamps.
_SMC_GAINS = st.sampled_from(
    [SmcGains(), SmcGains(phi=0.0, ref_filter_tau=0.0), SmcGains(phi=1e3, ref_filter_tau=0.5)]
)
_SMC_PARAMS = st.sampled_from([PARAMS, UsvParams(m=1e-3, Izz=1e3)])
_LQR_GAINS = st.sampled_from(
    [
        lqr_gain(PARAMS, LqrWeights()),
        lqr_gain(PARAMS, LqrWeights(q=(1e-6, 1e6, 0.0), r=(1e3, 1e-3))),
    ]
)


class TestLawOracles:
    """The tuple forms return the bits of the dataclass forms, and leave the same state."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_VALUES, _ANGLES), min_size=1, max_size=4), _DTS, _PID_GAINS)
    def test_pid_step(self, errors, dt, gains):
        got_state, want_state = ControllerState(), ControllerState()
        for e_u, e_psi in errors:
            got = _bits(lambda: pid_step(got_state, e_u, e_psi, dt, gains))
            want = _bits(lambda: _ref_pid_step(want_state, e_u, e_psi, dt, gains))
            assert got == want
            assert repr(got_state) == repr(want_state)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(_VALUES, _ANGLES, _VALUES, _ANGLES, _VALUES), min_size=1, max_size=4),
        _DTS,
        _SMC_GAINS,
        _SMC_PARAMS,
    )
    def test_smc_refs_and_step(self, steps, dt, gains, params):
        got_state, want_state = ControllerState(), ControllerState()
        for u_des, psi_des, u, psi, r in steps:
            got_refs = _bits(lambda: smc_refs(got_state, u_des, psi_des, u, dt, gains))
            want_refs = _bits(lambda: _ref_smc_refs(want_state, u_des, psi_des, u, dt, gains))
            assert got_refs == want_refs
            if isinstance(got_refs, list):
                refs = tuple(map(float.fromhex, got_refs))
                got = _bits(lambda: smc_step(got_state, refs, (u, psi, r), gains, params))
                meas = StateMeasurement(u, psi, r)
                want = _bits(lambda: _ref_smc_step(want_state, refs, meas, gains, params))
                assert got == want
            assert repr(got_state) == repr(want_state)

    def test_signed_zero_sequences(self):
        # every two-step sequence of signed zeros, where only the sign of a zero
        # sum or difference tells the forms apart
        zeros = (0.0, -0.0)
        pairs = list(itertools.product(zeros, repeat=2))
        for steps, dt, tau in itertools.product(
            itertools.product(pairs, repeat=2), (0.02, 1.0), (0.0, 0.1)
        ):
            got_state, want_state = ControllerState(), ControllerState()
            pid = PidGains(derivative_filter_tau=tau)
            for e_u, e_psi in steps:
                got = _bits(lambda: pid_step(got_state, e_u, e_psi, dt, pid))
                assert got == _bits(lambda: _ref_pid_step(want_state, e_u, e_psi, dt, pid))
        for steps, gains in itertools.product(
            itertools.product(itertools.product(zeros, repeat=5), repeat=2),
            (SmcGains(phi=0.0, ref_filter_tau=0.0), SmcGains()),
        ):
            got_state, want_state = ControllerState(), ControllerState()
            for u_des, psi_des, u, psi, r in steps:
                refs = smc_refs(got_state, u_des, psi_des, u, 0.02, gains)
                got = _bits(lambda: smc_step(got_state, refs, (u, psi, r), gains, PARAMS))
                want_refs = _ref_smc_refs(want_state, u_des, psi_des, u, 0.02, gains)
                meas = StateMeasurement(u, psi, r)
                want = _bits(lambda: _ref_smc_step(want_state, want_refs, meas, gains, PARAMS))
                assert (got, _bits(lambda: refs)) == (want, _bits(lambda: want_refs))
        gain = lqr_gain(PARAMS, LqrWeights())
        for u, psi, r, u_ref, psi_ref in itertools.product(zeros, repeat=5):
            got = _bits(lambda: lqr_step(gain, (u, psi, r), (u_ref, psi_ref)))
            meas = StateMeasurement(u, psi, r)
            assert got == _bits(lambda: _ref_lqr_step(gain, meas, (u_ref, psi_ref)))

    @settings(max_examples=400, deadline=None)
    @given(_LQR_GAINS, _VALUES, _ANGLES, _VALUES, _VALUES, _ANGLES)
    def test_lqr_step(self, gain, u, psi, r, u_ref, psi_ref):
        got = _bits(lambda: lqr_step(gain, (u, psi, r), (u_ref, psi_ref)))
        want = _bits(lambda: _ref_lqr_step(gain, StateMeasurement(u, psi, r), (u_ref, psi_ref)))
        assert got == want
