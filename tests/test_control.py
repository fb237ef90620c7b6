"""PID / sliding-mode / LQR laws and the Riccati solver."""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from helm_bench import control, dynamics
from helm_bench.control import (
    ControllerState,
    LqrWeights,
    PidGains,
    SmcGains,
    build_system,
    care_residual,
    lqr_gain,
    lqr_step,
    pid_step,
    smc_refs,
    smc_step,
    solve_care,
)
from helm_bench.core import ConfigError, NumericalError, UsvParams
from helm_bench.sensors import StateMeasurement

PARAMS = UsvParams()


def meas(u=0.0, psi=0.0, r=0.0) -> StateMeasurement:
    return StateMeasurement(u=u, psi=psi, r=r)


# --- reference solver ----------------------------------------------------
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


def _ref_solve_care(A: np.ndarray, B: np.ndarray, weights: LqrWeights) -> np.ndarray:
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


class TestPid:
    def test_pure_proportional(self):
        gains = PidGains(kp_u=2.0, ki_u=0.0, kd_u=0.0, kp_psi=2.0, ki_psi=0.0, kd_psi=0.0)
        out = pid_step(ControllerState(), e_u=3.0, e_psi=0.0, dt=0.02, gains=gains)
        assert out.T1 == pytest.approx(6.0)
        assert out.T2 == 0.0

    def test_rectangular_integral_recursion(self):
        gains = PidGains(kp_u=2.0, ki_u=1.0, kd_u=0.0, kp_psi=0.0, ki_psi=0.0, kd_psi=0.0)
        state = ControllerState()
        first = pid_step(state, e_u=3.0, e_psi=0.0, dt=1.0, gains=gains)
        second = pid_step(state, e_u=3.0, e_psi=0.0, dt=1.0, gains=gains)
        assert first.T1 == pytest.approx(9.0)  # 2*3 + 1*(3*1)
        assert second.T1 == pytest.approx(12.0)  # integral now 6

    def test_heading_error_wrapped_before_use(self):
        gains = PidGains(kp_u=0.0, ki_u=0.0, kd_u=0.0, kp_psi=1.0, ki_psi=0.0, kd_psi=0.0)
        out = pid_step(ControllerState(), 0.0, 2.0 * math.pi - 0.1, 0.02, gains)
        assert out.T2 == pytest.approx(-0.1, abs=1e-12)

    def test_integral_clamp(self):
        gains = PidGains(kp_u=0.0, ki_u=1.0, kd_u=0.0, integral_limit=2.0)
        state = ControllerState()
        for _ in range(100):
            out = pid_step(state, e_u=10.0, e_psi=0.0, dt=1.0, gains=gains)
        assert out.T1 == pytest.approx(2.0)
        assert state.i_u == 2.0

    def test_derivative_backward_difference(self):
        gains = PidGains(
            kp_u=0.0, ki_u=0.0, kd_u=1.0, kp_psi=0.0, ki_psi=0.0, kd_psi=0.0,
            derivative_filter_tau=0.0,
        )
        state = ControllerState()
        assert pid_step(state, 1.0, 0.0, 0.5, gains).T1 == 0.0  # no previous error yet
        out = pid_step(state, 2.0, 0.0, 0.5, gains)
        assert out.T1 == pytest.approx((2.0 - 1.0) / 0.5)

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
        out = smc_step(
            ControllerState(),
            refs=(0.0, 0.0, 0.2, 0.0, 0.0),
            meas=meas(),
            gains=gains,
            params=PARAMS,
        )
        assert out.T2 == pytest.approx(3.2 * 0.2 - 0.5, abs=1e-12)  # 0.14
        assert out.T1 == 0.0  # zero surge error, sgn(0) = 0

    def test_mirror_symmetry(self):
        gains = SmcGains(lambda_psi=1.0, eta_psi=0.5, phi=0.0)
        pos = smc_step(ControllerState(), (0, 0, 0.2, 0, 0), meas(), gains, PARAMS)
        neg = smc_step(ControllerState(), (0, 0, -0.2, 0, 0), meas(), gains, PARAMS)
        assert neg.T2 == pytest.approx(-pos.T2, abs=1e-12)

    def test_on_surface_equilibrium(self):
        out = smc_step(ControllerState(), (0, 0, 0, 0, 0), meas(), SmcGains(), PARAMS)
        assert out.T1 == 0.0 and out.T2 == 0.0

    def test_heading_error_wrapped(self):
        gains = SmcGains(lambda_psi=1.0, eta_psi=0.5, phi=0.0)
        wrapped = smc_step(ControllerState(), (0, 0, 0.2, 0, 0), meas(), gains, PARAMS)
        raw = smc_step(
            ControllerState(), (0, 0, 0.2 + 2.0 * math.pi, 0, 0), meas(), gains, PARAMS
        )
        assert raw.T2 == pytest.approx(wrapped.T2, abs=1e-9)

    def test_boundary_layer_is_lipschitz(self):
        gains = SmcGains(lambda_psi=1.2, eta_psi=1.5, phi=0.05)
        # Lipschitz bound of T2 in the heading error
        L = PARAMS.Izz * gains.lambda_psi + gains.eta_psi * gains.lambda_psi / gains.phi
        errors = np.linspace(-0.2, 0.2, 2001)
        outs = [
            smc_step(ControllerState(), (0, 0, float(e), 0, 0), meas(), gains, PARAMS).T2
            for e in errors
        ]
        step = errors[1] - errors[0]
        assert np.max(np.abs(np.diff(outs))) <= L * step * (1.0 + 1e-9)

    def test_pure_switching_jumps_only_at_zero(self):
        gains = SmcGains(lambda_psi=1.2, eta_psi=1.5, phi=0.0)
        eps = 1e-9
        plus = smc_step(ControllerState(), (0, 0, eps, 0, 0), meas(), gains, PARAMS).T2
        minus = smc_step(ControllerState(), (0, 0, -eps, 0, 0), meas(), gains, PARAMS).T2
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
        W = LqrWeights(Q=np.diag([1.0, 1.0, 1.0]), R=np.diag([1.0, 1.0]))
        A, B = build_system(PARAMS)
        P = solve_care(A, B, W)
        assert P[0, 0] == pytest.approx(20.0, abs=1e-9)  # m * sqrt(Q_u * R_1)
        gain = lqr_gain(PARAMS, W)
        assert gain.K[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_cost_gives_zero_solution(self):
        W = LqrWeights(Q=np.zeros((3, 3)), R=np.eye(2))
        A, B = build_system(PARAMS)
        assert np.all(solve_care(A, B, W) == 0.0)

    def test_yaw_block_residual(self):
        W = LqrWeights(Q=np.eye(3), R=np.eye(2))
        A, B = build_system(PARAMS)
        P = solve_care(A, B, W)
        assert care_residual(A, B, W.Q, W.R, P) < 1e-9
        gain = lqr_gain(PARAMS, W)
        eigs = np.linalg.eigvals(A - B @ gain.K)
        assert np.all(eigs.real < 0.0)

    def test_random_draws_solve_exactly(self):
        rng = np.random.default_rng(7)
        A, B = build_system(PARAMS)
        for _ in range(20):
            q_u = rng.uniform(0.1, 50.0)
            M = rng.uniform(-3.0, 3.0, size=(2, 2))
            Q2 = M.T @ M + 1e-3 * np.eye(2)
            Q = np.zeros((3, 3))
            Q[0, 0] = q_u
            Q[1:, 1:] = Q2
            R = np.diag(rng.uniform(0.01, 5.0, size=2))
            W = LqrWeights(Q=Q, R=R)
            P = solve_care(A, B, W)
            assert care_residual(A, B, W.Q, W.R, P) < 1e-9
            assert np.allclose(P, P.T, atol=1e-12)
            assert np.linalg.eigvalsh(P).min() >= -1e-10

    def test_gain_invariant_under_joint_scaling(self):
        base = LqrWeights()
        scaled = LqrWeights(Q=7.3 * base.Q, R=7.3 * base.R)
        K1 = lqr_gain(PARAMS, base).K
        K2 = lqr_gain(PARAMS, scaled).K
        assert np.max(np.abs(K1 - K2)) < 1e-9

    def test_gain_sparsity_matches_decoupling(self):
        K = lqr_gain(PARAMS, LqrWeights()).K
        assert K[0, 1] == 0.0 and K[0, 2] == 0.0 and K[1, 0] == 0.0

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
        A, B = build_system(PARAMS)
        for k in range(1000):
            if k % 2:
                Q = np.diag(rng.uniform(0.1, 50.0, size=3))
            else:
                M = rng.uniform(-3.0, 3.0, size=(2, 2))
                Q = np.zeros((3, 3))
                Q[0, 0] = rng.uniform(0.1, 50.0)
                Q[1:, 1:] = M.T @ M + 1e-3 * np.eye(2)
            R = np.diag(rng.uniform(0.01, 5.0, size=2))
            W = LqrWeights(Q=Q, R=R)
            gain = lqr_gain(PARAMS, W)
            P_ref = _ref_solve_care(A, B, W)
            K_ref = np.linalg.solve(R, B.T @ P_ref)
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

    def test_negative_weight_within_psd_tolerance_is_numerical_error(self):
        # LqrWeights accepts eigenvalues down to -1e-12; no real root exists
        for q in ([-1e-13, 1.0, 1.0], [1.0, -1e-13, 1.0]):
            with pytest.raises(NumericalError, match="no real solution"):
                lqr_gain(PARAMS, LqrWeights(Q=np.diag(q)))

    def test_extreme_plants_and_weights_never_warn(self):
        extremes = (1e-300, 1e-150, 1.0, 1e150, 1e300)
        qs = [(4.0, 25.0, 5.0), (1.0, 0.0, 1.0), (1e6, 1e-300, 0.0), (1e300,) * 3, (1e-300,) * 3]
        rs = [(0.05, 0.05), (1e-300, 1e6), (1e300, 1e300), (1e-300, 1e-300)]
        solved = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m, izz, l, q, r in itertools.product(extremes, extremes, extremes, qs, rs):
                W = LqrWeights(Q=np.diag(q), R=np.diag(r))
                try:
                    gain = lqr_gain(UsvParams(m=m, Izz=izz, l=l), W)
                except NumericalError:
                    continue
                solved += 1
                assert np.all(np.isfinite(gain.K)) and np.all(np.isfinite(gain.P))
                assert np.all(gain.eigenvalues.real < 0.0)
        assert solved > 0

    def test_weight_validation(self):
        with pytest.raises(ConfigError):
            LqrWeights(Q=np.diag([1.0, 1.0, -1.0]))  # not PSD
        with pytest.raises(ConfigError):
            LqrWeights(R=np.diag([1.0, 0.0]))  # not PD
        with pytest.raises(ConfigError):
            LqrWeights(Q=np.eye(2), R=np.eye(2))  # wrong shape

    def test_structure_validation(self):
        A, B = build_system(PARAMS)
        Q_cross = np.array([[1.0, 0.1, 0.0], [0.1, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ConfigError):
            solve_care(A, B, LqrWeights(Q=Q_cross, R=np.eye(2)))
        R_full = np.array([[1.0, 0.5], [0.5, 1.0]])
        with pytest.raises(ConfigError):
            solve_care(A, B, LqrWeights(Q=np.eye(3), R=R_full))
        bad_A = A.copy()
        bad_A[0, 1] = 1.0
        with pytest.raises(ConfigError):
            solve_care(bad_A, B, LqrWeights())


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
            LqrWeights(Q=np.diag(q), R=np.diag(r))
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
                assert (out.T1.hex(), out.T2.hex()) == (T1.hex(), T2.hex()), (e_u, e_psi, r)

    def test_overflowing_error_gives_infinite_thrust(self):
        gain = lqr_gain(PARAMS, LqrWeights())
        out = lqr_step(gain, meas(u=1e308, r=-1e308), refs=(-1e308, 0.0))
        assert (out.T1, out.T2) == (-math.inf, math.inf)

    def test_zero_error_zero_thrust(self):
        gain = lqr_gain(PARAMS, LqrWeights())
        out = lqr_step(gain, meas(u=1.0, psi=0.3, r=0.0), refs=(1.0, 0.3))
        assert out.T1 == pytest.approx(0.0, abs=1e-12)
        assert out.T2 == pytest.approx(0.0, abs=1e-12)

    def test_accelerates_when_slow(self):
        gain = lqr_gain(PARAMS, LqrWeights(Q=np.eye(3), R=np.eye(2)))
        out = lqr_step(gain, meas(u=0.5), refs=(1.0, 0.0))
        assert out.T1 == pytest.approx(0.5, abs=1e-9)  # surge row is [1, 0, 0]

    def test_turns_toward_reference(self):
        gain = lqr_gain(PARAMS, LqrWeights())
        out = lqr_step(gain, meas(psi=0.1), refs=(0.0, 0.0))
        assert out.T2 < 0.0  # pointing left of target: clockwise correction

    def test_error_wrapped_at_branch_cut(self):
        gain = lqr_gain(PARAMS, LqrWeights())
        near = lqr_step(gain, meas(psi=math.pi - 0.05), refs=(0.0, -math.pi + 0.05))
        assert abs(near.T2) < 10.0  # 0.1 rad error, not ~2pi

    def test_desk_regulation_with_one_reversal_budget(self):
        gain = lqr_gain(PARAMS, LqrWeights())
        x, y, psi, u, r = 0.0, 0.0, 0.5, 0.0, 0.0
        dt = 0.02
        errors = []
        for k in range(int(15.0 / dt)):
            m = meas(u=u, psi=psi, r=r)
            out = lqr_step(gain, m, refs=(0.0, 0.0))
            pair = dynamics.saturate(dynamics.mix(out), PARAMS)
            x, y, psi, u, r = dynamics.step(
                x, y, psi, u, r, pair.left, pair.right, dynamics.CALM, k * dt, dt, PARAMS
            )
            errors.append(psi)
        assert abs(errors[-1]) < 0.01
        signs = [e for e in errors if abs(e) > 1e-3]  # ignore the settled tail
        reversals = sum(
            1 for a, b in zip(signs, signs[1:]) if math.copysign(1, a) != math.copysign(1, b)
        )
        assert reversals <= 2  # first crossing plus at most one more


class TestZeroAtReset:
    def test_all_three_idle_at_zero(self):
        pid = pid_step(ControllerState(), 0.0, 0.0, 0.02, PidGains())
        smc = smc_step(ControllerState(), (0, 0, 0, 0, 0), meas(), SmcGains(), PARAMS)
        lqr = lqr_step(lqr_gain(PARAMS, LqrWeights()), meas(), (0.0, 0.0))
        for out in (pid, smc, lqr):
            assert out.T1 == pytest.approx(0.0, abs=1e-12)
            assert out.T2 == pytest.approx(0.0, abs=1e-12)
