"""Finite-horizon LQR synthesis, steady-state gains, and settling analysis.

The backward recursion propagates the Riccati matrix in the stabilized
quadratic form

    P_k = Q_k + K_k^T R_k K_k + (A_k - B_k K_k)^T P_{k+1} (A_k - B_k K_k)

with K_k = (R_k + B_k^T P_{k+1} B_k)^{-1} B_k^T P_{k+1} A_k, which keeps the
propagated matrices PSD in floating point.  The steady-state solver iterates
the same recursion to its fixed point rather than calling a spectral DARE
solver, so its convergence behavior matches the finite-horizon schedule it
stands in for.  The steady-state estimator is the same fixed point on the
dual pair (A^T, C^T) (see `estimation.solve_dare_estimator`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import ConvergenceError, solve_spd, spectral_radius, symmetrize
from .model import LqrWeights, LtvSystem, MatrixSchedule, Trajectory


@dataclass(frozen=True)
class RiccatiSolution:
    """Riccati matrices P_0..P_N and feedback gains K_0..K_{N-1}."""

    P: MatrixSchedule
    K: MatrixSchedule

    @property
    def horizon(self) -> int:
        return len(self.K)

    def optimal_cost(self, x0: np.ndarray) -> float:
        """Value function at the initial state: x0^T P_0 x0."""
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        return float(x0 @ self.P[0] @ x0)


@dataclass(frozen=True)
class SteadyStateLqr:
    P: np.ndarray
    K: np.ndarray
    iterations: int
    residual: float
    closed_loop_spectral_radius: float


@dataclass(frozen=True)
class SettlingReport:
    """Settling indices of the state trajectory and the gain schedule.

    k_x is the first index after which ||x_k|| stays inside the epsilon ball
    around the origin; k_K is the last index (scanning from the front) through
    which the gain stays within epsilon (max-abs) of K_0 -- gain transients
    sit at the tail of the horizon.  `gain_constant_over_transient` is the
    k_x < k_K condition: when true, the time-varying schedule can be replaced
    by the fixed steady gain without affecting the cost.
    """

    k_x: int
    k_K: int
    epsilon: float

    @property
    def gain_constant_over_transient(self) -> bool:
        return self.k_x < self.k_K


def dre_step(A_k: np.ndarray, B_k: np.ndarray, Q_k: np.ndarray, R_k: np.ndarray,
             P_next: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One backward Riccati step; returns (K_k, P_k) with P_k symmetrized.

    The inner matrix R_k + B_k^T P_next B_k is factorized, never inverted; a
    factorization failure signals a violated R > 0 precondition.
    """
    A_k = np.atleast_2d(np.asarray(A_k, dtype=float))
    B_k = np.atleast_2d(np.asarray(B_k, dtype=float))
    Q_k = np.atleast_2d(np.asarray(Q_k, dtype=float))
    R_k = np.atleast_2d(np.asarray(R_k, dtype=float))
    P_next = np.atleast_2d(np.asarray(P_next, dtype=float))
    BtP = B_k.T @ P_next
    K = solve_spd(R_k + BtP @ B_k, BtP @ A_k, "LQR gain solve")
    A_cl = A_k - B_k @ K
    P = Q_k + K.T @ R_k @ K + A_cl.T @ P_next @ A_cl
    return K, symmetrize(P)


def solve_lqr(system: LtvSystem, weights: LqrWeights) -> RiccatiSolution:
    """Backward recursion from P_N = Q_N down to k = 0."""
    N = system.N
    P = [None] * (N + 1)
    K = [None] * N
    P[N] = np.asarray(weights.Q[N])
    for k in range(N - 1, -1, -1):
        K[k], P[k] = dre_step(system.A[k], system.B[k], weights.Q[k], weights.R[k], P[k + 1])
    return RiccatiSolution(P=MatrixSchedule.of(P), K=MatrixSchedule.of(K))


def evaluate_cost(trajectory: Trajectory, weights: LqrWeights) -> float:
    """Quadratic cost x_N^T Q_N x_N + sum_k (x_k^T Q_k x_k + u_k^T R_k u_k)."""
    xs, us = trajectory.states, trajectory.inputs
    N = xs.shape[0] - 1
    if us.shape[0] != N:
        raise ValueError(f"{us.shape[0]} inputs for {N + 1} states")
    if len(weights.Q) != N + 1 or len(weights.R) != N:
        raise ValueError(f"weights sized for horizon {len(weights.R)}, trajectory has {N}")
    J = float(xs[N] @ weights.Q[N] @ xs[N])
    for k in range(N):
        J += float(xs[k] @ weights.Q[k] @ xs[k]) + float(us[k] @ weights.R[k] @ us[k])
    return J


def _steady_riccati(A, B, Q, R, P, tol: float, max_iter: int, name: str):
    """Fixed point of dre_step from P; returns (P, K, iterations, residual).

    Stops when the max-abs element change drops to tol.  A non-finite
    residual (P overflowed) raises ConvergenceError at once, with the
    iteration reached; `name` labels the solver in its message.
    """
    residual = np.inf
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        for it in range(1, max_iter + 1):
            K, P_new = dre_step(A, B, Q, R, P)
            residual = float(np.max(np.abs(P_new - P)))
            P = P_new
            if not np.isfinite(residual):
                raise ConvergenceError(f"steady-state {name} iteration diverged", residual, it)
            if residual <= tol:
                K, _ = dre_step(A, B, Q, R, P)
                return P, K, it, residual
    raise ConvergenceError(f"steady-state {name} iteration did not converge", residual, max_iter)


def solve_dare_lqr(A: np.ndarray, B: np.ndarray, Q: np.ndarray, R: np.ndarray,
                   tol: float = 1e-10, max_iter: int = 100_000) -> SteadyStateLqr:
    """Steady-state LQR by fixed-point iteration of the backward recursion.

    Starts at P = Q and stops when the max-abs element change drops to tol.
    Non-convergence raises ConvergenceError carrying the final residual,
    which usually means the pair (A, B) is not stabilizable; a non-finite
    residual (P overflowed) raises it at once, with the iteration reached.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    P, K, iterations, residual = _steady_riccati(A, B, Q, R, Q, tol, max_iter, "LQR")
    return SteadyStateLqr(P=P, K=K, iterations=iterations, residual=residual,
                          closed_loop_spectral_radius=spectral_radius(A - B @ K))


def mayne_murdoch_gain(open_eigs, desired_eigs, B_diag) -> np.ndarray:
    """State-feedback gain placing the eigenvalues of a diagonal system.

    For A = diag(lambda_1..lambda_n) and per-mode input entries B_i, the i-th
    gain entry is

        K_i = (1 / B_i) * prod_j (lambda_i - mu_j) / prod_{j != i} (lambda_i - lambda_j).

    Requires distinct open-loop eigenvalues and nonzero B entries.  Complex
    desired eigenvalues are accepted; the gain is returned real when its
    imaginary part is negligible (conjugate-pair placements).
    """
    lam = np.atleast_1d(np.asarray(open_eigs))
    mu = np.atleast_1d(np.asarray(desired_eigs))
    b = np.atleast_1d(np.asarray(B_diag))
    n = lam.shape[0]
    if mu.shape[0] != n or b.shape[0] != n:
        raise ValueError("open_eigs, desired_eigs, B_diag must have equal length")
    if np.any(b == 0):
        raise ValueError("every B_i must be nonzero (mode would be uncontrollable)")
    K = np.empty(n, dtype=complex)
    for i in range(n):
        denom = np.prod([lam[i] - lam[j] for j in range(n) if j != i]) if n > 1 else 1.0
        if denom == 0:
            raise ValueError("open-loop eigenvalues must be distinct")
        K[i] = np.prod(lam[i] - mu) / (b[i] * denom)
    return np.real_if_close(K, tol=1e6)


def simulate_closed_loop(system: LtvSystem, gains, x0: np.ndarray) -> Trajectory:
    """Forward simulation under u_k = -K_k x_k.

    `gains` is a gain schedule, a single fixed gain matrix, or a
    RiccatiSolution (whose K schedule is used).
    """
    if isinstance(gains, RiccatiSolution):
        gains = gains.K
    if not isinstance(gains, MatrixSchedule):
        gains = MatrixSchedule.constant(np.atleast_2d(np.asarray(gains, dtype=float)), system.N)
    if len(gains) != system.N:
        raise ValueError(f"gain schedule length {len(gains)} does not match horizon {system.N}")
    if gains.shape != (system.m, system.n):
        raise ValueError(f"gain shape {gains.shape}, expected ({system.m}, {system.n})")
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    states = np.empty((system.N + 1, system.n))
    inputs = np.empty((system.N, system.m))
    states[0] = x
    for k in range(system.N):
        u = -(gains[k] @ x)
        inputs[k] = u
        x = system.A[k] @ x + system.B[k] @ u
        states[k + 1] = x
    return Trajectory(states=states, inputs=inputs)


def settling_report(solution: RiccatiSolution, trajectory: Trajectory,
                    epsilon: float | None = None) -> SettlingReport:
    """Settling indices for a trajectory and the gain schedule that drove it.

    Default epsilon is 1e-2 times the initial state magnitude.  k_x = N or
    k_K = 0 indicate that no settling occurred within the horizon.
    """
    xs = trajectory.states
    N = xs.shape[0] - 1
    if len(solution.K) != N:
        raise ValueError(f"solution horizon {len(solution.K)} does not match trajectory {N}")
    if epsilon is None:
        epsilon = 1e-2 * float(np.linalg.norm(xs[0]))
    norms = np.linalg.norm(xs, axis=1)
    k_x = N
    for j in range(N + 1):
        if np.all(norms[j:] <= epsilon):
            k_x = j
            break
    K0 = solution.K[0]
    k_K = 0
    for j in range(N):
        if np.max(np.abs(solution.K[j] - K0)) <= epsilon:
            k_K = j
        else:
            break
    return SettlingReport(k_x=k_x, k_K=k_K, epsilon=float(epsilon))
