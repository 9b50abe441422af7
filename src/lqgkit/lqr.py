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

from ._linalg import ConvergenceError, intake, solve_spd, spectral_radius, symmetrize
from .model import LqrWeights, LtvSystem, MatrixSchedule, Trajectory, _require_finite


@dataclass(frozen=True)
class RiccatiSolution:
    """Riccati matrices P_0..P_N and feedback gains K_0..K_{N-1}."""

    P: MatrixSchedule
    K: MatrixSchedule

    @property
    def horizon(self) -> int:
        return len(self.K)

    def optimal_cost(self, x0: np.ndarray) -> float:
        """Value function at the initial state: x0^T P_0 x0; ValueError on a
        nan or inf in x0."""
        x0 = intake({"x0": x0}, vectors=("x0",))[0]
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
    factorization failure signals a violated R > 0 precondition.  ValueError
    names an argument that holds a nan or inf.
    """
    return _dre_step(*intake({"A_k": A_k, "B_k": B_k, "Q_k": Q_k, "R_k": R_k, "P_next": P_next}))


def _dre_step(A_k, B_k, Q_k, R_k, P_next, context="LQR gain solve"):
    """dre_step on 2-D float arrays, taken as they are; `context` names the
    gain solve in its errors."""
    BtP = B_k.T @ P_next
    K = solve_spd(R_k + BtP @ B_k, BtP @ A_k, context)
    A_cl = A_k - B_k @ K
    P = Q_k + K.T @ R_k @ K + A_cl.T @ P_next @ A_cl
    return K, symmetrize(P)


def solve_lqr(system: LtvSystem, weights: LqrWeights) -> RiccatiSolution:
    """Backward recursion from P_N = Q_N down to k = 0.

    ValueError names the first schedule entry that holds a nan or inf.
    """
    _require_finite({"A": system.A, "B": system.B, "Q": weights.Q, "R": weights.R})
    return _solve_lqr(system, weights)


def _solve_lqr(system: LtvSystem, weights: LqrWeights) -> RiccatiSolution:
    """solve_lqr on schedules taken as they are."""
    N, n, m = system.N, system.n, system.m
    A, B, Q, R = system.A.stack, system.B.stack, weights.Q.stack, weights.R.stack
    P = np.empty((N + 1, n, n))
    K = np.empty((N, m, n))
    P[N] = Q[N]
    for k in range(N - 1, -1, -1):
        K[k], P[k] = _dre_step(A[k], B[k], Q[k], R[k], P[k + 1])
    return RiccatiSolution(P=MatrixSchedule(P), K=MatrixSchedule(K))


def evaluate_cost(trajectory: Trajectory, weights: LqrWeights) -> float:
    """Quadratic cost x_N^T Q_N x_N + sum_k (x_k^T Q_k x_k + u_k^T R_k u_k).

    ValueError names the trajectory field, or the weight entry, that holds a
    nan or inf.
    """
    xs, us = intake({"trajectory.states": trajectory.states,
                     "trajectory.inputs": trajectory.inputs})
    N = xs.shape[0] - 1
    if us.shape[0] != N:
        raise ValueError(f"{us.shape[0]} inputs for {N + 1} states")
    if len(weights.Q) != N + 1 or len(weights.R) != N:
        raise ValueError(f"weights sized for horizon {len(weights.R)}, trajectory has {N}")
    _require_finite({"Q": weights.Q, "R": weights.R})
    return float(_costs(xs[None], us[None], weights)[0])


def _quadratic_forms(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """x_k^T W_k x_k for each row k of X (..., K, r) and entry W_k of the
    (K, r, r) stack W, each bit for bit float(x_k @ W_k @ x_k)."""
    return (X[..., None, :] @ W @ X[..., None])[..., 0, 0]


def _costs(xs: np.ndarray, us: np.ndarray, weights: LqrWeights) -> np.ndarray:
    """evaluate_cost of each stacked trajectory: xs is (S, N+1, n), us (S, N, m).

    Summed in evaluate_cost's order, J = x_N^T Q_N x_N, then
    J += (x_k^T Q_k x_k + u_k^T R_k u_k) for k = 0..N-1: a cumulative sum
    adds its terms one at a time, left to right.
    """
    N = us.shape[1]
    state = _quadratic_forms(xs, weights.Q.stack)
    terms = np.concatenate([state[:, N:], state[:, :N] + _quadratic_forms(us, weights.R.stack)],
                           axis=1)
    return np.cumsum(terms, axis=1)[:, -1]


# The steady Riccati loop reports a stall once its residual has set no new
# minimum for _STALL_WINDOW iterations and is at most _STALL_GATE max|P|.  A
# contracting iteration sets a new minimum nearly every step: on 600 random
# problems (n <= 6, m <= 3, unstable open loops and weak inputs among them)
# the longest run without one, on the way to tol 1e-12, was 24 iterations,
# unless the residual had reached its rounding floor.  The gate keeps a
# residual that is large against P (P still growing toward its fixed point,
# or diverging) from counting as a stall.
_STALL_WINDOW = 50
_STALL_GATE = np.sqrt(np.finfo(float).eps)


def _steady_riccati(A, B, Q, R, P, tol: float, max_iter: int, name: str,
                    context="LQR gain solve"):
    """Fixed point of dre_step from P; returns (P, K, iterations, residual).

    A, B, Q, R and P are 2-D float arrays, taken as they are.  Stops when
    the max-abs element change drops to tol.  A non-finite residual (P
    overflowed) raises ConvergenceError at once, with the iteration
    reached, and so does a stall: a residual that has set no new minimum
    for _STALL_WINDOW iterations and is at most _STALL_GATE max|P|, so it
    sits at its rounding floor above tol.  `name` labels the solver in its
    messages, `context` its gain solve in a LinAlgError.  A tol that is not
    a finite number >= 0, or a max_iter below 1, raises ValueError before
    any iteration.
    """
    if not 0 <= tol < np.inf:
        raise ValueError(f"tol must be a finite number >= 0, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    residual, best, best_it = np.inf, np.inf, 0
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        for it in range(1, max_iter + 1):
            K, P_new = _dre_step(A, B, Q, R, P, context)
            residual = float(np.max(np.abs(P_new - P)))
            P = P_new
            if not np.isfinite(residual):
                raise ConvergenceError(f"steady-state {name} iteration diverged", residual, it)
            if residual <= tol:
                K, _ = _dre_step(A, B, Q, R, P, context)
                return P, K, it, residual
            if residual < best:
                best, best_it = residual, it
            elif it - best_it >= _STALL_WINDOW and residual <= _STALL_GATE * np.max(np.abs(P)):
                raise ConvergenceError(
                    f"steady-state {name} iteration stalled at residual {residual:.3e} "
                    f"(best {best:.3e} at iteration {best_it})", residual, it)
    raise ConvergenceError(f"steady-state {name} iteration did not converge", residual, max_iter)


def _stabilizability_report(A: np.ndarray, B: np.ndarray) -> list[str]:
    """One report line per mode that keeps (A, B) from being stabilizable.

    The Hautus test: the pair is stabilizable iff rank [A - lam I, B] = n for
    every eigenvalue lam of A with |lam| >= 1 (within sqrt(eps), so a mode
    on the unit circle that eigvals rounds inward still counts).  The rank
    counts the singular values above max(sigma) (n + m) eps, the default of
    `numpy.linalg.matrix_rank`.
    """
    n = A.shape[0]
    lines = []
    for lam in np.linalg.eigvals(A):
        if abs(lam) < 1.0 - np.sqrt(np.finfo(float).eps):
            continue
        if np.linalg.matrix_rank(np.hstack([A - lam * np.eye(n), B])) < n:
            mode = lam.real if lam.imag == 0 else lam
            lines.append(f"(A, B) is not stabilizable: the mode at eigenvalue {mode:.6g} "
                         "(|lambda| >= 1) is not reachable through B")
    return lines


def solve_dare_lqr(A: np.ndarray, B: np.ndarray, Q: np.ndarray, R: np.ndarray,
                   tol: float = 1e-10, max_iter: int = 100_000) -> SteadyStateLqr:
    """Steady-state LQR by fixed-point iteration of the backward recursion.

    Starts at P = Q and stops when the max-abs element change drops to tol.
    Non-convergence raises ConvergenceError carrying the final residual,
    which usually means the pair (A, B) is not stabilizable; a non-finite
    residual (P overflowed) raises it at once, with the iteration reached,
    and a residual stalled at its rounding floor above tol raises it
    _STALL_WINDOW iterations after its best.  ValueError names an argument
    that holds a nan or inf.
    """
    A, B, Q, R = intake({"A": A, "B": B, "Q": Q, "R": R})
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


def settling_report(solution: RiccatiSolution, trajectory: Trajectory,
                    epsilon: float | None = None) -> SettlingReport:
    """Settling indices for a trajectory and the gain schedule that drove it.

    Default epsilon is 1e-2 times the initial state magnitude.  k_x = N or
    k_K = 0 indicate that no settling occurred within the horizon.
    """
    N = trajectory.states.shape[0] - 1
    if len(solution.K) != N:
        raise ValueError(f"solution horizon {len(solution.K)} does not match trajectory {N}")
    return _settling_reports(solution, trajectory.states[None], epsilon)[0]


def _settling_reports(solution: RiccatiSolution, xs: np.ndarray,
                      epsilon: float | None = None) -> list[SettlingReport]:
    """settling_report of each stacked state trajectory xs, (S, N+1, n)."""
    N = xs.shape[1] - 1
    if epsilon is None:
        eps = np.array([1e-2 * float(np.linalg.norm(x0)) for x0 in xs[:, 0]])
    else:
        eps = np.full(len(xs), float(epsilon))
    # k_x: the first j with every ||x_j..x_N|| <= eps (N if none).
    settled = np.linalg.norm(xs, axis=2) <= eps[:, None]
    after = np.logical_and.accumulate(settled[:, ::-1], axis=1)[:, ::-1]
    k_x = np.where(after.any(axis=1), after.argmax(axis=1), N)
    # k_K: the last j of the leading run of gains within eps of K_0 (0 if none).
    K = solution.K.stack
    drift = K - K[0]
    within = np.abs(drift, out=drift).max(axis=(1, 2))[None, :] <= eps[:, None]
    leading = np.where(within.all(axis=1), N, within.argmin(axis=1))
    k_K = np.maximum(leading - 1, 0)
    return [SettlingReport(k_x=int(a), k_K=int(b), epsilon=float(e))
            for a, b, e in zip(k_x, k_K, eps)]
