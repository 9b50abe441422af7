"""Whole-run oracle: the exact expected LQG cost.

Under a linear controller u_k = -K_k r_k, where r_k is the true state or the
causal estimate, and a linear estimator, the augmented state z_k = [x_k; x̂_k]
moves as z_{k+1} = F_k z_k + G_k w_k, with w_k = [d_k; v_k] the truth's
noise.  So its mean and covariance follow from one deterministic recursion,
Σ_{k+1} = F_k Σ_k F_kᵀ + G_k W_k G_kᵀ, with the truth's covariances in W and
the believed ones in the gains (the separation-principle setting of the
paper), and with them E[J] = Σ_k E[z_kᵀ M_k z_k] = Σ_k μ_kᵀ M_k μ_k + tr(M_k Σ_k).

The gains are computed here from textbook recursions, so the oracle checks
the whole harness at once: the controller, the estimator and which
measurement it takes, the noise stream, the truth section and the cost.
`monte_carlo`'s mean cost must sit within a few of its standard errors of
E[J]; the seeds are fixed, so each z below is one number.
"""
from dataclasses import replace
from importlib import resources

import numpy as np
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from lqgkit import MatrixSchedule, Scenario, monte_carlo, parse_scenario
from test_conditioning_oracle import model


def lqr_gains(s: Scenario) -> np.ndarray:
    """K_0..K_{N-1} of the scenario's controller, by the textbook recursions."""
    system, N = s.system, s.system.N
    if s.controller == "none":
        return np.zeros((N, system.m, system.n))
    if s.controller == "fixed":
        return np.broadcast_to(s.fixed_gain, (N, system.m, system.n))
    A, B, Q, R = system.A.stack, system.B.stack, s.weights.Q.stack, s.weights.R.stack
    if s.controller == "steady":
        P = sla.solve_discrete_are(A[0], B[0], Q[0], R[0])
        return np.broadcast_to(np.linalg.solve(R[0] + B[0].T @ P @ B[0], B[0].T @ P @ A[0]),
                               (N, system.m, system.n))
    K, P = np.empty((N, system.m, system.n)), Q[N]
    for k in range(N - 1, -1, -1):
        K[k] = np.linalg.solve(R[k] + B[k].T @ P @ B[k], B[k].T @ P @ A[k])
        P = Q[k] + A[k].T @ P @ (A[k] - B[k] @ K[k])
    return K


def estimator_gains(s: Scenario) -> np.ndarray:
    """L_0..L_{N-1} of the scenario's estimator, from the believed covariances.

    The predictor's gain L_k = A P Cᵀ (C P Cᵀ + Rv)⁻¹ acts on the innovation
    of y_k at x_k; the filter's L_k = P⁻ Cᵀ (C P⁻ Cᵀ + Rv)⁻¹, with
    P⁻ = A P Aᵀ + Qd, on the innovation of y_k at x_{k+1}.
    """
    system, noise, N = s.system, s.noise, s.system.N
    if s.estimator == "luenberger":
        return np.broadcast_to(s.luenberger_gain, (N, system.n, system.p))
    A, C, Qd, Rv = system.A.stack, system.C.stack, noise.Qd.stack, noise.Rv.stack
    L, P = np.empty((N, system.n, system.p)), noise.P0
    for k in range(N):
        if s.estimator == "filter":
            P = A[k] @ P @ A[k].T + Qd[k]
            L[k] = np.linalg.solve(C[k] @ P @ C[k].T + Rv[k], C[k] @ P).T
            P = (np.eye(system.n) - L[k] @ C[k]) @ P
        else:
            S = C[k] @ P @ C[k].T + Rv[k]
            L[k] = np.linalg.solve(S, C[k] @ P @ A[k].T).T
            P = A[k] @ P @ A[k].T + Qd[k] - L[k] @ S @ L[k].T
    return L


def expected_cost(s: Scenario) -> float:
    """E[J] by the mean and covariance of z_k = [x_k; x̂_k]."""
    system, noise, n = s.system, s.noise, s.system.n
    K, L = lqr_gains(s), estimator_gains(s)
    Qd = (s.sim_Qd if s.sim_Qd is not None else noise.Qd).stack
    Rv = (s.sim_Rv if s.sim_Rv is not None else noise.Rv).stack
    I, O = np.eye(n), np.zeros((n, n))
    mean = np.concatenate([noise.x0_mean if s.x0 is None else s.x0, noise.x0_mean])
    cov = np.zeros((2 * n, 2 * n))
    if s.x0 is None:
        cov[:n, :n] = noise.P0 if s.x0_std is None else s.x0_std ** 2 * I
    read = np.hstack([I, O] if s.feedback == "true_state" else [O, I])

    def expected(M):
        return mean @ M @ mean + np.trace(M @ cov)

    J = 0.0
    for k in range(system.N):
        A, B, C = system.A[k], system.B[k], system.C[k]
        U = -K[k] @ read                                    # u_k = U z_k
        J += expected(sla.block_diag(s.weights.Q[k], O)) + expected(U.T @ s.weights.R[k] @ U)
        LC = L[k] @ C @ (A if s.estimator == "filter" else I)
        F = np.block([[A, O], [LC, A - LC]]) + np.vstack([B @ U, B @ U])
        G = np.block([[I, np.zeros((n, system.p))],
                      [L[k] @ C if s.estimator == "filter" else np.zeros((n, n)), L[k]]])
        W = sla.block_diag(Qd[k], Rv[k])
        mean, cov = F @ mean, F @ cov @ F.T + G @ W @ G.T
    return J + expected(sla.block_diag(s.weights.Q[system.N], O))


def z_score(s: Scenario, seeds) -> float:
    costs = monte_carlo(s, seeds).costs
    return (costs.mean() - expected_cost(s)) / (costs.std(ddof=1) / np.sqrt(len(costs)))


def test_fig4_filter_expected_cost():
    # the bundled scenario's truth section and sampled x0 included; z read
    # 0.62 (true-state feedback) and -0.07 (estimate feedback) over 10k seeds
    fig4 = parse_scenario((resources.files("lqgkit") / "scenarios" / "fig4.scn").read_text())
    for feedback in ("true_state", "estimate"):
        assert abs(z_score(replace(fig4, feedback=feedback), range(10_000))) < 3.0, feedback


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(estimator=st.sampled_from(["luenberger", "predictor", "filter"]),
       feedback=st.sampled_from(["true_state", "estimate"]),
       controller=st.sampled_from(["lqr", "fixed"]),
       x0=st.sampled_from(["given", "P0", "x0_std"]), truth=st.booleans(),
       seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), m=st.integers(1, 2),
       p=st.integers(1, 2), N=st.integers(1, 6))
def test_mean_cost_is_the_expected_cost(estimator, feedback, controller, x0, truth, seed, n, m,
                                        p, N):
    system, weights, noise, rng = model(seed, n, m, p, N)
    scenario = Scenario(
        system, weights, noise, controller=controller,
        fixed_gain=0.3 * rng.standard_normal((m, n)), estimator=estimator,
        luenberger_gain=0.3 * rng.standard_normal((n, p)), feedback=feedback,
        x0=rng.standard_normal(n) if x0 == "given" else None,
        x0_std=rng.uniform(0.5, 2.0) if x0 == "x0_std" else None,
        sim_Qd=MatrixSchedule(0.25 * noise.Qd.distinct()) if truth else None,
        sim_Rv=MatrixSchedule(4.0 * noise.Rv.distinct()) if truth else None)
    assert abs(z_score(scenario, range(2000))) < 4.0
