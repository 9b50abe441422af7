import re
import time

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import A_BENCH, B_BENCH, C_BENCH, K_STEADY, X0_BENCH, bench_system, bench_weights
from lqgkit import (
    ConvergenceError,
    LqrWeights,
    LtvSystem,
    MatrixSchedule,
    RiccatiSolution,
    Trajectory,
    dre_step,
    evaluate_cost,
    mayne_murdoch_gain,
    settling_report,
    simulate_closed_loop,
    solve_dare_estimator,
    solve_dare_lqr,
    solve_lqr,
)
from lqgkit.lqr import _STALL_WINDOW, _costs


def random_stable_system(rng, n=2, m=1, horizon=3):
    A = rng.standard_normal((n, n))
    A *= 0.9 / max(abs(np.linalg.eigvals(A)))
    B = rng.standard_normal((n, m))
    return LtvSystem.lti(A, B, horizon=horizon)


def quadratic_stage(A, B, Q, R, P_next, x, u):
    """Cost-to-go integrand minimized by the Riccati gain."""
    x_next = A @ x + B @ u
    return float(x @ Q @ x + u @ R @ u + x_next @ P_next @ x_next)


class TestDreStep:
    def test_scalar_closed_form(self):
        K, P = dre_step([[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]])
        np.testing.assert_allclose(K, [[0.5]])
        np.testing.assert_allclose(P, [[1.5]])

    def test_uncontrolled_degeneracy(self, rng):
        A = rng.standard_normal((3, 3))
        Q = np.eye(3)
        P_next = np.eye(3) * 2.0
        K, P = dre_step(A, np.zeros((3, 1)), Q, [[1.0]], P_next)
        np.testing.assert_allclose(K, np.zeros((1, 3)), atol=1e-14)
        np.testing.assert_allclose(P, Q + A.T @ P_next @ A)

    def test_grid_minimization_oracle(self):
        # the returned gain must minimize the one-step quadratic cost-to-go
        Q, R, P_next = np.eye(2), np.array([[1.0]]), np.eye(2)
        K, P = dre_step(A_BENCH, B_BENCH, Q, R, P_next)
        for x in (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([2.0, -3.0])):
            grid = np.linspace(-20.0, 20.0, 8001)
            values = [quadratic_stage(A_BENCH, B_BENCH, Q, R, P_next, x, np.array([u]))
                      for u in grid]
            best = int(np.argmin(values))
            assert abs(grid[best] - (-(K @ x)[0])) <= 0.01
            assert values[best] == pytest.approx(float(x @ P @ x), abs=1e-3)

    def test_indefinite_inner_matrix_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            dre_step([[1.0]], [[1.0]], [[1.0]], [[-1.0]], [[0.1]])

    def test_output_symmetric(self, rng):
        for _ in range(20):
            A = rng.standard_normal((3, 3))
            B = rng.standard_normal((3, 2))
            M = rng.standard_normal((3, 3))
            P_next = M @ M.T
            _, P = dre_step(A, B, np.eye(3), np.eye(2), P_next)
            np.testing.assert_array_equal(P, P.T)


class TestSolveLqr:
    def test_single_step_base_case(self):
        system, weights = bench_system(1), bench_weights(1)
        solution = solve_lqr(system, weights)
        K, P = dre_step(A_BENCH, B_BENCH, np.eye(2), [[1.0]], np.eye(2))
        np.testing.assert_allclose(solution.K[0], K)
        np.testing.assert_allclose(solution.P[0], P)
        np.testing.assert_array_equal(solution.P[1], np.eye(2))

    def test_long_horizon_gain_converges(self):
        # leading gain of the N=50 schedule equals the steady gain
        solution = solve_lqr(bench_system(50), bench_weights(50))
        np.testing.assert_allclose(solution.K[0], K_STEADY, rtol=0, atol=1e-8)

    def test_brute_force_input_grid(self, rng):
        # x0' P0 x0 equals the minimum of the cost over all input sequences,
        # located by a coarse-to-fine grid over (u0, u1, u2)
        system = random_stable_system(rng, horizon=3)
        weights = bench_weights(3)
        solution = solve_lqr(system, weights)
        x0 = np.array([1.0, -0.5])
        expected = solution.optimal_cost(x0)

        A0, B0 = system.A[0], system.B[0]
        Q = np.eye(2)

        def total_cost(u_grid):
            u0, u1, u2 = (g.reshape(-1) for g in u_grid)
            x1 = np.outer(u0, B0[:, 0]) + A0 @ x0
            x2 = x1 @ A0.T + np.outer(u1, B0[:, 0])
            x3 = x2 @ A0.T + np.outer(u2, B0[:, 0])
            J = (x0 @ Q @ x0 + u0**2 + np.einsum('ij,ij->i', x1 @ Q, x1) + u1**2
                 + np.einsum('ij,ij->i', x2 @ Q, x2) + u2**2
                 + np.einsum('ij,ij->i', x3 @ Q, x3))
            return J

        centers, width = np.zeros(3), 3.0
        for _ in range(4):
            axes = [np.linspace(c - width, c + width, 41) for c in centers]
            grid = np.meshgrid(*axes, indexing="ij")
            J = total_cost([g for g in grid]).reshape(grid[0].shape)
            idx = np.unravel_index(np.argmin(J), J.shape)
            centers = np.array([axes[d][idx[d]] for d in range(3)])
            best = J[idx]
            width /= 10.0
        assert best == pytest.approx(expected, rel=1e-6)

    def test_value_function_consistency(self, rng):
        for _ in range(10):
            system = random_stable_system(rng, horizon=6)
            weights = bench_weights(6)
            solution = solve_lqr(system, weights)
            x0 = rng.standard_normal(2)
            cost = evaluate_cost(simulate_closed_loop(system, solution, x0), weights)
            assert cost == pytest.approx(solution.optimal_cost(x0), rel=1e-8, abs=1e-12)

    def test_finite_difference_stationarity(self, rng):
        system, weights = bench_system(8), bench_weights(8)
        solution = solve_lqr(system, weights)
        x0 = np.array([2.0, -1.0])
        base = evaluate_cost(simulate_closed_loop(system, solution, x0), weights)
        for k in (0, 3, 7):
            for j in range(2):
                for sign in (+1.0, -1.0):
                    gains = [solution.K[i].copy() for i in range(8)]
                    gains[k][0, j] += sign * 1e-4
                    perturbed = evaluate_cost(
                        simulate_closed_loop(system, MatrixSchedule.of(gains), x0), weights)
                    assert perturbed >= base - 1e-10

    def test_gains_recomputable_from_riccati_matrices(self):
        # stored K_k is exactly the gain the stored P_{k+1} induces
        system, weights = bench_system(12), bench_weights(12)
        solution = solve_lqr(system, weights)
        for k in range(12):
            K, _ = dre_step(system.A[k], system.B[k], weights.Q[k], weights.R[k],
                            solution.P[k + 1])
            np.testing.assert_allclose(solution.K[k], K, atol=1e-13)

    def test_optimal_dominates_random_schedules(self, rng):
        for _ in range(10):
            system = random_stable_system(rng, horizon=4)
            weights = bench_weights(4)
            solution = solve_lqr(system, weights)
            x0 = rng.standard_normal(2)
            optimal = solution.optimal_cost(x0)
            for _ in range(10):
                gains = MatrixSchedule.of(0.5 * rng.standard_normal((4, 1, 2)))
                alternative = evaluate_cost(simulate_closed_loop(system, gains, x0), weights)
                assert optimal <= alternative + 1e-9


class TestEvaluateCost:
    def test_zero_trajectory(self):
        traj = Trajectory(states=np.zeros((6, 2)), inputs=np.zeros((5, 1)))
        assert evaluate_cost(traj, bench_weights(5)) == 0.0

    def test_optimal_cost_n5(self):
        system, weights = bench_system(5), bench_weights(5)
        traj = simulate_closed_loop(system, solve_lqr(system, weights), X0_BENCH)
        cost = evaluate_cost(traj, weights)
        assert cost == pytest.approx(422.1295864516726, abs=1e-9)
        assert cost == pytest.approx(422.13, abs=0.01)

    def test_steady_gain_cost_n5(self):
        # the published 432.17 is reproduced by the exact steady gain
        system, weights = bench_system(5), bench_weights(5)
        cost = evaluate_cost(simulate_closed_loop(system, K_STEADY, X0_BENCH), weights)
        assert cost == pytest.approx(432.17159820064234, abs=1e-9)
        assert cost == pytest.approx(432.17, abs=0.01)

    @pytest.mark.parametrize("n, m, N", [(1, 1, 1), (2, 1, 7), (4, 3, 30), (6, 2, 2)])
    def test_stacked_costs_equal_each_trajectory(self, n, m, N):
        # time-varying Q and R; each row bit for bit the scalar sum, in order
        rng = np.random.default_rng([n, m, N])
        Q = np.array([(lambda W: W @ W.T)(rng.standard_normal((n, n))) for _ in range(N + 1)])
        R = np.array([(lambda W: W @ W.T)(rng.standard_normal((m, m))) for _ in range(N)])
        weights = LqrWeights(Q=MatrixSchedule(Q), R=MatrixSchedule(R))
        xs, us = rng.standard_normal((5, N + 1, n)), rng.standard_normal((5, N, m))
        costs = _costs(xs, us, weights)
        for x, u, cost in zip(xs, us, costs):
            assert cost == evaluate_cost(Trajectory(states=x, inputs=u), weights)
            J = float(x[N] @ Q[N] @ x[N])
            for k in range(N):
                J += float(x[k] @ Q[k] @ x[k]) + float(u[k] @ R[k] @ u[k])
            assert cost == J

    def test_length_mismatch(self):
        traj = Trajectory(states=np.zeros((6, 2)), inputs=np.zeros((5, 1)))
        with pytest.raises(ValueError):
            evaluate_cost(traj, bench_weights(7))


@pytest.mark.parametrize("call, message", [
    (lambda: evaluate_cost(Trajectory(np.zeros((6, 2)), np.zeros((4, 1))), bench_weights(5)),
     "trajectory.inputs has shape (4, 1), expected (5, 1)"),
    (lambda: evaluate_cost(Trajectory(np.zeros(6), np.zeros((5, 1))), bench_weights(5)),
     "trajectory.states has shape (6,), expected (6, 2)"),
    (lambda: mayne_murdoch_gain([0.5, 0.6], [0.1], [1.0, 1.0]),
     "open_eigs, desired_eigs, B_diag must have equal length"),
    (lambda: settling_report(solve_lqr(bench_system(5), bench_weights(5)),
                             simulate_closed_loop(bench_system(6), K_STEADY, X0_BENCH)),
     "solution horizon 5 does not match trajectory 6"),
    (lambda: solve_lqr(bench_system(5), bench_weights(5)).optimal_cost(np.ones(3)),
     "x0 has shape (3,), expected (2,)"),
], ids=["evaluate_cost", "evaluate_cost 1-D states", "mayne_murdoch_gain", "settling_report",
        "optimal_cost"])
def test_mismatched_lengths_rejected(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


class TestSolveDareLqr:
    def test_benchmark_fixture(self):
        result = solve_dare_lqr(A_BENCH, B_BENCH, np.eye(2), 1.0)
        np.testing.assert_allclose(result.K, K_STEADY, rtol=0, atol=1e-9)
        assert result.closed_loop_spectral_radius < 1.0
        assert result.residual <= 1e-10

    def test_benchmark_iterates_pinned(self):
        # the shared fixed-point routine reproduces the benchmark solve bit for bit
        result = solve_dare_lqr(A_BENCH, B_BENCH, np.eye(2), 1.0)
        np.testing.assert_array_equal(result.K, [[2.7354355175606098, -2.7470871035121074]])
        np.testing.assert_array_equal(result.P, [[16.414802028466077, -17.290045242144416],
                                                 [-17.290045242144416, 20.83130655268088]])
        assert result.iterations == 20
        assert result.residual == 1.404387717229838e-11

    def test_fixed_point_residual(self):
        result = solve_dare_lqr(A_BENCH, B_BENCH, np.eye(2), 1.0, tol=1e-10)
        lhs = result.P
        A_cl = A_BENCH - B_BENCH @ result.K
        rhs = np.eye(2) + result.K.T @ result.K + A_cl.T @ result.P @ A_cl
        assert np.max(np.abs(lhs - rhs)) <= 10 * 1e-10

    def test_scipy_cross_check(self):
        result = solve_dare_lqr(A_BENCH, B_BENCH, np.eye(2), 1.0, tol=1e-13)
        P_ref = sla.solve_discrete_are(A_BENCH, B_BENCH, np.eye(2), np.array([[1.0]]))
        np.testing.assert_allclose(result.P, P_ref, atol=1e-8)

    def test_zero_a(self):
        result = solve_dare_lqr([[0.0]], [[2.0]], [[3.0]], [[1.0]])
        np.testing.assert_allclose(result.K, [[0.0]], atol=1e-14)
        np.testing.assert_allclose(result.P, [[3.0]])

    def test_scalar_closed_form(self):
        # positive root of P^2 - 0.25 P - 1 = 0
        expected = (0.25 + np.sqrt(0.25**2 + 4.0)) / 2.0
        result = solve_dare_lqr([[0.5]], [[1.0]], [[1.0]], [[1.0]], tol=1e-13)
        assert result.P[0, 0] == pytest.approx(expected, abs=1e-10)

    def test_unstabilizable_diverges(self):
        with pytest.raises(ConvergenceError) as excinfo:
            solve_dare_lqr([[2.0]], [[0.0]], [[1.0]], [[1.0]], max_iter=500)
        assert excinfo.value.residual > 0

    def test_overflow_fails_fast(self):
        # the unstable mode is unreachable, so P overflows; the solver stops
        # at the first non-finite residual instead of running to max_iter
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="diverged") as excinfo:
            solve_dare_lqr(np.diag([2.0, 0.5]), [[0.0], [1.0]], np.eye(2), 1.0)
        assert time.perf_counter() - start < 1.0
        assert excinfo.value.iterations < 100_000
        assert not np.isfinite(excinfo.value.residual)
        assert f"after {excinfo.value.iterations} iterations" in str(excinfo.value)

    @pytest.mark.parametrize("case", ["benchmark-tol-0", "large-P"])
    def test_stall_fails_fast(self, case):
        # the residual floors above tol, so the loop used to spin to max_iter
        # (6 s) and fail; it now stops _STALL_WINDOW iterations after its best
        if case == "benchmark-tol-0":
            args, tol = (A_BENCH, B_BENCH, np.eye(2), 1.0), 0.0
        else:
            # max|P| 8.7e5, closed-loop spectral radius 0.74: the residual's
            # rounding floor lies above the default tol
            rng = np.random.default_rng(48)
            A, B = rng.uniform(-1.0, 1.0, (4, 4)), 0.01 * rng.uniform(-1.0, 1.0, (4, 1))
            args, tol = (A, B, np.eye(4), 1.0), 1e-10
        start = time.perf_counter()
        with pytest.raises(ConvergenceError) as excinfo:
            solve_dare_lqr(*args, tol=tol)
        assert time.perf_counter() - start < 1.0
        found = re.match(r"^steady-state LQR iteration stalled at residual (\S+) "
                         r"\(best (\S+) at iteration (\d+)\)", str(excinfo.value))
        assert found, str(excinfo.value)
        residual, best, best_it = float(found[1]), float(found[2]), int(found[3])
        assert tol < best <= residual == float(f"{excinfo.value.residual:.3e}")
        assert excinfo.value.iterations == best_it + _STALL_WINDOW

    @pytest.mark.parametrize("kwargs, message", [
        ({"tol": np.nan}, "tol must be a finite number >= 0, got nan"),
        ({"tol": np.inf}, "tol must be a finite number >= 0, got inf"),
        ({"tol": -1e-10}, "tol must be a finite number >= 0, got -1e-10"),
        ({"max_iter": 0}, "max_iter must be at least 1, got 0"),
    ])
    def test_bad_stopping_rule_rejected_before_iterating(self, kwargs, message):
        # a nan tol would otherwise run all max_iter iterations
        for solve, B_or_C in ((solve_dare_lqr, B_BENCH), (solve_dare_estimator, C_BENCH)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                solve(A_BENCH, B_or_C, np.eye(2), 1.0, **kwargs)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4), m=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
def test_steady_lqr_matches_scipy(n, m, seed):
    rng = np.random.default_rng(seed)
    A, B = rng.uniform(-1.0, 1.0, (n, n)), rng.uniform(-1.0, 1.0, (n, m))
    W, V = rng.standard_normal((n, n)), rng.standard_normal((m, m))
    Q, R = W @ W.T / n + 0.1 * np.eye(n), V @ V.T / m + 0.1 * np.eye(m)
    P_ref = sla.solve_discrete_are(A, B, Q, R)
    K_ref = np.linalg.solve(R + B.T @ P_ref @ B, B.T @ P_ref @ A)
    # the fixed-point iteration is short on a contracting closed loop, and its
    # rounding floor, which grows with max|P|, stays below the absolute tol
    # for a moderate P
    assume(max(abs(np.linalg.eigvals(A - B @ K_ref))) <= 0.95)
    assume(np.abs(P_ref).max() <= 100.0)
    P = solve_dare_lqr(A, B, Q, R, tol=1e-12).P
    assert np.abs(P - P_ref).max() <= 1e-8 * np.abs(P_ref).max()


def _scipy_closed_loop_radius(A, B, Q, R):
    """max|eigvals(A - B K)| for the gain K of scipy's DARE solution."""
    P = sla.solve_discrete_are(A, B, Q, R)
    K = np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    return max(abs(np.linalg.eigvals(A - B @ K)))


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_spectral_radii_are_the_largest_closed_loop_eigenvalues(seed):
    # fig1's system (seed None) and random pairs with eigenvalues of unequal
    # size; the estimator is the dual problem, A - L C = (A^T - C^T L^T)^T
    if seed is None:
        A, B, C = A_BENCH, B_BENCH, C_BENCH
    else:
        rng = np.random.default_rng(seed)
        A, B, C = (rng.uniform(-1.0, 1.0, shape) for shape in ((3, 3), (3, 2), (1, 3)))
    Q, R = np.eye(len(A)), np.eye(B.shape[1])
    rho = solve_dare_lqr(A, B, Q, R, tol=1e-12).closed_loop_spectral_radius
    assert rho == pytest.approx(_scipy_closed_loop_radius(A, B, Q, R), rel=1e-8)
    rho = solve_dare_estimator(A, C, Q, np.eye(len(C)), tol=1e-12).observer_spectral_radius
    assert rho == pytest.approx(_scipy_closed_loop_radius(A.T, C.T, Q, np.eye(len(C))),
                                rel=1e-8)


class TestMayneMurdoch:
    def test_no_motion_zero_gain(self):
        lam = np.array([0.3, 0.7])
        K = mayne_murdoch_gain(lam, lam, [1.0, 1.0])
        np.testing.assert_allclose(K, [0.0, 0.0], atol=1e-14)

    def test_scalar_reduction(self):
        assert mayne_murdoch_gain([0.9], [0.4], [2.0])[0] == pytest.approx(0.25)

    def test_eigenvalue_oracle_2x2(self):
        lam, mu, b = np.array([0.5, 1.5]), np.array([0.2, 0.3]), np.array([1.0, 1.0])
        K = mayne_murdoch_gain(lam, mu, b)
        A_cl = np.diag(lam) - np.outer(b, K)
        placed = np.sort(np.linalg.eigvals(A_cl))
        np.testing.assert_allclose(placed, np.sort(mu), atol=1e-12)

    def test_repeated_open_eigs_rejected(self):
        with pytest.raises(ValueError):
            mayne_murdoch_gain([0.5, 0.5], [0.1, 0.2], [1.0, 1.0])

    def test_zero_b_rejected(self):
        with pytest.raises(ValueError):
            mayne_murdoch_gain([0.5, 0.6], [0.1, 0.2], [1.0, 0.0])

    def test_complex_conjugate_target(self):
        lam = np.array([0.2, 0.8])
        mu = np.array([0.3 + 0.4j, 0.3 - 0.4j])
        K = mayne_murdoch_gain(lam, mu, [1.0, 1.0])
        assert np.isrealobj(K)
        A_cl = np.diag(lam) - np.outer([1.0, 1.0], K)
        placed = np.linalg.eigvals(A_cl)
        np.testing.assert_allclose(np.sort_complex(placed), np.sort_complex(mu), atol=1e-12)


class TestSimulateClosedLoop:
    def test_equilibrium(self):
        traj = simulate_closed_loop(bench_system(10), K_STEADY, np.zeros(2))
        np.testing.assert_array_equal(traj.states, np.zeros((11, 2)))
        np.testing.assert_array_equal(traj.inputs, np.zeros((10, 1)))

    def test_zero_gain_open_loop(self):
        N = 6
        traj = simulate_closed_loop(bench_system(N), np.zeros((1, 2)), X0_BENCH)
        x = X0_BENCH.copy()
        for k in range(N):
            np.testing.assert_allclose(traj.states[k], x)
            x = A_BENCH @ x
        np.testing.assert_allclose(traj.states[N], x)

    def test_schedule_and_fixed_costs_agree_at_n50(self):
        system, weights = bench_system(50), bench_weights(50)
        J_sched = evaluate_cost(simulate_closed_loop(system, solve_lqr(system, weights),
                                                     X0_BENCH), weights)
        J_fixed = evaluate_cost(simulate_closed_loop(system, K_STEADY, X0_BENCH), weights)
        assert J_sched == pytest.approx(433.25834244923135, abs=1e-8)
        assert J_fixed == pytest.approx(J_sched, abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            simulate_closed_loop(bench_system(5), np.zeros((1, 3)), X0_BENCH)
        with pytest.raises(ValueError):
            simulate_closed_loop(bench_system(5), MatrixSchedule.of([np.zeros((1, 2))] * 4),
                                 X0_BENCH)
        with pytest.raises(ValueError, match=r"^x0 has shape \(3,\), expected \(2,\)$"):
            simulate_closed_loop(bench_system(5), K_STEADY, [1.0, 2.0, 3.0])


class TestSettlingReport:
    def test_condition_holds_at_n50(self):
        system, weights = bench_system(50), bench_weights(50)
        solution = solve_lqr(system, weights)
        traj = simulate_closed_loop(system, solution, X0_BENCH)
        report = settling_report(solution, traj, epsilon=0.1)
        assert report.k_x < report.k_K
        assert report.gain_constant_over_transient

    def test_condition_fails_at_n5(self):
        system, weights = bench_system(5), bench_weights(5)
        solution = solve_lqr(system, weights)
        traj = simulate_closed_loop(system, solution, X0_BENCH)
        report = settling_report(solution, traj, epsilon=0.1)
        assert not report.k_x < report.k_K

    def test_constant_gain_settles_through_horizon(self):
        N = 20
        system = bench_system(N)
        gains = MatrixSchedule.constant(K_STEADY, N)
        P = MatrixSchedule.constant(np.eye(2), N + 1)
        traj = simulate_closed_loop(system, gains, X0_BENCH)
        report = settling_report(RiccatiSolution(P=P, K=gains), traj, epsilon=0.1)
        assert report.k_K == N - 1

    def test_default_epsilon_from_initial_state(self):
        system, weights = bench_system(50), bench_weights(50)
        solution = solve_lqr(system, weights)
        traj = simulate_closed_loop(system, solution, X0_BENCH)
        report = settling_report(solution, traj)
        assert report.epsilon == pytest.approx(1e-2 * np.linalg.norm(X0_BENCH))


def scanned_settling(K, xs, epsilon):
    """k_x and k_K by scanning, as the report defines them: k_x is the first j
    with every ||x_j..x_N|| <= epsilon (N if none), k_K the last j of the
    leading run of gains within epsilon (max-abs) of K_0 (0 if none)."""
    N = len(xs) - 1
    norms = np.linalg.norm(xs, axis=1)
    k_x = next((j for j in range(N + 1) if np.all(norms[j:] <= epsilon)), N)
    k_K = 0
    for j in range(N):
        if not np.max(np.abs(K[j] - K[0])) <= epsilon:     # nan is never within epsilon
            break
        k_K = j
    return k_x, k_K


@settings(max_examples=200, deadline=None)
@given(N=st.integers(1, 12), n=st.integers(1, 3), m=st.integers(1, 2),
       seed=st.integers(0, 2**32 - 1),
       epsilon=st.sampled_from([None, 0.0, 0.05, 0.5, 5.0, -1.0, np.nan]))
def test_settling_indices_equal_scan(N, n, m, seed, epsilon):
    # states that decay with random bumps and gains that drift from random
    # points on, several trajectories of one schedule reported at once
    from lqgkit.lqr import _gain_drift, _settling_reports

    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((4, N + 1, n)) * rng.choice([0.01, 0.1, 1.0], (4, N + 1, 1))
    xs[rng.random(4) < 0.25, :, :] = 0.0
    K = np.repeat(rng.standard_normal((1, m, n)), N, axis=0)
    K[rng.integers(0, N + 1):] += rng.choice([0.0, 0.01, 0.3, 1.0]) * rng.standard_normal((m, n))
    if rng.random() < 0.2:
        K[rng.integers(0, N), 0, 0] = np.nan
    solution = RiccatiSolution(P=MatrixSchedule.constant(np.eye(n), N + 1),
                               K=MatrixSchedule.of(list(K)))
    reports = _settling_reports(_gain_drift(solution.K), xs, epsilon)
    for x, stacked in zip(xs, reports):
        eps = 1e-2 * float(np.linalg.norm(x[0])) if epsilon is None else epsilon
        report = settling_report(solution, Trajectory(states=x, inputs=np.zeros((N, m))),
                                 epsilon)
        # epsilon by repr, so that a nan epsilon compares equal to itself
        fields = [(r.k_x, r.k_K, repr(r.epsilon)) for r in (report, stacked)]
        assert fields[0] == fields[1] == (*scanned_settling(K, x, eps), repr(eps))
