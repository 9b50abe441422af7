import gc
import re
import tracemalloc
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.signal

from conftest import (
    A_BENCH,
    B_BENCH,
    C_BENCH,
    K_STEADY,
    X0_BENCH,
    bench_noise,
    bench_system,
    bench_weights,
    same,
)
from lqgkit import (
    Belief,
    ConvergenceError,
    EstimatorRun,
    GaussianStream,
    GaussianVector,
    JointGaussian,
    LqrWeights,
    MatrixSchedule,
    NoiseModel,
    Scenario,
    Trajectory,
    ValidationError,
    condition,
    dre_step,
    evaluate_cost,
    filter_predict,
    filter_run,
    filter_update,
    gaussian_pdf,
    luenberger_step,
    multivariate_gaussian_pdf,
    predictor_run,
    predictor_step,
    sample_gaussian,
    simulate_closed_loop,
    smoother_run,
    solve_dare_estimator,
    solve_dare_lqr,
    solve_lqr,
)
from lqgkit import estimation, harness, parse_scenario
from lqgkit.estimation import BeliefSequence
from lqgkit._linalg import solve_spd, symmetrize
from lqgkit.model import LtvSystem, MatrixSchedule, NoiseModel

# Steady-state predictor solution for (A_BENCH, C_BENCH, Qd=I, Rv=1), frozen
# from the fixed-point iteration run at tol 1e-12 and cross-checked against
# scipy.linalg.solve_discrete_are on the transposed pair.
P_EST_STEADY = np.array([[1.333333333333332, -2.666666666666654],
                         [-2.666666666666654, 30.081060418200693]])
L_EST_STEADY = np.array([[0.0], [2.582575694955835]])


def random_psd(rng, n, scale=1.0):
    M = rng.standard_normal((n, n))
    return scale * (M @ M.T) + 0.1 * np.eye(n)


def predictor_compact_cov(A, C, Qd, Rv, P):
    """One-step predictor covariance in the compact (non-Joseph) form."""
    S = C @ P @ C.T + Rv
    return A @ P @ A.T + Qd - A @ P @ C.T @ np.linalg.solve(S, C @ P @ A.T)


def filter_compact_cov(C, Rv, P):
    """Measurement-update covariance in the compact (non-Joseph) form."""
    S = C @ P @ C.T + Rv
    return P - P @ C.T @ np.linalg.solve(S, C @ P)


def one_step_filter_oracle(system, noise, inputs, measurements):
    """Single-equation filter: composed gain acting on the raw recursion."""
    N = system.N
    x_hat = noise.x0_mean.copy()
    P = noise.P0.copy()
    means, covs = [x_hat.copy()], [P.copy()]
    for k in range(1, N + 1):
        A, B, C = system.A[k - 1], system.B[k - 1], system.C[k - 1]
        Qd, Rv = noise.Qd[k - 1], noise.Rv[k - 1]
        M = A @ P @ A.T + Qd
        S = C @ M @ C.T + Rv
        L = M @ C.T @ np.linalg.inv(S)
        pred = A @ x_hat + B @ inputs[k - 1]
        x_hat = pred + L @ (measurements[k - 1] - C @ pred)
        ILC = np.eye(system.n) - L @ C
        P = ILC @ M @ ILC.T + L @ Rv @ L.T
        means.append(x_hat.copy())
        covs.append(P.copy())
    return np.array(means), np.array(covs)


def simulate_measured(system, noise, gains, stream, convention):
    """Truth rollout with measurements in the requested convention."""
    from lqgkit import sample_gaussian
    N, n, p = system.N, system.n, system.p
    x = sample_gaussian(noise.initial_belief(), stream)[0]
    states, inputs, measurements = [x.copy()], [], []
    for k in range(N):
        u = -(gains @ x)
        inputs.append(u)
        d = sample_gaussian(GaussianVector(np.zeros(n), noise.Qd[k]), stream)[0]
        v = sample_gaussian(GaussianVector(np.zeros(p), noise.Rv[k]), stream)[0]
        if convention == "predictor":
            measurements.append(system.C[k] @ x + v)
        x = system.A[k] @ x + system.B[k] @ u + d
        if convention == "filter":
            measurements.append(system.C[k] @ x + v)
        states.append(x.copy())
    return np.array(states), np.array(inputs), np.array(measurements)


class TestLuenberger:
    def test_zero_innovation_is_pure_prediction(self):
        x_hat, u = np.array([1.0, -2.0]), np.array([0.3])
        y = C_BENCH @ x_hat
        out = luenberger_step(A_BENCH, B_BENCH, C_BENCH, np.ones((2, 1)), x_hat, u, y)
        np.testing.assert_allclose(out, A_BENCH @ x_hat + B_BENCH @ u)

    def test_zero_gain_open_loop(self):
        x_hat, u, y = np.array([1.0, 1.0]), np.array([0.0]), np.array([5.0])
        out = luenberger_step(A_BENCH, B_BENCH, C_BENCH, np.zeros((2, 1)), x_hat, u, y)
        np.testing.assert_allclose(out, A_BENCH @ x_hat)

    def test_error_decays_geometrically(self):
        # gain placing the observer eigenvalues well inside the unit disk
        placed = scipy.signal.place_poles(A_BENCH.T, C_BENCH.T, [0.1, 0.2])
        L = placed.gain_matrix.T
        rho = max(abs(np.linalg.eigvals(A_BENCH - L @ C_BENCH)))
        assert rho < 1.0

        system = bench_system(40, with_output=True)
        x = np.array([10.0, 5.0])
        x_hat = np.zeros(2)
        errors = [np.linalg.norm(x - x_hat)]
        for k in range(40):
            u = np.array([np.sin(0.3 * k)])
            y = C_BENCH @ x
            x_hat = luenberger_step(A_BENCH, B_BENCH, C_BENCH, L, x_hat, u, y)
            x = system.A[k] @ x + system.B[k] @ u
            errors.append(np.linalg.norm(x - x_hat))
        # oracle: the error recursion e+ = (A - LC) e, simulated directly;
        # the comparison stops once the error reaches the rounding floor of
        # the O(10) state magnitudes
        e = np.array([10.0, 5.0])
        for k in range(40):
            e = (A_BENCH - L @ C_BENCH) @ e
            if np.linalg.norm(e) > 1e-9:
                assert errors[k + 1] == pytest.approx(np.linalg.norm(e), rel=1e-6)
        assert errors[-1] < 1e-10


class TestPredictorStep:
    def test_no_information_limit(self, rng):
        P = random_psd(rng, 2)
        belief = Belief(mean=[1.0, 2.0], cov=P, tag=(3, 2))
        out, L = predictor_step(A_BENCH, B_BENCH, np.zeros((1, 2)), np.eye(2), [[1.0]],
                                belief, [0.0], [0.0])
        np.testing.assert_allclose(L, np.zeros((2, 1)), atol=1e-14)
        np.testing.assert_allclose(out.cov, A_BENCH @ P @ A_BENCH.T + np.eye(2))
        assert out.tag == (4, 3)

    def test_scalar_hand_value(self):
        belief = Belief(mean=[0.0], cov=[[1.0]], tag=(0, -1))
        out, L = predictor_step([[1.0]], [[0.0]], [[1.0]], [[1.0]], [[1.0]],
                                belief, [0.0], [1.0])
        np.testing.assert_allclose(L, [[0.5]])
        np.testing.assert_allclose(out.cov, [[1.5]])
        np.testing.assert_allclose(out.mean, [0.5])

    def test_joseph_equals_compact(self, rng):
        for _ in range(50):
            n, p = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            A = rng.standard_normal((n, n))
            C = rng.standard_normal((p, n))
            Qd = random_psd(rng, n)
            Rv = random_psd(rng, p)
            P = random_psd(rng, n)
            belief = Belief(mean=rng.standard_normal(n), cov=P, tag=(0, -1))
            out, _ = predictor_step(A, np.zeros((n, 1)), C, Qd, Rv, belief, [0.0],
                                    rng.standard_normal(p))
            compact = predictor_compact_cov(A, C, Qd, Rv, P)
            assert np.max(np.abs(out.cov - compact)) < 1e-10


class TestFilterPredict:
    def test_identity_propagation(self):
        belief = Belief(mean=[1.0, 2.0], cov=np.eye(2), tag=(4, 4))
        out = filter_predict(np.eye(2), np.zeros((2, 1)), np.zeros((2, 2)), belief, [0.0])
        np.testing.assert_array_equal(out.mean, belief.mean)
        np.testing.assert_array_equal(out.cov, belief.cov)
        assert out.tag == (5, 4)

    def test_scalar_hand_value(self):
        belief = Belief(mean=[0.0], cov=[[1.0]], tag=(0, 0))
        out = filter_predict([[2.0]], [[0.0]], [[1.0]], belief, [0.0])
        np.testing.assert_allclose(out.cov, [[5.0]])

    def test_additive_identity(self, rng):
        for _ in range(20):
            A = rng.standard_normal((3, 3))
            Qd = random_psd(rng, 3)
            P = random_psd(rng, 3)
            belief = Belief(mean=rng.standard_normal(3), cov=P, tag=(0, 0))
            out = filter_predict(A, np.zeros((3, 1)), Qd, belief, [0.0])
            np.testing.assert_allclose(out.cov - A @ P @ A.T, Qd, atol=1e-12)


class TestFilterUpdate:
    def test_scalar_hand_value(self):
        belief = Belief(mean=[0.0], cov=[[1.0]], tag=(1, 0))
        out, L = filter_update([[1.0]], [[1.0]], belief, [1.0])
        np.testing.assert_allclose(L, [[0.5]])
        np.testing.assert_allclose(out.cov, [[0.5]])
        np.testing.assert_allclose(out.mean, [0.5])
        assert out.tag == (1, 1)

    def test_uninformative_measurement_limit(self, rng):
        P = random_psd(rng, 2)
        belief = Belief(mean=[1.0, -1.0], cov=P, tag=(2, 1))
        out, L = filter_update(C_BENCH, [[1e9]], belief, [100.0])
        assert np.max(np.abs(L)) < 1e-7
        np.testing.assert_allclose(out.mean, belief.mean, atol=1e-5)
        np.testing.assert_allclose(out.cov, P, atol=1e-6)

    def test_joseph_equals_compact(self, rng):
        for _ in range(50):
            n, p = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            C = rng.standard_normal((p, n))
            Rv = random_psd(rng, p)
            P = random_psd(rng, n)
            belief = Belief(mean=rng.standard_normal(n), cov=P, tag=(1, 0))
            out, _ = filter_update(C, Rv, belief, rng.standard_normal(p))
            assert np.max(np.abs(out.cov - filter_compact_cov(C, Rv, P))) < 1e-10

    def test_matches_gaussian_conditioning(self, rng):
        # the measurement update is the conditional-Gaussian formula applied
        # to the joint of (x, y = Cx + v)
        for _ in range(25):
            n, p = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            C = rng.standard_normal((p, n))
            Rv = random_psd(rng, p)
            P = random_psd(rng, n)
            mean = rng.standard_normal(n)
            y_obs = rng.standard_normal(p)
            joint = JointGaussian(mean_x=mean, mean_y=C @ mean, cov_xx=P,
                                  cov_xy=P @ C.T, cov_yy=C @ P @ C.T + Rv)
            expected = condition(joint, y_obs)
            got, _ = filter_update(C, Rv, Belief(mean=mean, cov=P, tag=(1, 0)), y_obs)
            np.testing.assert_allclose(got.mean, expected.mean, atol=1e-12)
            np.testing.assert_allclose(got.cov, expected.cov, atol=1e-12)


class TestFilterRun:
    def test_near_deterministic_tracking(self):
        # zero disturbance, exact initial belief, vanishing measurement noise:
        # the estimates reproduce the true states
        N = 10
        system = bench_system(N, with_output=True)
        noise = bench_noise(N, Qd=np.zeros((2, 2)), Rv=np.array([[1e-9]]),
                            P0=np.zeros((2, 2)))
        x = X0_BENCH.copy()
        states, inputs, measurements = [x.copy()], [], []
        for k in range(N):
            u = np.array([0.1 * np.cos(k)])
            inputs.append(u)
            x = system.A[k] @ x + system.B[k] @ u
            states.append(x.copy())
            measurements.append(C_BENCH @ x)
        run = filter_run(system, noise, np.array(inputs), np.array(measurements))
        for k in range(N + 1):
            np.testing.assert_allclose(run.updated[k].mean, states[k], atol=1e-9)

    def test_zero_rv_violates_precondition(self):
        N = 3
        system = bench_system(N, with_output=True)
        noise = bench_noise(N, Qd=np.zeros((2, 2)), Rv=np.zeros((1, 1)), P0=np.zeros((2, 2)))
        with pytest.raises(np.linalg.LinAlgError):
            filter_run(system, noise, np.zeros((N, 1)), np.zeros((N, 1)))

    def test_update_never_inflates_covariance(self):
        # P_{k|k} <= P_{k|k-1} in the PSD order, benchmark scenario
        N = 30
        system = bench_system(N, with_output=True)
        noise = bench_noise(N)
        stream = GaussianStream(5)
        _, inputs, measurements = simulate_measured(system, noise, K_STEADY, stream, "filter")
        run = filter_run(system, noise, inputs, measurements)
        for k in range(N):
            diff = run.predicted[k].cov - run.updated[k + 1].cov
            assert np.linalg.eigvalsh(diff).min() >= -1e-9

    def test_one_step_form_equivalence(self):
        # composed-gain single-equation filter against the two-stage run
        N = 25
        system = bench_system(N, with_output=True)
        noise = bench_noise(N)
        stream = GaussianStream(17)
        _, inputs, measurements = simulate_measured(system, noise, K_STEADY, stream, "filter")
        run = filter_run(system, noise, inputs, measurements)
        means, covs = one_step_filter_oracle(system, noise, inputs, measurements)
        for k in range(N + 1):
            assert np.max(np.abs(run.updated[k].mean - means[k])) < 1e-10
            assert np.max(np.abs(run.updated[k].cov - covs[k])) < 1e-10

    def test_beliefs_tagged_and_sized(self):
        N = 4
        system = bench_system(N, with_output=True)
        noise = bench_noise(N)
        run = filter_run(system, noise, np.zeros((N, 1)), np.ones((N, 1)))
        assert [b.tag for b in run.updated] == [(k, k) for k in range(N + 1)]
        assert [b.tag for b in run.predicted] == [(k, k - 1) for k in range(1, N + 1)]
        assert len(run.gains) == N and run.gains[0].shape == (2, 1)
        assert len(run.innovations) == N

    def test_matches_stepwise_composition(self):
        N = 12
        system = bench_system(N, with_output=True)
        noise = bench_noise(N)
        _, inputs, measurements = simulate_measured(system, noise, K_STEADY,
                                                    GaussianStream(19), "filter")
        run = filter_run(system, noise, inputs, measurements)
        belief = Belief(mean=noise.x0_mean, cov=noise.P0, tag=(0, 0))
        for k in range(N):
            predicted = filter_predict(system.A[k], system.B[k], noise.Qd[k], belief, inputs[k])
            belief, L = filter_update(system.C[k], noise.Rv[k], predicted, measurements[k])
            for got, want in ((run.predicted[k], predicted), (run.updated[k + 1], belief)):
                assert got.tag == want.tag
                assert same(got.mean, want.mean) and same(got.cov, want.cov)
            assert same(run.gains[k], L)
            assert same(run.innovations[k], measurements[k] - system.C[k] @ predicted.mean)


@pytest.mark.parametrize("estimator", [filter_run, predictor_run])
@pytest.mark.parametrize("inputs, measurements, message", [
    (np.zeros(5), np.zeros((5, 1)), r"inputs must have shape \(N, m\) = \(5, 1\), got \(5,\)"),
    (np.zeros((5, 1)), np.zeros((5, 2)),
     r"measurements must have shape \(N, p\) = \(5, 1\), got \(5, 2\)"),
], ids=["1-D inputs", "wide measurements"])
def test_recorded_shapes_checked(estimator, inputs, measurements, message):
    with pytest.raises(ValueError, match=message):
        estimator(bench_system(5, with_output=True), bench_noise(5), inputs, measurements)


@pytest.mark.parametrize("estimator", [filter_run, predictor_run])
def test_recorded_data_needs_a_measurement_matrix(estimator):
    noise = bench_noise(5, Rv=np.zeros((0, 0)))
    with pytest.raises(ValueError, match=r"^system must have a measurement matrix C, got None$"):
        estimator(bench_system(5), noise, np.zeros((5, 1)), np.zeros((5, 0)))


@pytest.mark.parametrize("estimator", [filter_run, predictor_run])
@pytest.mark.parametrize("noise, message", [
    (lambda: bench_noise(5, Qd=np.eye(3)), "Qd entries have shape (3, 3), expected (2, 2)"),
    (lambda: bench_noise(5, Rv=np.eye(2)), "Rv entries have shape (2, 2), expected (1, 1)"),
    (lambda: bench_noise(5, P0=[[np.nan, 0.0], [0.0, 1.0]]),
     "P0 has non-finite entries (nan or inf)"),
    (lambda: NoiseModel(MatrixSchedule.of([np.eye(2)] * 4), bench_noise(5).Rv,
                        np.zeros(3), np.eye(2)),
     "Qd has length 4, expected 5\n  x0_mean has shape (3,), expected (2,)"),
], ids=["3x3 Qd", "2x2 Rv at p=1", "NaN P0", "short Qd and long x0_mean"])
def test_recorded_data_checks_the_noise_model(estimator, noise, message):
    # before any arithmetic, so no broadcast error or silent NaN mean
    with pytest.raises(ValidationError) as excinfo:
        estimator(bench_system(5, with_output=True), noise(), np.zeros((5, 1)),
                  np.zeros((5, 1)))
    assert str(excinfo.value) == "invalid configuration:\n  " + message


I2, INF_RV, NAN_RV = np.eye(2), np.diag([np.inf, 1.0]), np.diag([np.nan, 1.0])
PRIOR = Belief(np.zeros(2), np.eye(2), (0, -1))
ZEROS = np.zeros((5, 1))
NAN_AT_1, INF_AT_1 = (np.array([[0.0], [bad], [0.0], [0.0], [0.0]]) for bad in (np.nan, np.inf))
INF_C2 = LtvSystem(2, 1, 1, 5, bench_system(5).A, bench_system(5).B,
                   MatrixSchedule.of([C_BENCH] * 2 + [[[np.inf, 0.0]]] + [C_BENCH] * 2))


@pytest.mark.parametrize("call, name", [
    (lambda: filter_update(I2, INF_RV, PRIOR, [1.0, 1.0]), "Rv_k"),
    (lambda: filter_update(I2, NAN_RV, PRIOR, [1.0, 1.0]), "Rv_k"),
    (lambda: filter_update(I2, I2, Belief(np.zeros(2), NAN_RV, (0, -1)), [1.0, 1.0]),
     "belief.cov"),
    (lambda: filter_update(I2, I2, Belief(np.zeros(2), None, (0, -1)), [1.0, 1.0]),
     "belief.cov"),
    (lambda: predictor_step(I2, I2, I2, I2, INF_RV, PRIOR, [0.0, 0.0], [1.0, 1.0]), "Rv_k"),
    (lambda: filter_predict(I2, I2, NAN_RV, PRIOR, [0.0, 0.0]), "Qd_prev"),
    (lambda: luenberger_step(I2, I2, I2, I2, [0.0, 0.0], [0.0, 0.0], [np.inf, 1.0]), "y"),
    (lambda: dre_step(I2, I2, I2, I2, INF_RV), "P_next"),
    (lambda: condition(JointGaussian(np.zeros(2), np.zeros(2), I2, I2, np.diag([np.inf, 2.0])),
                       [1.0, 1.0]), "joint.cov_yy"),
    (lambda: solve_dare_lqr(NAN_RV, I2, I2, I2), "A"),
    (lambda: solve_dare_estimator(I2, NAN_RV, I2, I2), "C"),
    (lambda: solve_lqr(bench_system(5), LqrWeights(
        MatrixSchedule.of([I2, I2, NAN_RV, I2, I2, I2]), bench_weights(5).R)), "Q[2]"),
    (lambda: simulate_closed_loop(bench_system(5), K_STEADY, [np.nan, 1.0]), "x0"),
    (lambda: simulate_closed_loop(bench_system(5), [[np.inf, 0.0]], X0_BENCH), "gains"),
    (lambda: evaluate_cost(Trajectory(np.zeros((6, 2)), np.zeros((5, 1))),
                           LqrWeights.constant(I2, np.nan, horizon=5)), "R"),
    (lambda: sample_gaussian(GaussianVector(np.zeros(2), NAN_RV), GaussianStream(0)), "g.cov"),
    (lambda: multivariate_gaussian_pdf([np.nan, 0.0], GaussianVector(np.zeros(2), I2)), "x"),
    (lambda: gaussian_pdf(0.0, np.nan, 1.0), "mean"),
    (lambda: filter_run(bench_system(5, True), bench_noise(5), ZEROS, NAN_AT_1), "measurements"),
    (lambda: predictor_run(bench_system(5, True), bench_noise(5), INF_AT_1, ZEROS), "inputs"),
    (lambda: filter_run(LtvSystem.lti(NAN_RV, B_BENCH, C_BENCH, horizon=5), bench_noise(5),
                        ZEROS, ZEROS), "A"),
    (lambda: predictor_run(INF_C2, bench_noise(5), ZEROS, ZEROS), "C[2]"),
    (lambda: solve_lqr(bench_system(5), bench_weights(5)).optimal_cost([np.nan, 1.0]), "x0"),
], ids=["filter_update inf Rv", "filter_update nan Rv", "filter_update nan belief",
        "filter_update observer belief",
        "predictor_step inf Rv", "filter_predict nan Qd", "luenberger_step inf y",
        "dre_step inf P", "condition inf cov_yy", "solve_dare_lqr nan A",
        "solve_dare_estimator nan C", "solve_lqr nan Q entry", "simulate_closed_loop nan x0",
        "simulate_closed_loop inf gain", "evaluate_cost nan R", "sample_gaussian nan cov",
        "multivariate_gaussian_pdf nan x", "gaussian_pdf nan mean",
        "filter_run nan measurement", "predictor_run inf input", "filter_run nan A",
        "predictor_run inf C entry", "optimal_cost nan x0"])
def test_step_functions_name_a_non_finite_argument(call, name):
    # an inf on the diagonal of an SPD solve's S passes its Cholesky and drops
    # that row (filter_update's mean came back [0, 0.5]); a nan came back as
    # nan means (the recorded-data runs' final mean read [nan, nan]), and the
    # DARE solvers reported it as a diverged iteration.
    # Every public numeric function refuses both, naming the argument (a
    # schedule's entry by its index), and takes a fixed-gain observer's
    # belief (no covariance) as a nan one
    with pytest.raises(ValueError,
                       match=rf"^{re.escape(name)} has non-finite entries \(nan or inf\)$"):
        call()


class TestBeliefSequence:
    """A run's beliefs read from its stacked arrays as a read-only list would."""

    def test_filter_run_reads_like_a_list(self):
        N = 4
        run = filter_run(bench_system(N, with_output=True), bench_noise(N),
                         np.zeros((N, 1)), np.ones((N, 1)))
        updated, predicted = run.updated, run.predicted
        assert len(updated) == N + 1 and len(predicted) == N
        assert updated.means.shape == (N + 1, 2) and updated.covs.shape == (N + 1, 2, 2)
        assert predicted.means.shape == (N, 2) and predicted.covs.shape == (N, 2, 2)
        for k, belief in enumerate(updated):
            assert belief.tag == (k, k)
            assert same(belief.mean, updated.means[k]) and same(belief.cov, updated.covs[k])
        assert updated[-1].tag == (N, N) and same(updated[-2].mean, updated.means[N - 1])
        assert predicted[0].tag == (1, 0) and predicted[-1].tag == (N, N - 1)
        assert (updated.first, predicted.first) == (0, 1)
        for i in (N + 1, -(N + 2)):
            with pytest.raises(IndexError):
                updated[i]
        assert [b.tag for b in updated[1:4:2]] == [(1, 1), (3, 3)]
        assert [b.tag for b in predicted[::-1]] == [(k, k - 1) for k in range(N, 0, -1)]
        assert updated[N + 1:] == []
        with pytest.raises(TypeError):
            updated[0] = updated[1]
        assert isinstance(run.gains, np.ndarray) and run.gains.shape == (N, 2, 1)
        assert isinstance(run.innovations, np.ndarray) and run.innovations.shape == (N, 1)

    def test_predictor_and_smoother_tags(self):
        N = 5
        system, noise = bench_system(N, with_output=True), bench_noise(N)
        run = predictor_run(system, noise, np.zeros((N, 1)), np.ones((N, 1)))
        assert len(run.updated) == 0 and list(run.updated) == [] and run.smoothed is None
        assert run.predicted[0].tag == (0, -1) and run.predicted[-1].tag == (N, N - 1)
        assert run.predicted.first == 0
        smoothed = smoother_run(system, noise,
                                filter_run(system, noise, np.zeros((N, 1)), np.ones((N, 1))))
        assert len(smoothed.smoothed) == N + 1
        assert smoothed.smoothed[-1].tag == (N, N) and smoothed.smoothed[-3].tag == (N - 2, N)
        assert [b.tag for b in smoothed.smoothed[:2]] == [(0, N), (1, N)]


class TestPredictorRun:
    def test_matches_stepwise_composition(self):
        N = 12
        system = bench_system(N, with_output=True)
        noise = bench_noise(N)
        stream = GaussianStream(23)
        _, inputs, measurements = simulate_measured(system, noise, K_STEADY, stream,
                                                    "predictor")
        run = predictor_run(system, noise, inputs, measurements)
        belief = Belief(mean=noise.x0_mean, cov=noise.P0, tag=(0, -1))
        for k in range(N):
            belief, L = predictor_step(system.A[k], system.B[k], system.C[k],
                                       noise.Qd[k], noise.Rv[k], belief,
                                       inputs[k], measurements[k])
            np.testing.assert_array_equal(run.predicted[k + 1].mean, belief.mean)
            np.testing.assert_array_equal(run.gains[k], L)
        assert [b.tag for b in run.predicted] == [(k, k - 1) for k in range(N + 1)]


def recorded_ltv(rng, n, m, p, N):
    """A model with every schedule time-varying, and random recorded inputs
    (N, m) and measurements (N, p)."""
    system = LtvSystem.from_schedules([rng.standard_normal((n, n)) for _ in range(N)],
                                      [rng.standard_normal((n, m)) for _ in range(N)],
                                      [rng.standard_normal((p, n)) for _ in range(N)],
                                      horizon=N)
    noise = NoiseModel(Qd=MatrixSchedule.of([random_psd(rng, n) for _ in range(N)]),
                       Rv=MatrixSchedule.of([random_psd(rng, p) for _ in range(N)]),
                       x0_mean=rng.standard_normal(n), P0=random_psd(rng, n))
    return system, noise, rng.standard_normal((N, m)), rng.standard_normal((N, p))


@pytest.mark.parametrize("n, m, p, N", [(1, 1, 1, 4), (3, 2, 2, 9), (6, 3, 3, 12)])
def test_recorded_runs_equal_one_vector_products(n, m, p, N):
    # every schedule time-varying: the recorded runs' B_k u_k, formed for all
    # k in one stacked product, and their means equal one-vector products
    # with the runs' own gains bit for bit
    system, noise, inputs, measurements = recorded_ltv(np.random.default_rng([n, m, p, N]),
                                                       n, m, p, N)
    filtered = filter_run(system, noise, inputs, measurements)
    predicted = predictor_run(system, noise, inputs, measurements)
    updated = predicting = noise.x0_mean
    for k in range(N):
        A, B, C, u, y = system.A[k], system.B[k], system.C[k], inputs[k], measurements[k]
        prior = A @ updated + B @ u
        innovation = y - C @ prior
        updated = prior + filtered.gains[k] @ innovation
        predicting = (A @ predicting + B @ u
                      + predicted.gains[k] @ (y - C @ predicting))
        assert same(filtered.predicted[k].mean, prior)
        assert same(filtered.innovations[k], innovation)
        assert same(filtered.updated[k + 1].mean, updated)
        assert same(predicted.predicted[k + 1].mean, predicting)


# Random LTV models, three of each output count p: before the gains were
# C-ordered, the step functions rounded differently from the runs at p >= 2.
STEPPED_MODELS = [(seed, 3, 2, p, 9) for p in (1, 2, 3) for seed in range(3)]


class TestStepFunctionsAreOneStepOfTheRuns:
    """A loop of the public step functions is a run, byte for byte, at every p."""

    @pytest.mark.parametrize("model", STEPPED_MODELS, ids=lambda m: "-".join(map(str, m)))
    def test_filter_and_smoother(self, model):
        seed, n, m, p, N = model
        system, noise, inputs, measurements = recorded_ltv(np.random.default_rng(model),
                                                           n, m, p, N)
        filtered = filter_run(system, noise, inputs, measurements)
        belief = Belief(noise.x0_mean, noise.P0, (0, 0))
        priors, beliefs, gains = [], [belief], []
        for k in range(N):
            priors.append(filter_predict(system.A[k], system.B[k], noise.Qd[k], belief,
                                         inputs[k]))
            belief, L = filter_update(system.C[k], noise.Rv[k], priors[-1], measurements[k])
            beliefs.append(belief)
            gains.append(L)
        for ran, stepped in ((filtered.predicted, priors), (filtered.updated, beliefs)):
            assert [b.tag for b in ran] == [b.tag for b in stepped]
            assert same(ran.means, [b.mean for b in stepped])
            assert same(ran.covs, [b.cov for b in stepped])
        assert same(filtered.gains, gains)
        stepped_run = EstimatorRun(
            BeliefSequence(np.array([b.mean for b in priors]),
                           np.array([b.cov for b in priors]), 1, -1),
            BeliefSequence(np.array([b.mean for b in beliefs]),
                           np.array([b.cov for b in beliefs]), 0, 0),
            None, np.array(gains), filtered.innovations)
        smoothed, stepped_smoothed = (smoother_run(system, noise, r)
                                      for r in (filtered, stepped_run))
        assert same(smoothed.smoothed.means, stepped_smoothed.smoothed.means)
        assert same(smoothed.smoothed.covs, stepped_smoothed.smoothed.covs)
        assert same(smoothed.gains, stepped_smoothed.gains)

    @pytest.mark.parametrize("model", STEPPED_MODELS, ids=lambda m: "-".join(map(str, m)))
    def test_predictor(self, model):
        seed, n, m, p, N = model
        system, noise, inputs, measurements = recorded_ltv(np.random.default_rng(model),
                                                           n, m, p, N)
        predicted = predictor_run(system, noise, inputs, measurements)
        beliefs, gains = [Belief(noise.x0_mean, noise.P0, (0, -1))], []
        for k in range(N):
            belief, L = predictor_step(system.A[k], system.B[k], system.C[k], noise.Qd[k],
                                       noise.Rv[k], beliefs[-1], inputs[k], measurements[k])
            beliefs.append(belief)
            gains.append(L)
        assert [b.tag for b in predicted.predicted] == [b.tag for b in beliefs]
        assert same(predicted.predicted.means, [b.mean for b in beliefs])
        assert same(predicted.predicted.covs, [b.cov for b in beliefs])
        assert same(predicted.gains, gains)

    @pytest.mark.parametrize("model", STEPPED_MODELS, ids=lambda m: "-".join(map(str, m)))
    def test_luenberger(self, model):
        # the gain is handed to the steps in Fortran order, to the runs in
        # both orders: the result depends on its values alone
        seed, n, m, p, N = model
        rng = np.random.default_rng(model)
        system, noise, _, _ = recorded_ltv(rng, n, m, p, N)
        gain = 0.3 * rng.standard_normal((n, p))
        scenario = Scenario(system, noise=noise, controller="fixed",
                            fixed_gain=0.3 * rng.standard_normal((m, n)),
                            estimator="luenberger", luenberger_gain=gain, feedback="estimate",
                            seed=seed)
        runs = [harness.run(replace(scenario, luenberger_gain=g)).trajectory
                for g in (gain, np.asfortranarray(gain))]
        assert same(runs[0].estimates, runs[1].estimates)
        traj, mean = runs[0], noise.x0_mean
        for k in range(N):
            mean = luenberger_step(system.A[k], system.B[k], system.C[k],
                                   np.asfortranarray(gain), mean, traj.inputs[k],
                                   traj.outputs[k])
            assert same(traj.estimates[k + 1], mean)

    def test_gains_are_c_ordered(self):
        A, C = np.diag([0.5, 0.8, 0.9]), np.ones((2, 3))
        assert solve_dare_estimator(A, C, np.eye(3), np.eye(2)).L.flags.c_contiguous
        belief = Belief(np.zeros(3), np.eye(3), (0, 0))
        assert filter_update(C, np.eye(2), belief, np.zeros(2))[1].flags.c_contiguous
        _, L = predictor_step(A, np.ones((3, 1)), C, np.eye(3), np.eye(2), belief, [0.0],
                              np.zeros(2))
        assert L.flags.c_contiguous


class TestPlanMemo:
    """Consecutive recorded-data runs on one (system, noise) share one plan."""

    def recorded(self, N, seed):
        system, noise = bench_system(N, with_output=True), bench_noise(N)
        _, inputs, measurements = simulate_measured(system, noise, K_STEADY,
                                                    GaussianStream(seed), "filter")
        return system, noise, inputs, measurements

    def test_new_model_gets_a_new_plan(self):
        N = 6
        system, noise, inputs, measurements = self.recorded(N, 1)
        first = filter_run(system, noise, inputs, measurements)
        assert filter_run(system, noise, inputs, measurements).updated.covs is first.updated.covs
        for other_system, other_noise in ((replace(system), noise), (system, replace(noise))):
            other = filter_run(other_system, other_noise, inputs, measurements)
            assert other.updated.covs is not first.updated.covs
            assert same(other.updated.covs, first.updated.covs)
        doubled = replace(system, A=MatrixSchedule.constant(2 * A_BENCH, N))
        other = filter_run(doubled, noise, inputs, measurements)
        assert not np.allclose(other.updated.covs, first.updated.covs)
        predicted = predictor_run(doubled, noise, inputs, measurements)    # kind is in the key
        assert predicted.predicted.covs.shape == (N + 1, 2, 2)

    @pytest.mark.parametrize("estimator", [filter_run, predictor_run])
    def test_results_equal_without_the_memo(self, estimator, monkeypatch):
        N = 9
        system, noise, _, _ = self.recorded(N, 0)
        runs = [self.recorded(N, seed)[2:] for seed in range(4)]
        cached = [estimator(system, noise, u, y) for u, y in runs]
        fresh = []
        for u, y in runs:
            monkeypatch.setattr(estimation, "_last_plan", (None, None, None, None))
            fresh.append(estimator(system, noise, u, y))
        for a, b in zip(cached, fresh):
            for beliefs in ("predicted", "updated"):
                ours, theirs = getattr(a, beliefs), getattr(b, beliefs)
                assert same(ours.means, theirs.means)
                assert ours.covs is theirs.covs is None or same(ours.covs, theirs.covs)
            assert same(a.gains, b.gains) and same(a.innovations, b.innovations)
        if estimator is filter_run:
            smoothed = [smoother_run(system, noise, run).smoothed for run in (cached[-1], fresh[-1])]
            assert same(smoothed[0].means, smoothed[1].means)

    def test_memo_lets_go_when_the_caller_does(self):
        # the memo holds the system and noise model weakly, and the plan holds
        # neither, so once the caller drops them the plan's schedules go too
        # (n = 64, N = 100: 15.8 MiB stayed traced while the memo held them)
        n, m, p, N = 64, 16, 16, 100
        gc.collect()
        tracemalloc.start()
        try:
            rng = np.random.default_rng(1)
            W = rng.standard_normal((N, n, n)) / np.sqrt(n)
            system = LtvSystem(n=n, m=m, p=p, N=N, A=MatrixSchedule(W),
                               B=MatrixSchedule(rng.standard_normal((N, n, m))),
                               C=MatrixSchedule(rng.standard_normal((N, p, n))))
            noise = NoiseModel(Qd=MatrixSchedule(0.1 * np.eye(n) + W @ W.swapaxes(1, 2)),
                               Rv=MatrixSchedule.constant(np.eye(p), N),
                               x0_mean=np.zeros(n), P0=np.eye(n))
            filter_run(system, noise, np.zeros((N, m)), rng.standard_normal((N, p)))
            assert estimation._last_plan[3] is not None
            del W, system, noise
            gc.collect()
            traced = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert estimation._last_plan == (None, None, None, None)
        assert traced < 2**20


class TestSmootherRun:
    def _benchmark_runs(self, N=30, seed=29):
        system = bench_system(N, with_output=True)
        noise = bench_noise(N)
        stream = GaussianStream(seed)
        states, inputs, measurements = simulate_measured(system, noise, K_STEADY,
                                                         stream, "filter")
        filtered = filter_run(system, noise, inputs, measurements)
        return system, noise, states, filtered

    def test_no_update_terminal_leaves_covariance(self):
        # a zero C at the last step makes P_{N|N} = P_{N|N-1}, so the last
        # smoother step leaves P_{N-1|N-1} unchanged
        N = 5
        C_sched = [C_BENCH] * (N - 1) + [np.zeros((1, 2))]
        system = LtvSystem.from_schedules([A_BENCH] * N, [B_BENCH] * N, C_sched, horizon=N)
        noise = bench_noise(N)
        run = filter_run(system, noise, np.zeros((N, 1)), np.ones((N, 1)))
        np.testing.assert_allclose(run.updated[N].cov, run.predicted[N - 1].cov, atol=1e-12)
        smoothed = smoother_run(system, noise, run)
        np.testing.assert_allclose(smoothed.smoothed[N - 1].cov, run.updated[N - 1].cov,
                                   atol=1e-10)

    def test_near_deterministic_degeneracy(self):
        N = 8
        system = bench_system(N, with_output=True)
        noise = bench_noise(N, Qd=1e-12 * np.eye(2), Rv=np.array([[1e-9]]),
                            P0=np.zeros((2, 2)))
        x = X0_BENCH.copy()
        inputs, measurements, states = [], [], [x.copy()]
        for k in range(N):
            u = np.array([0.05 * k])
            inputs.append(u)
            x = system.A[k] @ x + system.B[k] @ u
            states.append(x.copy())
            measurements.append(C_BENCH @ x)
        filtered = filter_run(system, noise, np.array(inputs), np.array(measurements))
        smoothed = smoother_run(system, noise, filtered)
        for k in range(N + 1):
            np.testing.assert_allclose(smoothed.smoothed[k].mean, states[k], atol=1e-6)

    def test_covariance_ordering(self):
        system, noise, _, filtered = self._benchmark_runs()
        smoothed = smoother_run(system, noise, filtered)
        N = system.N
        for k in range(N + 1):
            ds = np.diag(smoothed.smoothed[k].cov)
            df = np.diag(filtered.updated[k].cov)
            assert np.all(ds <= df + 1e-10)
            if k >= 1:
                dp = np.diag(filtered.predicted[k - 1].cov)
                assert np.all(df <= dp + 1e-10)

    def test_tags_and_gains(self):
        system, noise, _, filtered = self._benchmark_runs(N=6)
        smoothed = smoother_run(system, noise, filtered)
        assert [b.tag for b in smoothed.smoothed] == [(k, 6) for k in range(7)]
        assert len(smoothed.gains) == 6 and smoothed.gains[0].shape == (2, 2)

    def test_singular_predicted_covariance_is_named(self):
        # A = 0 and Qd = 0 make every P_{k+1|k} zero; the stacked gain solve
        # names the first of them, P_{1|0}
        N = 6
        system = LtvSystem.lti(np.zeros((2, 2)), B_BENCH, C_BENCH, horizon=N)
        noise = bench_noise(N, Qd=np.zeros((2, 2)))
        message = "^smoother predicted covariance at k=1: matrix is not positive definite"
        with pytest.raises(np.linalg.LinAlgError, match=message):
            smoother_run(system, noise, filter_run(system, noise, np.zeros((N, 1)),
                                                   np.ones((N, 1))))
        with pytest.raises(np.linalg.LinAlgError, match=message):
            estimation._EstimatorPlan("smoother", system, noise)

    def test_rts_reference_implementation(self):
        # literal backward recursion, written independently
        system, noise, _, filtered = self._benchmark_runs(N=15, seed=31)
        smoothed = smoother_run(system, noise, filtered)
        N = 15
        means = [b.mean for b in filtered.updated]
        covs = [b.cov for b in filtered.updated]
        sm_mean, sm_cov = means[N].copy(), covs[N].copy()
        for k in range(N - 1, -1, -1):
            P_pred = filtered.predicted[k].cov
            x_pred = filtered.predicted[k].mean
            G = covs[k] @ system.A[k].T @ np.linalg.inv(P_pred)
            sm_mean, sm_cov = (means[k] + G @ (sm_mean - x_pred),
                               covs[k] + G @ (sm_cov - P_pred) @ G.T)
            np.testing.assert_allclose(smoothed.smoothed[k].mean, sm_mean, atol=1e-10)
            np.testing.assert_allclose(smoothed.smoothed[k].cov, sm_cov, atol=1e-10)


def lti_model(seed, n, p, N, radius):
    """A random LTI model whose A has spectral radius `radius`."""
    rng = np.random.default_rng([seed, n, p, N])
    A = rng.standard_normal((n, n))
    A *= radius / np.max(np.abs(np.linalg.eigvals(A)))
    W, V = rng.standard_normal((n, n)), rng.standard_normal((p, p))
    Qd, Rv = W @ W.T / n + 0.1 * np.eye(n), V @ V.T / p + 0.1 * np.eye(p)
    return (LtvSystem.lti(A, rng.standard_normal((n, 2)), rng.standard_normal((p, n)),
                          horizon=N),
            NoiseModel.constant(Qd, Rv, rng.standard_normal(n), random_psd(rng, n), horizon=N))


# Of these, some forward passes land on an exact fixed point before N and
# some do not (a short horizon, or a recursion still moving at N = 80);
# test_models_cover_both_outcomes keeps it so.
LTI_MODELS = [(seed, n, p, N, radius) for n in range(1, 7) for p in (1, 2, 3)
              for seed, (N, radius) in enumerate(((80, 0.5), (80, 1.2), (20, 0.5), (3, 0.9)))]


def oracle_schedules(kind, system, noise):
    """The plan's covariance schedules from a loop of the public step
    functions, and the RTS schedules from one solve per gain."""
    N, m, p = system.N, system.m, system.p
    u, y = np.zeros(m), np.zeros(p)
    if kind == "predictor":
        belief, gains, predicted = Belief(noise.x0_mean, noise.P0, (0, -1)), [], [noise.P0]
        for k in range(N):
            belief, L = predictor_step(system.A[k], system.B[k], system.C[k], noise.Qd[k],
                                       noise.Rv[k], belief, u, y)
            gains.append(L)
            predicted.append(belief.cov)
        return {"gains": gains, "predicted": predicted}
    belief, gains, predicted, updated = Belief(noise.x0_mean, noise.P0, (0, 0)), [], [], [noise.P0]
    for k in range(N):
        prior = filter_predict(system.A[k], system.B[k], noise.Qd[k], belief, u)
        belief, L = filter_update(system.C[k], noise.Rv[k], prior, y)
        predicted.append(prior.cov)
        gains.append(L)
        updated.append(belief.cov)
    schedules = {"gains": gains, "predicted": predicted, "updated": updated}
    if kind == "smoother":
        smoother_gains, smoothed = [None] * N, [None] * N + [updated[N]]
        for k in range(N - 1, -1, -1):
            smoother_gains[k] = Ls = solve_spd(predicted[k], system.A[k] @ updated[k], "").T
            smoothed[k] = symmetrize(updated[k] + Ls @ (smoothed[k + 1] - predicted[k]) @ Ls.T)
        schedules.update(smoother_gains=smoother_gains, smoothed=smoothed)
    return schedules


def forward_steps(kind, system, noise, monkeypatch):
    """How many forward gain steps a `kind` plan takes."""
    name = "_predictor_gain" if kind == "predictor" else "_filter_gain"
    step, calls = getattr(estimation, name), []
    monkeypatch.setattr(estimation, name, lambda *args: calls.append(1) or step(*args))
    estimation._EstimatorPlan(kind, system, noise)
    return len(calls)


class TestFixedPointTail:
    """A forward pass that repeats its state byte for byte copies its tail."""

    @pytest.mark.parametrize("model", LTI_MODELS, ids=lambda m: "-".join(map(str, m)))
    def test_plan_equals_public_steps(self, model):
        system, noise = lti_model(*model)
        for kind in ("predictor", "filter", "smoother"):
            plan = estimation._EstimatorPlan(kind, system, noise)
            for name, entries in oracle_schedules(kind, system, noise).items():
                assert same(getattr(plan, name), np.array(entries)), (kind, name)

    def test_models_cover_both_outcomes(self, monkeypatch):
        for kind in ("predictor", "filter"):
            early = [forward_steps(kind, *lti_model(*model), monkeypatch) < model[3]
                     for model in LTI_MODELS]
            assert 0 < sum(early) < len(early), kind

    def test_fig4_filter_stops_early(self, monkeypatch):
        s = parse_scenario((resources.files("lqgkit") / "scenarios" / "fig4.scn").read_text())
        assert forward_steps("filter", s.system, s.noise, monkeypatch) < s.system.N

    def test_time_varying_model_takes_every_step(self, monkeypatch):
        system, noise = lti_model(0, 2, 1, 80, 0.5)
        varying = replace(noise, Qd=MatrixSchedule(noise.Qd.stack))
        assert forward_steps("filter", system, noise, monkeypatch) < 80
        assert forward_steps("filter", system, varying, monkeypatch) == 80
        assert same(estimation._EstimatorPlan("filter", system, varying).updated,
                    estimation._EstimatorPlan("filter", system, noise).updated)

    def test_signed_zero_is_not_a_repeat(self):
        schedule = np.array([[[0.0]], [[-0.0]], [[-0.0]]])
        assert not estimation._repeats(schedule, 1) and estimation._repeats(schedule, 2)


class TestSolveDareEstimator:
    def test_zero_a(self):
        result = solve_dare_estimator([[0.0]], [[1.0]], [[2.0]], [[1.0]])
        np.testing.assert_allclose(result.L, [[0.0]], atol=1e-14)
        np.testing.assert_allclose(result.P, [[2.0]])

    def test_benchmark_fixture(self):
        result = solve_dare_estimator(A_BENCH, C_BENCH, np.eye(2), 1.0, tol=1e-12)
        np.testing.assert_allclose(result.P, P_EST_STEADY, rtol=0, atol=1e-9)
        np.testing.assert_allclose(result.L, L_EST_STEADY, rtol=0, atol=1e-9)
        assert result.observer_spectral_radius < 1.0

    def test_scipy_cross_check(self):
        result = solve_dare_estimator(A_BENCH, C_BENCH, np.eye(2), 1.0, tol=1e-13)
        P_ref = sla.solve_discrete_are(A_BENCH.T, C_BENCH.T, np.eye(2), np.array([[1.0]]))
        np.testing.assert_allclose(result.P, P_ref, atol=1e-8)

    def test_transpose_duality(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            p = int(rng.integers(1, 3))
            A = rng.standard_normal((n, n))
            A *= 0.9 / max(abs(np.linalg.eigvals(A)))
            C = rng.standard_normal((p, n))
            Qd = random_psd(rng, n)
            Rv = random_psd(rng, p)
            est = solve_dare_estimator(A, C, Qd, Rv, tol=1e-12)
            ctrl = solve_dare_lqr(A.T, C.T, Qd, Rv, tol=1e-12)
            np.testing.assert_allclose(est.L, ctrl.K.T, atol=1e-8)
            np.testing.assert_allclose(est.P, ctrl.P, atol=1e-8)

    def test_undetectable_diverges(self):
        with pytest.raises(ConvergenceError):
            solve_dare_estimator([[2.0]], [[0.0]], [[1.0]], [[1.0]], max_iter=500)

    def test_overflow_fails_fast(self):
        with pytest.raises(ConvergenceError, match="diverged") as excinfo:
            solve_dare_estimator(np.diag([2.0, 0.5]), [[0.0, 1.0]], np.eye(2), 1.0)
        assert excinfo.value.iterations < 100_000
        assert not np.isfinite(excinfo.value.residual)

    @pytest.mark.parametrize("p, diagnostic", [
        (2, "Matrix is not positive definite"),         # numpy's Cholesky
        (9, "Matrix is not positive definite"),         # numpy's, above order 8 too
    ])
    def test_indefinite_innovation_names_the_solve_diagnostic(self, p, diagnostic):
        with pytest.raises(np.linalg.LinAlgError) as excinfo:
            solve_dare_estimator(0.5 * np.eye(3), np.ones((p, 3)), np.eye(3), -np.eye(p))
        assert str(excinfo.value) == ("estimator innovation covariance: matrix is not "
                                      f"positive definite ({diagnostic})")

    def test_errors_name_the_estimator(self):
        # solved as the dual LQR problem, yet its errors name the estimator
        with pytest.raises(np.linalg.LinAlgError,
                           match="^estimator innovation covariance: matrix is not positive definite"):
            solve_dare_estimator([[0.5]], [[0.0]], [[1.0]], [[0.0]])
        with pytest.raises(ConvergenceError,
                           match="^steady-state estimator iteration did not converge"):
            solve_dare_estimator([[2.0]], [[0.0]], [[1.0]], [[1.0]], max_iter=500)
        with pytest.raises(ConvergenceError, match="^steady-state estimator iteration diverged"):
            solve_dare_estimator(np.diag([2.0, 0.5]), [[0.0, 1.0]], np.eye(2), 1.0)


class TestCovarianceInvariants:
    def test_symmetric_psd_over_random_steps(self, rng):
        # long random predict/update chains keep covariances symmetric and PSD
        P = np.eye(3)
        belief = Belief(mean=np.zeros(3), cov=P, tag=(0, 0))
        for step in range(1000):
            if step % 2 == 0:
                A = rng.standard_normal((3, 3)) * 0.6
                belief = filter_predict(A, np.zeros((3, 1)), random_psd(rng, 3, 0.1),
                                        belief, [0.0])
            else:
                C = rng.standard_normal((2, 3))
                belief, _ = filter_update(C, random_psd(rng, 2), belief,
                                          rng.standard_normal(2))
            np.testing.assert_array_equal(belief.cov, belief.cov.T)
            assert np.linalg.eigvalsh(belief.cov).min() >= -1e-9

    def test_gain_stationarity_trace_objective(self, rng):
        # perturbing the optimal gain in the one-step trace objective never
        # reduces trace(P) beyond rounding
        for _ in range(10):
            n, p = 2, 1
            A = rng.standard_normal((n, n))
            C = rng.standard_normal((p, n))
            Qd = random_psd(rng, n)
            Rv = random_psd(rng, p)
            P_prev = random_psd(rng, n)
            M = A @ P_prev @ A.T + Qd
            S = C @ M @ C.T + Rv
            L_opt = M @ C.T @ np.linalg.inv(S)

            def trace_obj(L):
                ILC = np.eye(n) - L @ C
                return float(np.trace(ILC @ M @ ILC.T + L @ Rv @ L.T))

            base = trace_obj(L_opt)
            for i in range(n):
                for j in range(p):
                    for sign in (+1.0, -1.0):
                        L = L_opt.copy()
                        L[i, j] += sign * 1e-5
                        assert trace_obj(L) >= base - 1e-12
